"""The end-to-end simulated quantum Newton iteration.

Builds the block-diagonal gradient operator M and value operator A, the
P sandwich, the reference-state construction whose top-left block carries
the gradient matrix elements, pseudo-inverts the scaled Jacobian and
assembles the rank-one density update

    x' x'^T = x x^T - x d^T - d x^T + d d^T,     d = J^{-1} F(x),

entirely inside the block-encoding calculus.  The overlap factor
gamma^{2p-1}/sqrt(n) carried by the Jacobian encoding cancels against the
right-hand-side encoding by construction and never needs amplification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .block_encoding import (BlockEncoding, CostLedger, _Budget, _eps_units,
                             _from_entries, _log2, _mk, _product_budget,
                             _sparse_budget, _sum_budget, _tensor_budget,
                             be_amplify, be_from_sparse, be_from_vector,
                             be_outer, be_product, be_rescale, be_sum,
                             be_transpose, debug_enabled)
from .errors import (CompositionError, ConditioningError,
                     DegenerateReferenceError, DeskScaleError, InputError,
                     InvariantViolationError, RescaleRequiredError,
                     SingularJacobianError)
from .poly_system import (DESK_SCALE_CAP, InhomogeneousSystem, MixedSystem,
                          PolynomialSystem, SparseMatrix, evaluate, jacobian,
                          mixed_evaluate, mixed_jacobian, tensor_power)
from .svt import (InversionConfig, max_eigenvalue, min_singular_value,
                  sv_invert)

GAMMA_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# Register helpers
# ---------------------------------------------------------------------------

def _householder_column(target: np.ndarray) -> np.ndarray:
    """H e_0 for the symmetric orthogonal (Householder) H sending e_0 to the
    unit vector along target: e_0 - 2 w w_0 / |w|^2, w = v - e_0."""
    v = target / np.linalg.norm(target)
    w = v.copy()
    w[0] -= 1.0
    nw2 = float(np.dot(w, w))
    e0 = np.zeros(v.size)
    e0[0] = 1.0
    return e0 if nw2 < 1e-28 else e0 - 2.0 * (w * w[0]) / nw2


def _kron_apply(ops, cols: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """(ops[0] x ops[1] x ..) @ cols, one contraction per register
    (register 0 most significant); a None op is the identity."""
    k = cols.shape[1]
    t = cols.reshape(dims + (k,))
    for ax, op in enumerate(ops):
        if op is not None:
            t = np.moveaxis(np.tensordot(op, t, axes=([1], [ax])), 0, ax)
    return t.reshape(-1, k)


def _encode_matrix_auto(m: SparseMatrix,
                        ledger: CostLedger | None = None) -> BlockEncoding:
    """Sparse encoding with automatic entry rescaling folded into alpha."""
    ent = m.max_abs_entry()
    s = max(1, m.row_nnz_max(), m.col_nnz_max())
    if ent <= 1.0:
        return be_from_sparse(m, s, ledger)
    return be_rescale(be_from_sparse(m.scaled(1.0 / ent), s, ledger), ent)


class _ChargeLog(list):
    """Ledger stand-in that records each charge's label and amounts."""

    def charge(self, label: str, **amounts) -> None:
        self.append((label, amounts))


def _built_once(build, owner, ledger: CostLedger | None) -> BlockEncoding:
    """build(owner), built once per owner and QNLS_DEBUG mode; every call
    replays the build's ledger charges in their order.  The memo is kept in
    the owner's instance dict, so it dies with the owner."""
    memo = vars(owner).setdefault("_built", {})
    key = (build, debug_enabled())
    if key not in memo:
        memo[key] = build(owner, ledger=(log := _ChargeLog())), log
    be, log = memo[key]
    for label, amounts in log if ledger is not None else ():
        ledger.charge(label, **amounts)
    return be


def recover_vector(be_xxT: BlockEncoding,
                   sign_reference: np.ndarray) -> np.ndarray:
    """Dominant eigenvector of the encoded rank-one operator, scaled to x.

    The outer product fixes x only up to a global sign; the reference picks
    the branch with non-negative overlap.
    """
    m = be_xxT.extract()
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    lam = max(float(w[-1]), 0.0)
    x = np.sqrt(lam) * v[:, -1]
    if float(np.dot(x, sign_reference)) < 0:
        x = -x
    if debug_enabled():
        rest = np.max(np.abs(w[:-1])) if w.size > 1 else 0.0
        if rest > 1e-7 * max(1.0, lam):
            raise InvariantViolationError(
                f"encoded state not rank one (second eigenvalue {rest:.3e})")
    return x


# ---------------------------------------------------------------------------
# Operator constructions
# ---------------------------------------------------------------------------

def _require_canonical(system: PolynomialSystem) -> None:
    if system.max_entry() > 1.0 + 1e-12:
        raise RescaleRequiredError("coefficient entries exceed 1; canonicalize first")
    if system.p * system.max_norm() > np.sqrt(system.n) + 1e-9:
        raise RescaleRequiredError(
            "p * max ||A_i|| exceeds sqrt(n); canonicalize first")


def _blockdiag(blocks: list[SparseMatrix]) -> SparseMatrix:
    """blockdiag(blocks[0] .. blocks[-1]) for equally sized square blocks."""
    d = blocks[0].dim_rows
    big = len(blocks) * d
    return SparseMatrix(big, big,
                        np.concatenate([b.rows + i * d for i, b in enumerate(blocks)]),
                        np.concatenate([b.cols + i * d for i, b in enumerate(blocks)]),
                        np.concatenate([b.vals for b in blocks]))


def build_M_blockdiag(system: PolynomialSystem,
                      ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of blockdiag(M_D^1 .. M_D^n) / (p s) from the merged entries,
    with the budget and charges of the sum of the p sparse encodings of
    blockdiag(Q_j A_i Q_j); each has the entries and row/column counts of
    blockdiag(A_i), which are checked as theirs."""
    _require_canonical(system)
    p, s = system.p, system.sparsity
    a = _blockdiag(system.equations)
    b = _sum_budget([_sparse_budget(a, s, ledger) for _ in range(p)], ledger)
    return _from_entries(_blockdiag([system.m_d(i) for i in range(system.n)]), b)


def build_A_blockdiag(system: PolynomialSystem,
                      ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of blockdiag(A_1/2 .. A_n/2) / s."""
    blocks = [a.scaled(0.5) for a in system.equations]
    return be_from_sparse(_blockdiag(blocks), system.sparsity, ledger)


def _sandwich(be_mid: BlockEncoding, be_xxT: BlockEncoding, p: int, k: int,
              g: np.ndarray, f: np.ndarray, ledger: CostLedger | None,
              intended: np.ndarray | None = None,
              label: str | None = None) -> BlockEncoding:
    """Encoding of G^T L Mid R F, L = I x (xx^T)^{k} x I^{p-k}, R = I x (xx^T)^{p}.

    L and R act through their Kronecker factors on the m columns of G and
    F: O(N^2 m) for N = n^{p+1}, not the O(N^3) of L Mid R.  Budget and
    charges are those of L (Mid R), L = R when k = p; a labelled sandwich
    adds 2 to the cost and charges the label 2 primitive ops.  The
    operands' intended matrices give the default intended."""
    eye = _Budget(1.0, 0.0, 1.0)          # an exact identity register
    left = _tensor_budget([eye] + [be_xxT] * k + [eye] * (p - k), ledger)
    right = left if k == p else _tensor_budget([eye] + [be_xxT] * p, ledger)
    b = _product_budget(left, _product_budget(be_mid, right, ledger), ledger)
    dims = (be_xxT.logical_dim,) * (p + 1)

    def corner(x, mid):
        lg = _kron_apply([None] + [x.T] * k + [None] * (p - k), g, dims)
        return lg.T @ (mid @ _kron_apply([None] + [x] * p, f, dims))

    if intended is None and be_mid.intended is not None \
            and be_xxT.intended is not None:
        intended = corner(be_xxT.intended, be_mid.intended)
    out = _mk(corner(be_xxT.block, be_mid.block), b.alpha, b.eps, intended,
              b.cost + (2.0 if label is not None else 0.0))
    if label is not None and ledger is not None:
        ledger.charge(label, primitive=2.0)
    return out


def build_P(be_m: BlockEncoding, be_xxT: BlockEncoding, p: int,
            ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of (I x (xx^T)^{p-1} x I) M (I x (xx^T)^{p}), alpha = p s."""
    eye = np.eye(be_m.logical_dim)
    return _sandwich(be_m, be_xxT, p, p - 1, eye, eye, ledger)


class StepFrame:
    """One Newton step's frame at the iterate x, for degree 2p: the unit
    reference r (e_1 when x_ref is None), gamma = r.x (an overlap below
    GAMMA_FLOOR, or a zero or non-finite reference, raises
    DegenerateReferenceError before any division) and the corner columns,
    which a step without a nonlinear part never reads."""

    def __init__(self, x: np.ndarray, p: int, x_ref: np.ndarray | None = None):
        n = len(x)
        if x_ref is None:
            refu = np.zeros(n)
            refu[0] = 1.0
        else:
            refu = np.asarray(x_ref, dtype=np.float64)
            if refu.shape != (n,):
                raise InputError("reference vector has wrong length")
            if not np.all(np.isfinite(refu)):       # its overlap is NaN
                raise DegenerateReferenceError(f"overlap nan below {GAMMA_FLOOR}")
            nrm = float(np.linalg.norm(refu))
            if nrm == 0:
                raise DegenerateReferenceError("zero reference vector")
            refu = refu / nrm
        gamma = float(np.dot(refu, x))
        if not abs(gamma) >= GAMMA_FLOOR:
            raise DegenerateReferenceError(f"overlap {gamma:.2e} below {GAMMA_FLOOR}")
        self.x, self.p, self.refu, self.gamma = x, p, refu, gamma

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Corner columns (E, U), built on first read: E[:, j] = e_j x
        (H_r e_0)^{p} and U[:, i] = H_u e_0 x (H_r e_0)^{p-1} x e_i on
        registers 0 (equation index, most significant) .. p, H_r the
        reference's Householder and H_u the uniform one: the Jacobian's
        corner is U^T P E, the right-hand side's E^T (T A T) U."""
        n, p = self.refu.size, self.p
        h = _householder_column(self.refu)
        hu = _householder_column(np.full(n, 1.0 / np.sqrt(n)))
        e = np.kron(np.eye(n), tensor_power(h, p)[:, None])
        # fold from H_u e_0: the product grouping of one register at a time
        u = np.kron(reduce(np.kron, [h] * (p - 1), hu)[:, None], np.eye(n))
        return e, u


def _amplify_to_unit(be: BlockEncoding,
                     ledger: CostLedger | None) -> BlockEncoding:
    """Amplify toward alpha = 1 as far as the block norm leaves headroom."""
    nrm = float(np.linalg.norm(be.block, 2))
    factor = min(be.alpha, (1.0 - 1e-6) / max(nrm, 1e-300))
    return be_amplify(be, factor, ledger) if factor > 1.0 else be


def jacobian_sandwich_be(system: PolynomialSystem, be_xxT: BlockEncoding,
                         frame: StepFrame, *,
                         ledger: CostLedger | None = None) -> BlockEncoding:
    """The U_m U_p construction around the P encoding of the iterate frame.x.

    Matrix element (i, k) of the returned top-left block equals
    gamma^{2p-1} (grad f_k(x))_i / (sqrt(n) * alpha_P); with alpha = alpha_P
    the extracted matrix is gamma^{2p-1} J(x)^T / sqrt(n), gamma = frame.gamma.
    """
    n, p, x = system.n, system.p, frame.x
    be_m = _built_once(build_M_blockdiag, system, ledger)
    e, u = frame.columns
    intended = (frame.gamma ** (2 * p - 1) * jacobian(system, x).T / np.sqrt(n)
                if debug_enabled() else None)
    return _sandwich(be_m, be_xxT, p, p - 1, u, e, ledger, intended,
                     "gradient_sandwich")


def jacobian_be(system: PolynomialSystem, be_xxT: BlockEncoding,
                frame: StepFrame, *,
                ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of gamma^{2p-1} J(x) / sqrt(n), amplified toward alpha = 1."""
    sand = jacobian_sandwich_be(system, be_xxT, frame, ledger=ledger)
    return _amplify_to_unit(be_transpose(sand), ledger)


def rhs_be(system: PolynomialSystem, be_xxT: BlockEncoding, frame: StepFrame,
           *, ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of gamma^{2p-1} F(x) x^T / sqrt(n) via the A sandwich."""
    n, p, x = system.n, system.p, frame.x
    be_a = _built_once(build_A_blockdiag, system, ledger)
    e, u = frame.columns
    intended = (frame.gamma ** (2 * p - 1) * np.outer(evaluate(system, x), x)
                / np.sqrt(n) if debug_enabled() else None)
    return _sandwich(be_a, be_xxT, p, p, e, u, ledger, intended, "rhs_sandwich")


def norm_estimate(be_xxT: BlockEncoding, eps: float,
                  ledger: CostLedger | None = None) -> float:
    """|x|^2 as the largest eigenvalue of the encoded x x^T."""
    return max_eigenvalue(be_xxT, eps, ledger)


# ---------------------------------------------------------------------------
# Newton state, trace, iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonState:
    """Snapshot after k steps; sigma_k/gamma_k are the values measured at the
    iterate the last step departed from (None before any step)."""

    k: int
    be_xxT: BlockEncoding
    x: np.ndarray
    x_norm_sq: float
    sigma_k: float | None
    gamma_k: float | None
    ledger: CostLedger


@dataclass(frozen=True)
class TraceRow:
    k: int
    residual: float
    x_norm_sq: float
    sigma_k: float | None
    gamma_k: float | None
    oracle_queries: float
    primitive_ops: float
    amplification_cost: float


TRACE_HEADER = ("iter,residual,x_norm_sq,sigma_k,gamma_k,"
                "oracle_queries,primitive_ops,amplification_cost")


@dataclass
class NewtonTrace:
    rows: list[TraceRow]
    halted: str | None = None

    def to_csv(self) -> str:
        def cell(v):
            return "" if v is None else f"{v:.17g}"

        lines = [TRACE_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.k), cell(r.residual), cell(r.x_norm_sq), cell(r.sigma_k),
                cell(r.gamma_k), cell(r.oracle_queries), cell(r.primitive_ops),
                cell(r.amplification_cost)]))
        return "\n".join(lines) + "\n"


def _split_system(system):
    if isinstance(system, PolynomialSystem):
        return system, None, None
    if isinstance(system, MixedSystem):
        lin = system.linear if system.linear.nnz else None
        const = system.constants if np.any(system.constants) else None
        return system.nonlinear, lin, const
    raise InputError(f"unsupported system type {type(system).__name__}")


def system_evaluators(system):
    """(F, J) callables for any of the system flavors."""
    if isinstance(system, PolynomialSystem):
        return (lambda x: evaluate(system, x),
                lambda x: jacobian(system, x))
    if isinstance(system, MixedSystem):
        return (lambda x: mixed_evaluate(system, x),
                lambda x: mixed_jacobian(system, x))
    if isinstance(system, InhomogeneousSystem):
        return system.evaluate, system.jacobian
    raise InputError(f"unsupported system type {type(system).__name__}")


def newton_step(system, state: NewtonState, cfg: InversionConfig, *,
                x_ref: np.ndarray | None = None) -> NewtonState:
    """One density-matrix Newton update built from the calculus.

    All four terms enter the uniform sum scaled by the inversion threshold
    (the *-scaled pseudoinverse makes the gamma and sqrt(n) factors cancel);
    the sum is then rescaled back and re-amplified so the next state again
    carries x x^T at alpha ~ 1.
    """
    led = state.ledger.copy()
    poly, lin, const = _split_system(system)
    n = system.n
    p_half = poly.p if poly is not None else 1
    floor = cfg.sigma_floor
    nx2 = norm_estimate(state.be_xxT, cfg.eps, led)
    x = state.x
    frame = StepFrame(x, p_half, x_ref)
    gamma = frame.gamma
    ghat = gamma ** (2 * p_half - 1)
    rootn = np.sqrt(n)

    be_lin = _built_once(_encode_matrix_auto, lin, led) if lin is not None else None

    j_parts = []
    if poly is not None:
        j_parts.append(jacobian_be(poly, state.be_xxT, frame, ledger=led))
    if be_lin is not None:
        j_parts.append(be_rescale(be_lin, ghat / rootn))
    be_j = j_parts[0] if len(j_parts) == 1 else be_sum(j_parts, ledger=led)

    sigma_meas = min_singular_value(be_j, cfg.eps, led)
    if sigma_meas < floor:
        raise SingularJacobianError(
            f"scaled Jacobian singular value {sigma_meas:.3e} below the "
            f"floor {floor:.3e} at step {state.k}")

    inv_cfg = InversionConfig(min(floor / be_j.alpha, 1.0 - 1e-9),
                              cfg.eps, cfg.backend)
    scale = inv_cfg.sigma_floor * be_j.alpha     # extract(inv) = scale * pinv(extract(be_j))
    be_inv = sv_invert(be_j, inv_cfg, led)

    r_parts = []
    if poly is not None:
        r_parts.append(rhs_be(poly, state.be_xxT, frame, ledger=led))
    if be_lin is not None:
        r_parts.append(be_rescale(be_product(be_lin, state.be_xxT, led),
                                  ghat / rootn))
    if const is not None:
        outer_ref = be_outer(const, frame.refu, led)
        r_parts.append(be_rescale(be_product(outer_ref, state.be_xxT, led),
                                  ghat / (rootn * gamma)))
    be_r = r_parts[0] if len(r_parts) == 1 else be_sum(r_parts, ledger=led)

    t2 = be_product(be_inv, be_r, led)                     # scale * d x^T
    t3 = be_transpose(t2)
    if nx2 < 1e-12:
        raise SingularJacobianError("iterate norm collapsed to zero")
    be_ff = be_rescale(be_product(be_r, be_transpose(be_r), led), 1.0 / nx2)
    led.charge("norm_removal",
               amplification=_log2(1.0 / nx2) / (nx2 * _eps_units(cfg.eps)))
    t4 = be_product(be_inv, be_product(be_ff, be_transpose(be_inv), led), led)

    terms = [be_rescale(state.be_xxT, scale), t2, t3, be_rescale(t4, 1.0 / scale)]
    summed = be_sum(terms, [1, -1, -1, 1], led)            # scale * x' x'^T
    out = _amplify_to_unit(be_rescale(summed, 1.0 / scale), led)

    # x' x'^T fixes x' up to sign; tr(scale x x^T) - tr(scale d x^T) = scale x'.x
    overlap = np.trace(terms[0].extract()) - np.trace(t2.extract())
    x_next = recover_vector(out, sign_reference=x if overlap >= 0 else -x)
    if debug_enabled():
        f_eval, j_eval = system_evaluators(system)
        x_classical = x - np.linalg.solve(j_eval(x), f_eval(x))
        # the copy is verified on creation, against the classical step
        out = replace(out, intended=np.outer(x_classical, x_classical))
    return NewtonState(state.k + 1, out, x_next,
                       float(np.dot(x_next, x_next)),
                       float(sigma_meas), gamma, led)


def newton_solve(system, x0: np.ndarray, t: int, cfg: InversionConfig, *,
                 gamma_reference: str = "e1"
                 ) -> tuple[NewtonState, NewtonTrace]:
    """Run t simulated Newton steps from the encoding of x0 x0^T.

    gamma_reference picks the sandwich reference state: 'e1' (first basis
    vector, gamma = first iterate component), 'x0' (frozen initial state),
    or 'previous' (re-referenced to the current iterate each step).
    Returns the final state and the per-iteration trace.  A numerical
    failure (singular Jacobian, degenerate overlap, failed composition,
    conditioning or linear algebra) stops early and is recorded on the
    trace as the halt reason instead of raising.  A system whose sandwich
    dimension n^{p+1} (n without a nonlinear part) exceeds DESK_SCALE_CAP
    raises DeskScaleError before any encoding is built.
    """
    if t < 0:
        raise InputError("iteration count must be non-negative")
    if gamma_reference not in ("e1", "x0", "previous"):
        raise InputError(f"unknown gamma reference {gamma_reference!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (system.n,):
        raise InputError(f"x0 must have length {system.n}")
    if not np.all(np.isfinite(x0)):
        raise InputError("x0 must be finite")
    if np.linalg.norm(x0) > 1.0 + 1e-12:
        raise InputError("||x0|| must be at most 1")
    poly = _split_system(system)[0]
    dim = system.n ** (poly.p + 1) if poly is not None else system.n
    if dim > DESK_SCALE_CAP:
        raise DeskScaleError(f"logical_dim {dim} exceeds cap {DESK_SCALE_CAP}")
    led = CostLedger()
    be0 = be_from_vector(x0, led)
    eps_step = cfg.eps / (3.0 * max(t, 1))
    step_cfg = InversionConfig(cfg.sigma_floor, eps_step, cfg.backend)
    states = [NewtonState(0, be0, x0.copy(), float(np.dot(x0, x0)),
                          None, None, led)]
    halted = None
    for k in range(t):
        if gamma_reference == "e1":
            ref = None
        elif gamma_reference == "x0":
            ref = x0
        else:
            ref = states[-1].x
        try:
            states.append(newton_step(system, states[-1], step_cfg, x_ref=ref))
        except (SingularJacobianError, DegenerateReferenceError,
                CompositionError, ConditioningError,
                np.linalg.LinAlgError) as exc:
            halted = str(exc)
            break
    f_eval, _ = system_evaluators(system)
    rows = [TraceRow(st.k, float(np.linalg.norm(f_eval(st.x))), st.x_norm_sq,
                     nxt.sigma_k if nxt else None,
                     nxt.gamma_k if nxt else None,
                     st.ledger.oracle_queries, st.ledger.primitive_ops,
                     st.ledger.amplification_cost)
            for st, nxt in zip(states, states[1:] + [None])]
    return states[-1], NewtonTrace(rows, halted)


def init_heuristic(system: PolynomialSystem, candidates, eps: float = 1e-6,
                   ledger: CostLedger | None = None
                   ) -> tuple[np.ndarray, list[float]]:
    """Pick the candidate with the smallest max_i |f_i| residual.

    Each candidate is scored through the block-diagonal value operator:
    the squared operator is PSD, its largest eigenvalue is
    (max_i |f_i(x)| * |x|^{2p})^2, and the norm-estimate power divides the
    |x|^{2p} factor back out.
    """
    cands = [np.asarray(c, dtype=np.float64) for c in candidates]
    if not cands:
        raise InputError("need at least one candidate")
    n, p = system.n, system.p
    be_a = build_A_blockdiag(system, ledger)
    eye = np.eye(n ** (p + 1))
    values = []
    for c in cands:
        if c.shape != (n,):
            raise InputError("candidate of wrong length")
        if np.linalg.norm(c) > 1.0 + 1e-12:
            raise InputError("candidates must have norm at most 1")
        be_c = be_from_vector(c, ledger)
        op = _sandwich(be_a, be_c, p, p, eye, eye, ledger)
        sq = be_product(op, be_transpose(op), ledger)
        m2 = max_eigenvalue(sq, eps, ledger)
        nx2 = norm_estimate(be_c, eps, ledger)
        if nx2 < 1e-14:
            values.append(0.0)
        else:
            values.append(float(np.sqrt(max(m2, 0.0)) / nx2 ** p))
    best = int(np.argmin(values))
    return cands[best], values
