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

from dataclasses import dataclass

import numpy as np

from .block_encoding import (BlockEncoding, CostLedger, _eps_units, _log2,
                             _share_block, be_amplify, be_from_sparse,
                             be_from_vector, be_identity, be_outer,
                             be_product, be_rescale, be_sum, be_tensor,
                             be_transpose, debug_enabled)
from .errors import (CompositionError, ConditioningError,
                     DegenerateReferenceError, DeskScaleError, InputError,
                     InvariantViolationError, RescaleRequiredError,
                     SingularJacobianError)
from .poly_system import (DESK_SCALE_CAP, FactorPermutation,
                          InhomogeneousSystem, MixedSystem,
                          PolynomialSystem, SparseMatrix, evaluate, jacobian,
                          mixed_evaluate, mixed_jacobian)
from .svt import (InversionConfig, max_eigenvalue, min_singular_value,
                  sv_invert)

GAMMA_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# Register helpers
# ---------------------------------------------------------------------------

def _householder_map(target: np.ndarray) -> np.ndarray:
    """Symmetric orthogonal matrix sending e_0 to the given unit vector."""
    v = target / np.linalg.norm(target)
    w = v.copy()
    w[0] -= 1.0
    nw2 = float(np.dot(w, w))
    if nw2 < 1e-28:
        return np.eye(v.size)
    return np.eye(v.size) - 2.0 * np.outer(w, w) / nw2


def _householder_uniform(n: int) -> np.ndarray:
    return _householder_map(np.full(n, 1.0 / np.sqrt(n)))


def _perm_order(dims: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    return np.arange(int(np.prod(dims))).reshape(dims).transpose(axes).ravel()


def _apply_left(op: np.ndarray, mat: np.ndarray, dims: tuple[int, ...],
                axis: int) -> np.ndarray:
    """(I x .. op .. x I) @ mat, op acting on row register `axis`."""
    rows, cols = mat.shape
    t = np.moveaxis(mat.reshape(dims + (cols,)), axis, 0)
    shp = t.shape
    t = (op @ t.reshape(shp[0], -1)).reshape(shp)
    return np.moveaxis(t, 0, axis).reshape(rows, cols)


def _apply_right(mat: np.ndarray, op: np.ndarray, dims: tuple[int, ...],
                 axis: int) -> np.ndarray:
    """mat @ (I x .. op .. x I), op acting on column register `axis`."""
    rows, cols = mat.shape
    t = np.tensordot(mat.reshape((rows,) + dims), op, axes=([1 + axis], [0]))
    return np.moveaxis(t, -1, 1 + axis).reshape(rows, cols)


def _encode_matrix_auto(m: SparseMatrix,
                        ledger: CostLedger | None = None) -> BlockEncoding:
    """Sparse encoding with automatic entry rescaling folded into alpha."""
    ent = m.max_abs_entry()
    s = max(1, m.row_nnz_max(), m.col_nnz_max())
    if ent <= 1.0:
        return be_from_sparse(m, s, ledger)
    return be_rescale(be_from_sparse(m.scaled(1.0 / ent), s, ledger), ent)


def recover_vector(be_xxT: BlockEncoding,
                   sign_reference: np.ndarray | None = None) -> np.ndarray:
    """Dominant eigenvector of the encoded rank-one operator, scaled to x.

    The outer product fixes x only up to a global sign; the reference picks
    the branch with non-negative overlap.
    """
    m = be_xxT.extract()
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    lam = max(float(w[-1]), 0.0)
    x = np.sqrt(lam) * v[:, -1]
    if sign_reference is not None and float(np.dot(x, sign_reference)) < 0:
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
    """Encoding of blockdiag(M_D^1 .. M_D^n) / (p s), via per-permutation sums."""
    _require_canonical(system)
    n, p, s = system.n, system.p, system.sparsity
    d = n ** p
    parts = []
    for j in range(1, p + 1):
        q = FactorPermutation(p, n, j)
        mdj = _blockdiag([q.conjugate(a) for a in system.equations])
        parts.append(be_from_sparse(mdj, s, ledger))
    out = be_sum(parts, ledger=ledger)
    if debug_enabled():
        intended = np.zeros((n * d, n * d))
        for i in range(n):
            md = system.m_d(i).to_dense()
            intended[i * d:(i + 1) * d, i * d:(i + 1) * d] = md
        out = _share_block(out, intended=intended)
        out.verify()
    return out


def build_A_blockdiag(system: PolynomialSystem,
                      ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of blockdiag(A_1/2 .. A_n/2) / s."""
    blocks = [a.scaled(0.5) for a in system.equations]
    return be_from_sparse(_blockdiag(blocks), system.sparsity, ledger)


def build_P(be_m: BlockEncoding, be_xxT: BlockEncoding, p: int, n: int,
            ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of (I x (xx^T)^{p-1} x I) M (I x (xx^T)^{p}), alpha = p s."""
    left_factors = [be_identity(n)] + [be_xxT] * (p - 1) + [be_identity(n)]
    right_factors = [be_identity(n)] + [be_xxT] * p
    left = be_tensor(left_factors, ledger)
    right = be_tensor(right_factors, ledger)
    return be_product(left, be_product(be_m, right, ledger), ledger)


def _a_sandwich(be_a: BlockEncoding, be_xxT: BlockEncoding, n: int, p: int,
                ledger: CostLedger | None) -> BlockEncoding:
    """(I x (xx^T)^{p}) A (I x (xx^T)^{p}) for the block-diagonal value operator A."""
    tens = be_tensor([be_identity(n)] + [be_xxT] * p, ledger)
    return be_product(tens, be_product(be_a, tens, ledger), ledger)


def _reference(n: int, x_ref: np.ndarray | None,
               x: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit reference r (e_1 when x_ref is None) and gamma = r.x.

    An overlap below GAMMA_FLOOR raises DegenerateReferenceError.
    """
    if x_ref is None:
        refu = np.zeros(n)
        refu[0] = 1.0
    else:
        refu = np.asarray(x_ref, dtype=np.float64)
        if refu.shape != (n,):
            raise InputError("reference vector has wrong length")
        nrm = float(np.linalg.norm(refu))
        if nrm == 0:
            raise DegenerateReferenceError("zero reference vector")
        refu = refu / nrm
    gamma = float(np.dot(refu, x))
    if abs(gamma) < GAMMA_FLOOR:
        raise DegenerateReferenceError(f"overlap {gamma:.2e} below {GAMMA_FLOOR}")
    return refu, gamma


def _amplify_to_unit(be: BlockEncoding,
                     ledger: CostLedger | None) -> BlockEncoding:
    """Amplify toward alpha = 1 as far as the block norm leaves headroom."""
    nrm = float(np.linalg.norm(be.block, 2))
    factor = min(be.alpha, (1.0 - 1e-6) / max(nrm, 1e-300))
    return be_amplify(be, factor, ledger) if factor > 1.0 else be


def jacobian_sandwich_be(system: PolynomialSystem, be_xxT: BlockEncoding,
                         x: np.ndarray, x_ref: np.ndarray | None = None, *,
                         ledger: CostLedger | None = None
                         ) -> tuple[BlockEncoding, float]:
    """The U_m U_p construction around the P encoding of the iterate x.

    Matrix element (i, k) of the returned top-left block equals
    gamma^{2p-1} (grad f_k(x))_i / (sqrt(n) * alpha_P); with alpha = alpha_P
    the extracted matrix is gamma^{2p-1} J(x)^T / sqrt(n).
    """
    n, p = system.n, system.p
    refu, gamma = _reference(n, x_ref, x)
    be_m = build_M_blockdiag(system, ledger)
    be_p = build_P(be_m, be_xxT, p, n, ledger)
    # P's block acts on registers 0 (equation index) and 1..p (tensor factors)
    dims = (n,) * (p + 1)
    sigma1 = _perm_order(dims, (p,) + tuple(range(p - 1)) + (p - 1,))
    sigma2 = _perm_order(dims, tuple(range(1, p)) + (0, p))
    w = be_p.block[:, np.argsort(sigma1)][sigma2, :]
    w = _apply_left(_householder_uniform(n), w, dims, p - 1)
    vref = None if x_ref is None else _householder_map(refu)
    if vref is not None:
        for ax in range(p - 1):
            w = _apply_left(vref, w, dims, ax)
            w = _apply_right(w, vref, dims, ax)
        w = _apply_right(w, vref, dims, p - 1)
    intended = None
    if debug_enabled():
        intended = gamma ** (2 * p - 1) * jacobian(system, x).T / np.sqrt(n)
    out = BlockEncoding(w[:n, :n].copy(), be_p.alpha, be_p.eps, intended,
                        be_p.cost + 2.0)
    if ledger is not None:
        ledger.charge("gradient_sandwich", primitive=2.0)
    return out, gamma


def jacobian_be(system: PolynomialSystem, be_xxT: BlockEncoding,
                x: np.ndarray, x_ref: np.ndarray | None = None, *,
                ledger: CostLedger | None = None
                ) -> tuple[BlockEncoding, float]:
    """Encoding of gamma^{2p-1} J(x) / sqrt(n), amplified toward alpha = 1."""
    sand, gamma = jacobian_sandwich_be(system, be_xxT, x, x_ref, ledger=ledger)
    return _amplify_to_unit(be_transpose(sand), ledger), gamma


def rhs_be(system: PolynomialSystem, be_xxT: BlockEncoding, x: np.ndarray,
           x_ref: np.ndarray | None = None, *,
           ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of gamma^{2p-1} F(x) x^T / sqrt(n) via the A sandwich."""
    n, p = system.n, system.p
    refu, gamma = _reference(n, x_ref, x)
    be_r = _a_sandwich(build_A_blockdiag(system, ledger), be_xxT, n, p, ledger)
    # registers: 0 equation index, 1..p-1 leading x-registers, p last
    dims = (n,) * (p + 1)
    sigma3 = _perm_order(dims, (p,) + tuple(range(1, p)) + (0,))
    w = _apply_right(be_r.block, _householder_uniform(n), dims, 0)
    vref = None if x_ref is None else _householder_map(refu)
    if vref is not None:
        for ax in range(1, p):
            w = _apply_right(w, vref, dims, ax)
    w = w[sigma3, :]
    if vref is not None:
        for ax in range(p):
            w = _apply_left(vref, w, dims, ax)
    intended = None
    if debug_enabled():
        intended = (gamma ** (2 * p - 1) * np.outer(evaluate(system, x), x)
                    / np.sqrt(n))
    out = BlockEncoding(w[:n, :n].copy(), be_r.alpha, be_r.eps, intended,
                        be_r.cost + 2.0)
    if ledger is not None:
        ledger.charge("rhs_sandwich", primitive=2.0)
    return out


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
    refu, gamma = _reference(n, x_ref, x)
    ghat = gamma ** (2 * p_half - 1)
    rootn = np.sqrt(n)

    be_lin = _encode_matrix_auto(lin, led) if lin is not None else None

    j_parts = []
    if poly is not None:
        be_jnl, _ = jacobian_be(poly, state.be_xxT, x, x_ref, ledger=led)
        j_parts.append(be_jnl)
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
        r_parts.append(rhs_be(poly, state.be_xxT, x, x_ref, ledger=led))
    if be_lin is not None:
        r_parts.append(be_rescale(be_product(be_lin, state.be_xxT, led),
                                  ghat / rootn))
    if const is not None:
        outer_ref = be_outer(const, refu, led)
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

    x_next = recover_vector(out, sign_reference=x)
    if debug_enabled():
        f_eval, j_eval = system_evaluators(system)
        x_classical = x - np.linalg.solve(j_eval(x), f_eval(x))
        out = _share_block(out, intended=np.outer(x_classical, x_classical))
        out.verify()
    return NewtonState(state.k + 1, out, x_next,
                       float(np.dot(x_next, x_next)),
                       float(sigma_meas), gamma, led)


def newton_solve(system, x0: np.ndarray, t: int, cfg: InversionConfig, *,
                 gamma_reference: str = "e1",
                 ledger: CostLedger | None = None
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
    led = ledger.copy() if ledger is not None else CostLedger()
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
    values = []
    for c in cands:
        if c.shape != (n,):
            raise InputError("candidate of wrong length")
        if np.linalg.norm(c) > 1.0 + 1e-12:
            raise InputError("candidates must have norm at most 1")
        be_c = be_from_vector(c, ledger)
        op = _a_sandwich(be_a, be_c, n, p, ledger)
        sq = be_product(op, be_transpose(op), ledger)
        m2 = max_eigenvalue(sq, eps, ledger)
        nx2 = norm_estimate(be_c, eps, ledger)
        if nx2 < 1e-14:
            values.append(0.0)
        else:
            values.append(float(np.sqrt(max(m2, 0.0)) / nx2 ** p))
    best = int(np.argmin(values))
    return cands[best], values
