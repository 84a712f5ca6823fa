"""The end-to-end simulated quantum Newton iteration.

Reads the block-diagonal gradient operator M and value operator A only as
entries: the corners of the P and A sandwiches at the prepared reference
states are scatters over them.  It pseudo-inverts the scaled Jacobian and
assembles the rank-one density update

    x' x'^T = x x^T - x d^T - d x^T + d d^T,     d = J^{-1} F(x),

entirely inside the block-encoding calculus.  The overlap factor
gamma^{2p-1}/sqrt(n) carried by the Jacobian encoding cancels against the
right-hand-side encoding by construction and never needs amplification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .block_encoding import (BlockEncoding, CostLedger, _Budget, _eps_units,
                             _from_entries, _log2, _mk, _product_budget,
                             _sparse_budget, _sum_budget, _tensor_budget,
                             be_amplify, be_from_sparse, be_from_vector,
                             be_of_matrix, be_outer, be_product, be_rescale,
                             be_sum, be_tensor, be_transpose, debug_enabled)
from .errors import (CompositionError, ConditioningError,
                     DegenerateReferenceError, DeskScaleError, InputError,
                     InvariantViolationError, RescaleRequiredError,
                     SingularJacobianError)
from .poly_system import (DESK_SCALE_CAP, PolynomialSystem, SparseMatrix,
                          _norm_above, contract_blocks, evaluate, jacobian,
                          system_evaluators, system_parts, tensor_power)
from .svt import (InversionConfig, max_eigenvalue, min_singular_value,
                  sv_invert)

GAMMA_FLOOR = 1e-4


# ---------------------------------------------------------------------------
# Encoding helpers
# ---------------------------------------------------------------------------

def _encode_matrix_auto(m: SparseMatrix,
                        ledger: CostLedger | None = None) -> BlockEncoding:
    """Sparse encoding with automatic entry rescaling folded into alpha."""
    ent = m.max_abs_entry()
    s = max(1, m.sparsity())
    if ent <= 1.0:
        return be_from_sparse(m, s, ledger)
    return be_rescale(be_from_sparse(m.scaled(1.0 / ent), s, ledger), ent)


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

def _m_budget(system: PolynomialSystem, ledger: CostLedger | None) -> _Budget:
    """Budget and charges of M's encoding: those of the sum of the p sparse
    encodings of blockdiag(Q_j A_i Q_j), each with the entries and row and
    column counts of blockdiag(A_i), which are checked as theirs."""
    if system.p * system.max_norm() > np.sqrt(system.n) + 1e-9:
        raise RescaleRequiredError(
            "p * max ||A_i|| exceeds sqrt(n); canonicalize first")
    return _sum_budget([_sparse_budget(system.a_blockdiag, system.sparsity,
                                       ledger) for _ in range(system.p)], ledger)


def build_M_blockdiag(system: PolynomialSystem,
                      ledger: CostLedger | None = None) -> BlockEncoding:
    """Dense encoding of the system's merged M = blockdiag(M_D^1 .. M_D^n)
    / (p s).  A Newton step builds it only to verify it under QNLS_DEBUG=1."""
    return _from_entries(system.m_blockdiag, _m_budget(system, ledger))


def build_A_blockdiag(system: PolynomialSystem,
                      ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the system's blockdiag(A_1 .. A_n), scaled by 1/2, / s."""
    return be_from_sparse(system.a_blockdiag.scaled(0.5), system.sparsity, ledger)


def _sandwich(corner: np.ndarray, mid, be_xxT: BlockEncoding, p: int, k: int,
              ledger: CostLedger | None, intended: np.ndarray | None,
              label: str) -> BlockEncoding:
    """Encoding of the n x n corner, read off Mid's entries, of L Mid R at
    the prepared states, L = I x (xx^T)^{k} x I^{p-k}, R = I x (xx^T)^{p}.
    Budget and charges are those of L (Mid R) for Mid's budget, L = R when
    k = p, plus 2 cost and the label's 2 primitive ops."""
    eye = _Budget(1.0, 0.0, 1.0)          # an exact identity register
    lb = _tensor_budget([eye] + [be_xxT] * k + [eye] * (p - k), ledger)
    rb = lb if k == p else _tensor_budget([eye] + [be_xxT] * p, ledger)
    b = _product_budget(lb, _product_budget(mid, rb, ledger), ledger)
    out = _mk(corner, b.alpha, b.eps, intended, b.cost + 2.0)
    if ledger is not None:
        ledger.charge(label, primitive=2.0)
    return out


def build_P(be_m: BlockEncoding, be_xxT: BlockEncoding, p: int,
            ledger: CostLedger | None = None) -> BlockEncoding:
    """(I x (xx^T)^{p-1} x I) M (I x (xx^T)^{p}) by the calculus, alpha = p s."""
    eye = be_of_matrix(np.eye(be_xxT.logical_dim))
    left = be_tensor([eye] + [be_xxT] * (p - 1) + [eye], ledger)
    right = be_tensor([eye] + [be_xxT] * p, ledger)
    return be_product(left, be_product(be_m, right, ledger), ledger)


class StepFrame:
    """One Newton step's frame at the iterate x: the unit reference r (e_1
    when x_ref is None) and gamma = r.x (an overlap below GAMMA_FLOOR, or a
    zero or non-finite reference, raises DegenerateReferenceError before any
    division)."""

    def __init__(self, x: np.ndarray, x_ref: np.ndarray | None = None):
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
        self.x, self.refu, self.gamma = x, refu, gamma

    def states(self, b: np.ndarray):
        """B r and B^T r for the reference r, since (I x B^{k} x I)(e_j x
        r^{p}) = e_j x (B r)^{k} x r^{p-k}; the uniform state u is 1/sqrt(n)."""
        r = self.refu
        return b @ r, b.T @ r


def _amplify_to_unit(be: BlockEncoding,
                     ledger: CostLedger | None) -> BlockEncoding:
    """Amplify toward alpha = 1 as far as the block norm leaves headroom; the
    norm is asked only above (1 - 1e-6) / alpha less 1e-12 relative."""
    nrm = _norm_above(be.block, (1.0 - 1e-6) / be.alpha * (1.0 - 1e-12))
    factor = be.alpha if nrm is None else min(be.alpha, (1.0 - 1e-6) / nrm)
    return be_amplify(be, factor, ledger) if factor > 1.0 else be


def jacobian_sandwich_be(system: PolynomialSystem, be_xxT: BlockEncoding,
                         frame: StepFrame, *,
                         ledger: CostLedger | None = None) -> BlockEncoding:
    """The U_m U_p construction around the P encoding of the iterate frame.x.

    The corner (u x (B^T r)^{p-1} x I)^T M (I x (B r)^{p}) is the Jacobian's
    scatter at (B^T r, B r), transposed and divided by sqrt(n) alpha_M.  Its
    element (i, k) is gamma^{2p-1} (grad f_k(x))_i / (sqrt(n) alpha_P): the
    extracted matrix is gamma^{2p-1} J(x)^T / sqrt(n), gamma = frame.gamma."""
    n, p, x = system.n, system.p, frame.x
    m = (build_M_blockdiag if debug_enabled() else _m_budget)(system, ledger)
    br, btr = frame.states(be_xxT.block)
    jac = contract_blocks(system.m_blockdiag, tensor_power(btr, p - 1),
                          tensor_power(br, p))
    intended = (frame.gamma ** (2 * p - 1) * jacobian(system, x).T / np.sqrt(n)
                if debug_enabled() else None)
    return _sandwich(jac.T / (np.sqrt(n) * m.alpha), m, be_xxT, p, p - 1,
                     ledger, intended, "gradient_sandwich")


def jacobian_be(system: PolynomialSystem, be_xxT: BlockEncoding,
                frame: StepFrame, *,
                ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of gamma^{2p-1} J(x) / sqrt(n), amplified toward alpha = 1."""
    sand = jacobian_sandwich_be(system, be_xxT, frame, ledger=ledger)
    return _amplify_to_unit(be_transpose(sand), ledger)


def rhs_be(system: PolynomialSystem, be_xxT: BlockEncoding, frame: StepFrame,
           *, ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of gamma^{2p-1} F(x) x^T / sqrt(n) via the A sandwich.  The
    corner (I x (B^T r)^{p})^T A (u x (B r)^{p-1} x B) is S B / (sqrt(n)
    alpha_A), S the scatter of F with A's last column factor left open,
    which the contraction reads on A's rows, as A is symmetric."""
    n, p, x, b = system.n, system.p, frame.x, be_xxT.block
    a = (be_from_sparse if debug_enabled() else _sparse_budget)(
        system.a_blockdiag.scaled(0.5), system.sparsity, ledger)
    br, btr = frame.states(b)
    half_s = 0.5 * contract_blocks(system.a_blockdiag, tensor_power(br, p - 1),
                                   tensor_power(btr, p))
    intended = (frame.gamma ** (2 * p - 1) * np.outer(evaluate(system, x), x)
                / np.sqrt(n) if debug_enabled() else None)
    return _sandwich(half_s @ b / (np.sqrt(n) * a.alpha), a, be_xxT, p, p,
                     ledger, intended, "rhs_sandwich")


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


def newton_step(system, state: NewtonState, cfg: InversionConfig, *,
                x_ref: np.ndarray | None = None) -> NewtonState:
    """One density-matrix Newton update built from the calculus.

    All four terms enter the uniform sum scaled by the inversion threshold
    (the *-scaled pseudoinverse makes the gamma and sqrt(n) factors cancel);
    the sum is then rescaled back and re-amplified so the next state again
    carries x x^T at alpha ~ 1.
    """
    led = state.ledger.copy()
    poly, lin, const = system_parts(system)
    if poly is None and lin is None:
        raise SingularJacobianError("the system has no linear or nonlinear "
                                    "part: its Jacobian is zero")
    n = system.n
    p_half = poly.p if poly is not None else 1
    floor = cfg.sigma_floor
    nx2 = norm_estimate(state.be_xxT, cfg.eps, led)
    x = state.x
    frame = StepFrame(x, x_ref)
    gamma = frame.gamma
    ghat = gamma ** (2 * p_half - 1)
    rootn = np.sqrt(n)

    be_lin = _encode_matrix_auto(lin, led) if lin is not None else None

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
    poly = system_parts(system)[0]
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


def init_heuristic(system: PolynomialSystem, candidates,
                   ledger: CostLedger | None = None
                   ) -> tuple[np.ndarray, list[float]]:
    """Pick the candidate with the smallest max_i |f_i| residual.

    Each candidate is scored through the block-diagonal value operator:
    the squared operator is PSD, its largest eigenvalue is
    (max_i |f_i(x)| * |x|^{2p})^2, and the norm-estimate power divides the
    |x|^{2p} factor back out.  Both eigenvalue estimates run at eps 1e-6.
    """
    cands = [np.asarray(c, dtype=np.float64) for c in candidates]
    if not cands:
        raise InputError("need at least one candidate")
    n, p = system.n, system.p
    be_a = build_A_blockdiag(system, ledger)
    eye = be_of_matrix(np.eye(n))
    values = []
    for c in cands:
        if c.shape != (n,):
            raise InputError("candidate of wrong length")
        if np.linalg.norm(c) > 1.0 + 1e-12:
            raise InputError("candidates must have norm at most 1")
        be_c = be_from_vector(c, ledger)
        tens = be_tensor([eye] + [be_c] * p, ledger)
        op = be_product(tens, be_product(be_a, tens, ledger), ledger)
        sq = be_product(op, be_transpose(op), ledger)
        m2 = max_eigenvalue(sq, 1e-6, ledger)
        nx2 = norm_estimate(be_c, 1e-6, ledger)
        if nx2 < 1e-14:
            values.append(0.0)
        else:
            values.append(float(np.sqrt(max(m2, 0.0)) / nx2 ** p))
    best = int(np.argmin(values))
    return cands[best], values
