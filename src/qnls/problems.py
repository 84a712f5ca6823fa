"""Problem generators: Lotka-Volterra, Gross-Pitaevskii, random systems.

Generated systems use rescaled variables so the expected root sits well
inside the unit ball (the solver pipeline requires ||x|| <= 1), and every
equation row is normalized to meet the encoding bounds.  The rescaling is
diagonal and root-preserving; helpers return matching initial guesses and,
for Lotka-Volterra, the exact forward-Euler root in scaled coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .poly_system import (Monomial, MixedSystem, PolynomialSystem,
                          SparseMatrix, canonicalize, canonicalize_mixed,
                          capped_dim, monomials_to_matrix,
                          symmetrized_system)

GPE_AUX_VALUE = 0.5          # pinned value of the homogenization variable
_TARGET_ROOT_NORM = 0.45     # scaled solution norm aimed for by auto-scaling


@dataclass(frozen=True)
class LvParams:
    """Euler-discretized predator-prey chain of `steps` time points."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    dt: float
    steps: int
    v0: float
    p0: float
    scale: float | None = None    # variable scale; None = auto from the root

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, self.delta,
                self.dt, self.v0, self.p0,
                1.0 if self.scale is None else self.scale)
        if not all(np.isfinite(v) for v in vals):
            raise InputError("parameters must be finite")
        if self.steps < 1:
            raise InputError("steps must be >= 1")


@dataclass(frozen=True)
class GpeParams:
    """One Crank-Nicolson time step of the 1-d Gross-Pitaevskii equation."""

    nx: int
    hbar2_over_2m: float
    g: float
    potential: np.ndarray
    dt: float
    dx: float
    psi_prev: np.ndarray
    scale: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "potential",
                           np.asarray(self.potential, dtype=np.float64))
        object.__setattr__(self, "psi_prev",
                           np.asarray(self.psi_prev, dtype=np.complex128))
        if self.nx < 3:
            raise InputError("nx must be at least 3")
        if not all(np.all(np.isfinite(v)) for v in (
                self.dt, self.dx, self.hbar2_over_2m, self.g,
                self.potential, self.psi_prev,
                1.0 if self.scale is None else self.scale)):
            raise InputError("parameters must be finite")
        if self.dt <= 0 or self.dx <= 0:
            raise InputError("dt and dx must be positive")
        if self.potential.shape != (self.nx,):
            raise InputError("potential must have nx entries")
        if self.psi_prev.shape != (self.nx,):
            raise InputError("psi_prev must have nx entries")


def _variable_scale(scale: float | None, root: np.ndarray) -> float:
    """The given variable scale, or one that puts root at norm _TARGET_ROOT_NORM."""
    if scale is not None:
        if scale <= 0:
            raise InputError("scale must be positive")
        return scale
    return max(float(np.linalg.norm(root)) / _TARGET_ROOT_NORM, 1e-6)


# ---------------------------------------------------------------------------
# Lotka-Volterra
# ---------------------------------------------------------------------------

def lv_forward_orbit(params: LvParams) -> np.ndarray:
    """Exact root in physical units: the explicit Euler orbit (V_t, P_t)."""
    v, p = params.v0, params.p0
    vs, ps = [], []
    for _ in range(params.steps):
        v, p = (v + params.dt * (params.alpha * v - params.beta * v * p),
                p + params.dt * (-params.gamma * p + params.delta * v * p))
        vs.append(v)
        ps.append(p)
    return np.array(vs + ps)


def lv_scale(params: LvParams) -> float:
    return _variable_scale(params.scale, lv_forward_orbit(params))


def lv_discretize(params: LvParams) -> MixedSystem:
    """MixedSystem over 2*steps scaled variables (v_1..v_T, p_1..p_T).

    Equations (divided through by the variable scale L, with V = L v):
        v_{t+1} - v_t - dt*(alpha v_t - beta L v_t p_t) = 0
        p_{t+1} - p_t - dt*(-gamma p_t + delta L v_t p_t) = 0
    The t = 0 terms involve only the known densities v0, p0 and fold into
    the constants.
    """
    size = params.steps
    n = 2 * size
    lam = lv_scale(params)
    iv = lambda t: t - 1            # index of v_t, t = 1..steps
    ip = lambda t: size + t - 1     # index of p_t
    b = np.zeros(n)
    lin: list[tuple[int, int, float]] = []
    quads: list[list[Monomial]] = [[] for _ in range(n)]
    v0s, p0s = params.v0 / lam, params.p0 / lam
    for t in range(params.steps):
        eq_v, eq_p = iv(t + 1), ip(t + 1)
        lin.append((eq_v, iv(t + 1), 1.0))
        lin.append((eq_p, ip(t + 1), 1.0))
        if t == 0:
            b[eq_v] += -v0s - params.dt * params.alpha * v0s \
                + params.dt * params.beta * lam * v0s * p0s
            b[eq_p] += -p0s + params.dt * params.gamma * p0s \
                - params.dt * params.delta * lam * v0s * p0s
        else:
            lin.append((eq_v, iv(t), -1.0 - params.dt * params.alpha))
            lin.append((eq_p, ip(t), -1.0 + params.dt * params.gamma))
            vp = _mono(n, {iv(t): 1, ip(t): 1})
            quads[eq_v].append((params.dt * params.beta * lam, vp))
            quads[eq_p].append((-params.dt * params.delta * lam, vp))

    nonlinear = symmetrized_system(
        n, 1, [monomials_to_matrix(n, 1, q) for q in quads])
    # with no quadratic entries MixedSystem stores no nonlinear part
    ms = MixedSystem(n, b, SparseMatrix.from_entries(n, n, lin), nonlinear)
    ms, _ = canonicalize_mixed(ms)
    return ms


def lv_scaled_root(params: LvParams) -> np.ndarray:
    return lv_forward_orbit(params) / lv_scale(params)


def lv_default_guess(params: LvParams) -> np.ndarray:
    """Constant trajectory (v0, p0 repeated), in scaled coordinates."""
    lam = lv_scale(params)
    return np.concatenate([np.full(params.steps, params.v0),
                           np.full(params.steps, params.p0)]) / lam


# ---------------------------------------------------------------------------
# Gross-Pitaevskii (Crank-Nicolson, one time step)
# ---------------------------------------------------------------------------

def gpe_scale(params: GpeParams) -> float:
    return _variable_scale(params.scale, np.concatenate(
        [params.psi_prev.real, params.psi_prev.imag]))


def gpe_discretize(params: GpeParams) -> MixedSystem:
    """MixedSystem for one Crank-Nicolson step with Dirichlet zero walls.

    Unknowns are Re psi_j and Im psi_j of the new time slice (scaled), plus,
    when g != 0, one auxiliary variable mu pinned by mu^4 = const.  The
    step's constant and linear data (time difference, Laplacian, potential,
    known-psi terms) stay in the linear part; only the cubic |psi|^2 psi
    contribution is lifted to even degree by one power of mu.  On the
    mu > 0 branch the roots reproduce the discretized equation exactly.
    """
    nx = params.nx
    lam = gpe_scale(params)
    g = params.g
    has_cubic = g != 0.0
    n = 2 * nx + (1 if has_cubic else 0)
    idx_u = lambda j: j             # Re psi_j, j = 0..nx-1
    idx_w = lambda j: nx + j        # Im psi_j
    idx_m = 2 * nx                  # auxiliary variable (cubic lift)
    kin = params.hbar2_over_2m / (2.0 * params.dx ** 2)   # hbar^2 / (4 m dx^2)
    a_prev = params.psi_prev.real
    b_prev = params.psi_prev.imag
    abs2_prev = np.abs(params.psi_prev) ** 2

    def lap(vec: np.ndarray, j: int) -> float:
        left = vec[j - 1] if j > 0 else 0.0
        right = vec[j + 1] if j < nx - 1 else 0.0
        return left - 2.0 * vec[j] + right

    b = np.zeros(n)
    lin: list[tuple[int, int, float]] = []
    cubics: dict[int, list[Monomial]] = {}

    coef = 0.5 * g * lam * lam / GPE_AUX_VALUE
    for j in range(nx):
        # the real row (sign 1) and the imaginary row (sign -1) of own part
        # S = U, W with other part O = W, U and previous slice s, o:
        #   -sign (O_j - o_j)/dt + kin*(Lap S + Lap s) + V_j (S_j + s_j)/2
        #   + g/2 (|psi'|^2 + |psi|^2) S_j
        for eq, other, own_prev, other_prev, sign in (
                (idx_u(j), idx_w(j), a_prev, b_prev, 1.0),
                (idx_w(j), idx_u(j), b_prev, a_prev, -1.0)):
            b[eq] += sign * other_prev[j] / params.dt / lam \
                + kin * lap(own_prev, j) / lam \
                + 0.5 * params.potential[j] * own_prev[j] / lam
            lin.append((eq, other, -sign / params.dt))
            lin.append((eq, eq, -2.0 * kin + 0.5 * params.potential[j]
                        + 0.5 * g * abs2_prev[j]))
            if j > 0:
                lin.append((eq, eq - 1, kin))
            if j < nx - 1:
                lin.append((eq, eq + 1, kin))
            if has_cubic:
                # g/2 (S^2 + O^2) S -> lifted by mu / GPE_AUX_VALUE
                cubics[eq] = [(coef, _mono(n, {eq: 3, idx_m: 1})),
                              (coef, _mono(n, {eq: 1, other: 2, idx_m: 1}))]

    nonlinear = None
    if has_cubic:
        # auxiliary pin: mu^4 - GPE_AUX_VALUE^4 = 0
        b[idx_m] = -GPE_AUX_VALUE ** 4
        cubics[idx_m] = [(1.0, _mono(n, {idx_m: 4}))]
        nonlinear = symmetrized_system(
            n, 2, [monomials_to_matrix(n, 2, cubics.get(eq, [])) for eq in range(n)])
    ms = MixedSystem(n, b, SparseMatrix.from_entries(n, n, lin), nonlinear)
    ms, _ = canonicalize_mixed(ms)
    return ms


def _mono(nvars: int, powers: dict[int, int]) -> tuple[int, ...]:
    out = [0] * nvars
    for var, e in powers.items():
        out[var] += e
    return tuple(out)


def gpe_default_guess(params: GpeParams) -> np.ndarray:
    """Previous slice as the guess for the new one (scaled), mu at its pin."""
    lam = gpe_scale(params)
    head = np.concatenate([params.psi_prev.real, params.psi_prev.imag]) / lam
    if params.g != 0.0:
        return np.concatenate([head, [GPE_AUX_VALUE]])
    return head


# ---------------------------------------------------------------------------
# Random homogeneous systems
# ---------------------------------------------------------------------------

def random_system(n: int, p: int, s: int, seed: int) -> PolynomialSystem:
    """Seeded random s-sparse symmetric system, canonically rescaled."""
    if n <= 0 or p <= 0 or s <= 0:
        raise InputError("n, p, s must be positive")
    d = capped_dim(n, p)
    rng = np.random.default_rng(seed)
    budget = max(1, s // 2)
    eqs = []
    for _ in range(n):
        row_count = np.zeros(d, dtype=np.int64)
        entries: dict[tuple[int, int], float] = {}
        for r in range(d):
            picks = rng.integers(r, d, size=budget)
            for c in set(int(c) for c in picks):
                extra = 1 if c != r else 0
                if row_count[r] + 1 > s or row_count[c] + extra > s:
                    continue
                entries[(r, c)] = float(rng.uniform(-1.0, 1.0))
                row_count[r] += 1
                if c != r:
                    row_count[c] += 1
        coo = []
        for (r, c), v in entries.items():
            coo.append((r, c, v))
            if r != c:
                coo.append((c, r, v))
        eqs.append(SparseMatrix.from_entries(d, d, coo))
    system = PolynomialSystem(n, p, s, tuple(eqs))
    system, _ = canonicalize(system)
    return system
