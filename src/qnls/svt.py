"""Singular value transformation on block encodings.

Pseudoinversion with a spectral threshold (exact SVD backend and an odd
polynomial backend approximating 0.75*sigma/x, whose 4/3 goes into the
output alpha), plus extremal eigenvalue and singular value estimation with
the matching symbolic cost charges.

The polynomial's degree is searched in doubling rounds d -> 2d + 1.  Inside
a round, a secant on log(minimax deviation) against the degree predicts the
smallest passing odd degree, and the search visits only the degrees that
confirm it: it ends on a passing fit at d above a failing degree d - 2.
A fit is the settled Remez exchange of `_minimax_fit` where the unit cap
does not bind, and an LP otherwise; `_failure_floor` uses the same exchange
to prove a degree fails without fitting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .block_encoding import (BlockEncoding, CostLedger, _eps_units, _log2,
                             _mk, _norm_above, be_product, be_transpose,
                             debug_enabled)
from .errors import ConditioningError, ConfigError, InputError

_LP_DEGREE_CAP = 1200      # practical cap of the LP-based minimax builder
_HERMITIAN_TOL = 1e-9
_UNIT_CAP = 1.0 - 1e-9     # the fit's bound on |q| over its cap grid
_REMEZ_EXCHANGES = 12      # exchange steps before `_remez_exchange` gives up


@dataclass(frozen=True)
class InversionConfig:
    """Threshold sigma, target eps and backend for pseudoinversion."""

    sigma_floor: float
    eps: float = 1e-6
    backend: str = "exact"

    def __post_init__(self):
        if not (0.0 < self.sigma_floor < 1.0):
            raise InputError("sigma_floor must lie in (0, 1)")
        if not 0.0 < self.eps < np.inf:
            raise InputError("eps must be positive and finite")
        if self.backend not in ("exact", "poly"):
            raise InputError(f"unknown backend {self.backend!r}")


@dataclass(frozen=True, eq=False)
class OddPolynomial:
    """Odd Chebyshev-basis polynomial, bounded by 1 on [-1, 1]."""

    cheb_coeffs: np.ndarray

    def __post_init__(self):
        # a copy: the search memo hands this polynomial to every caller
        c = np.array(self.cheb_coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size == 0:
            raise InputError("need a 1-d coefficient array")
        if np.any(c[0::2] != 0.0):
            raise InputError("even-index Chebyshev coefficients must vanish")
        c.flags.writeable = False
        object.__setattr__(self, "cheb_coeffs", c)

    @property
    def degree(self) -> int:
        nz = np.nonzero(self.cheb_coeffs)[0]
        return int(nz[-1]) if nz.size else 0

    def __call__(self, x):
        return chebyshev.chebval(x, self.cheb_coeffs)


def _fit_grids(sigma: float, degree: int,
               shrink: float) -> tuple[np.ndarray, ...]:
    """The minimax fit's grids: max(600, 4*degree) Chebyshev nodes xs of
    [sigma, 1] (decreasing), the target shrink*sigma/xs, the odd Chebyshev
    columns at xs, and the same columns at as many points of (0, 1] for the
    unit cap."""
    ks = np.arange(1, degree + 1, 2)
    m_fit = max(600, 4 * degree)
    nodes = np.cos(np.pi * (np.arange(m_fit) + 0.5) / m_fit)
    xs = 0.5 * (sigma + 1.0) + 0.5 * (1.0 - sigma) * nodes
    ys = np.linspace(0.0, 1.0, m_fit + 1)[1:]
    return (xs, shrink * sigma / xs, chebyshev.chebvander(xs, degree)[:, ks],
            chebyshev.chebvander(ys, degree)[:, ks])


def _remez_exchange(sigma: float, grids: tuple[np.ndarray, ...]
                    ) -> tuple[np.ndarray, float, bool] | None:
    """Discrete Remez exchange for the odd Chebyshev basis on the fit grid.

    Odd polynomials on [sigma, 1], sigma > 0, form a Haar system (Descartes'
    rule of signs), so by de la Vallee Poussin every odd polynomial of the
    degree deviates on the fit grid by at least the floor min |target - p|
    over n + 1 grid points where the error of any one such p alternates in
    sign (n = (degree + 1)/2 coefficients).  The exchange starts from the
    grid points nearest the Chebyshev extrema in x^2 of [sigma^2, 1], levels
    the error on the reference, and moves the reference to n + 1
    alternating error peaks that include the largest.  Once p's sup
    deviation on the grid is within 1e-9 relative of the floor, it returns
    p's odd-index coefficients, the floor and whether p meets the unit cap
    on the cap grid; an exchange that does not settle, or a reference the
    solve cannot level, gives None.
    """
    xs, target, phi_fit, phi_cap = grids
    n = phi_fit.shape[1]
    t = 0.5 * (1.0 + sigma ** 2) + 0.5 * (1.0 - sigma ** 2) * np.cos(
        np.pi * np.arange(n + 1) / n)
    ref = np.unique(np.abs(xs[:, None] - np.sqrt(t)).argmin(axis=0))
    signs = (-1.0) ** np.arange(n + 1)
    for _ in range(_REMEZ_EXCHANGES):
        if ref.size != n + 1:
            return None
        try:
            sol = np.linalg.solve(np.column_stack([phi_fit[ref], signs]),
                                  target[ref])
        except np.linalg.LinAlgError:
            return None
        err = target - phi_fit @ sol[:-1]
        # the largest |err| of each run of one sign: the alternating peaks
        size, flip = np.abs(err), np.r_[True, np.diff(err >= 0.0)]
        peaks = np.lexsort((-size, np.cumsum(flip)))[np.flatnonzero(flip)]
        if peaks.size < n + 1:
            return None
        # the n + 1 consecutive peaks with the largest floor, the top among them
        top = int(np.argmax(size[peaks]))
        lows = np.lib.stride_tricks.sliding_window_view(size[peaks], n + 1).min(1)
        first = max(0, top - n) + int(np.argmax(lows[max(0, top - n):top + 1]))
        ref = peaks[first:first + n + 1]
        floor = float(lows[first])
        if size[peaks[top]] <= floor * (1.0 + 1e-9):
            cap_ok = np.max(np.abs(phi_cap @ sol[:-1])) <= _UNIT_CAP
            return sol[:-1], floor, bool(cap_ok)
    return None


def _minimax_fit(sigma: float, degree: int,
                 shrink: float = 1.0) -> tuple[np.ndarray, float]:
    """Best odd-Chebyshev fit to shrink*sigma/x on [sigma, 1], |q| <= 1 on [0, 1].

    The fit minimizes the sup deviation on the fit grid subject to the unit
    cap on the cap grid.  Odd polynomials form a Haar system on [sigma, 1],
    so the uncapped discrete minimax fit is unique: a settled
    `_remez_exchange` whose polynomial meets the cap is the optimum and is
    returned without an LP.  Otherwise `_lp_fit` solves the LP.  Either way
    the deviation returned is the one the coefficients reach on the fit grid.
    """
    grids = _fit_grids(sigma, degree, shrink)
    levelled = _remez_exchange(sigma, grids)
    odd = (levelled[0] if levelled is not None and levelled[2]
           else _lp_fit(grids, degree))
    _, target, phi_fit, _ = grids
    coeffs = np.zeros(degree + 1)
    coeffs[1::2] = odd
    # the deviation the coefficients reach on the fit grid, not the LP's t:
    # HiGHS meets each row only to 1e-7, so t can read 0 for a fit that misses
    return coeffs, float(np.max(np.abs(phi_fit @ odd - target)))


def _lp_fit(grids: tuple[np.ndarray, ...], degree: int) -> np.ndarray:
    """Odd-index coefficients of the capped minimax LP's optimum."""
    from scipy.optimize import linprog     # loaded by cap-bound fits only
    _, target, phi_fit, phi_cap = grids
    m, k = phi_fit.shape                    # the cap grid has m points too
    cvec = np.zeros(k + 1)                  # coefficients + deviation bound t
    cvec[-1] = 1.0
    ones, zeros = np.ones((m, 1)), np.zeros((m, 1))
    a_ub = np.vstack([
        np.hstack([phi_fit, -ones]),
        np.hstack([-phi_fit, -ones]),
        np.hstack([phi_cap, zeros]),
        np.hstack([-phi_cap, zeros]),
    ])
    b_ub = np.concatenate([target, -target, np.full(2 * m, _UNIT_CAP)])
    res = linprog(cvec, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * k + [(0, None)],
                  method="highs")
    if not res.success:
        raise ConfigError(f"minimax LP failed at degree {degree}: {res.message}")
    return res.x[:-1]


def _failure_floor(sigma: float, degree: int, shrink: float,
                   eps: float) -> float | None:
    """The minimax fit's deviation at this degree when a settled
    `_remez_exchange` proves it above eps; None otherwise.

    The floor stands for the fit only when the exchange's polynomial meets
    the unit cap (then it is `_minimax_fit`'s fit, see there) and the floor
    exceeds eps by 2 (degree + 1) degree^2 2^-53: the rounding of two
    evaluations on the grid of n coefficients at most 2 each (both
    polynomials meet the unit cap) against Chebyshev columns with
    recurrence errors of degree^2 ulps.
    """
    levelled = _remez_exchange(sigma, _fit_grids(sigma, degree, shrink))
    if levelled is None:
        return None
    _, floor, cap_ok = levelled
    margin = 2.0 * (degree + 1) * degree ** 2 * 2.0 ** -53
    return floor if floor > eps + margin and cap_ok else None


def _log_secant(lower: tuple[int, float], upper: tuple[int, float],
                eps: float) -> float | None:
    """Degree where the line through two fits in (degree, log deviation)
    meets log eps, or None when the deviation does not fall between them."""
    (d0, dev0), (d1, dev1) = lower, upper
    if not 0.0 < dev1 < dev0:
        return None
    slope = (np.log(dev1) - np.log(dev0)) / (d1 - d0)
    return d1 + (np.log(eps) - np.log(dev1)) / slope


@lru_cache(maxsize=64)
def _search_inverse_poly(sigma: float, eps: float, shrink: float,
                         degree_cap: int) -> OddPolynomial | None:
    """Smallest passing odd degree of the first doubling round that has one.

    The rounds double the degree d -> 2d + 1 from max(3, 1/sigma) up to
    degree_cap, which the caller keeps within the LP cap; a round's bracket
    runs from the previous round's failing doubling degree (1 in the first
    round) to its own.  The minimax deviation falls about geometrically in
    the degree (the log(1/eps)/sigma scale of `degree_budget`), so each fit
    goes to the odd ceiling of the degree where log(deviation), drawn as a
    straight line, crosses log(eps):
    - no passing fit in the round yet: extrapolated from the last two
      failing fits, capped at the round's doubling degree, which is fitted
      when the guess reaches it or when no two failing fits show a decrease;
    - a passing fit: interpolated between it and the highest failing fit,
      or the degree just below the pass when the line predicts the pass.
    The bisection midpoint replaces a guess that is missing or not above
    the highest failing degree.  A degree that `_failure_floor` proves
    failing is not fitted: its floor, the deviation the fit would report,
    is recorded as the failing deviation.  The search stops at a passing
    fit at d with a failing degree d - 2: the smallest passing degree of
    the bracket when the deviation falls monotonically in the degree.
    """
    top = max(3, int(np.ceil(1.0 / sigma))) | 1   # the round's doubling degree
    lo = 1                # highest failing degree; degree 1 is never fitted
    fails: list[tuple[int, float]] = []   # failing (degree, deviation)
    best = None           # lowest passing (degree, deviation, coefficients)
    while best is None or best[0] - lo > 2:
        if best is None:
            if top > degree_cap:
                return None
            hi = ceiling = top
            guess = _log_secant(*fails[-2:], eps) if len(fails) >= 2 else None
            if guess is None:
                guess = top
        else:
            hi, ceiling = best[0], best[0] - 2
            guess = _log_secant(fails[-1], best[:2], eps) if fails else None
        d = None if guess is None else int(np.ceil(min(guess, ceiling))) | 1
        if d is None or d <= lo:
            d = (lo + hi) // 2 | 1          # bisection safeguard
        dev = _failure_floor(sigma, d, shrink, eps)    # above eps, or None
        if dev is None:
            coeffs, dev = _minimax_fit(sigma, d, shrink)
        if dev <= eps:
            best = (d, dev, coeffs)
        else:
            fails.append((d, dev))
            lo = d
            if d == top:
                top = 2 * top + 1
    return OddPolynomial(best[2])


def degree_budget(sigma: float, eps: float) -> float:
    """(1/sigma) * log2(1/(sigma eps)), the inversion Lemma's degree scale."""
    return (1.0 / sigma) * _log2(1.0 / (sigma * _eps_units(eps)))


_HEADROOM = 0.75


def backend_inverse_poly(sigma: float, eps: float) -> tuple[OddPolynomial, float]:
    """Odd q of the poly backend, with its headroom h = 0.75.

    The fit targets 0.75*sigma/x, not the saturated sigma/x whose value 1
    at the threshold collides with the unit sup-norm cap; the output
    subnormalization absorbs the 4/3.  The minimax fit, settled by the
    Remez exchange or by the LP, meets |q(x)/h - sigma/x| <= eps and
    |q| <= 1 - 1e-9 only at its grid points (see _minimax_fit),
    so between them q can exceed both by a small fraction: the degree-229
    polynomial for sigma 0.025, eps 3e-2/9 is 1.3 % over eps off the grid.
    """
    InversionConfig(sigma, eps, "poly")          # range-checks sigma and eps
    cap = min(max(int(np.ceil(4.0 * degree_budget(sigma, eps))), 3),
              _LP_DEGREE_CAP)
    q = _search_inverse_poly(float(sigma), float(_HEADROOM * eps),
                             _HEADROOM, cap)
    if q is None:
        raise ConfigError(
            f"inverse polynomial for sigma={sigma:.3g}, eps={eps:.3g} needs "
            f"degree beyond the search cap {cap} (4 x "
            f"degree_budget, at most the LP cap {_LP_DEGREE_CAP}); raise "
            "sigma_floor or eps, or use the exact backend")
    return q, _HEADROOM


def sv_invert(be: BlockEncoding, cfg: InversionConfig,
              ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the sigma-scaled pseudoinverse of the normalized block.

    The input block B = extract()/alpha must have its spectrum in
    [sigma, 1] up to a hard cutoff at sigma/2 below which singular values
    are treated as exact zeros.  Output block = sigma * B^+ (alpha = 1), so
    chaining with the caller's own alpha bookkeeping reproduces the
    sqrt(n)/gamma^{2p-1}-normalized inverse where needed.
    """
    b = be.block
    if b.shape[0] != b.shape[1]:
        raise InputError("inversion needs a square block")
    sigma = cfg.sigma_floor
    u, s, vh = np.linalg.svd(b)
    alive = s >= 0.5 * sigma
    if np.any(s[alive] < sigma * (1.0 - 1e-6)):
        worst = float(s[alive].min())
        raise ConditioningError(
            f"singular value {worst:.3e} in the dead band [sigma/2, sigma); "
            f"condition exceeds 1/sigma = {1.0 / sigma:.3e}")
    g_exact = np.where(alive, np.clip(sigma / np.maximum(s, 1e-300), 0.0, 1.0),
                       0.0)
    alpha_out = 1.0
    g = g_exact
    polynomial = cfg.backend == "poly"
    if polynomial:
        q, headroom = backend_inverse_poly(sigma, cfg.eps)
        g = np.where(alive, np.asarray(q(s), dtype=np.float64), 0.0)
        alpha_out = 1.0 / headroom
        if ledger is not None:
            ledger.charge("inverse_poly_degree", note=float(q.degree))
    out_block = (vh.conj().T * g) @ u.conj().T
    charge = be.cost * degree_budget(sigma, cfg.eps)
    if ledger is not None:
        ledger.charge("inversion", primitive=charge)
    intended = ((vh.conj().T * g_exact) @ u.conj().T if debug_enabled()
                else None)
    # cfg.eps bounds the polynomial's error on the fit grid only; off the
    # grid it can be slightly larger (see backend_inverse_poly)
    eps_out = be.eps / sigma + (cfg.eps if polynomial else 0.0)
    return _mk(out_block, alpha_out, eps_out, intended, charge)


def max_eigenvalue(be: BlockEncoding, eps: float,
                   ledger: CostLedger | None = None) -> float:
    """Largest eigenvalue of the encoded PSD Hermitian matrix, within eps."""
    return _extremal_eigenvalue(be, eps, ledger, largest=True)


def min_eigenvalue(be: BlockEncoding, eps: float,
                   ledger: CostLedger | None = None) -> float:
    """Smallest eigenvalue of the encoded PSD Hermitian matrix, within eps."""
    return _extremal_eigenvalue(be, eps, ledger, largest=False)


def _extremal_eigenvalue(be: BlockEncoding, eps: float,
                         ledger: CostLedger | None, largest: bool) -> float:
    if not eps > 0:
        raise InputError("eps must be positive")
    b = be.block
    if _norm_above(b - b.conj().T, _HERMITIAN_TOL) is not None:
        raise InputError("encoded block is not Hermitian")
    w = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
    if w[0] < -_HERMITIAN_TOL:
        raise InputError(f"encoded block is not PSD (min eigenvalue {w[0]:.3e})")
    if ledger is not None:
        n = be.logical_dim
        charge = (_log2(1.0 / eps) + 0.5 * _log2(n)) * be.cost / eps
        ledger.charge("eigen_estimate", primitive=charge)
    ev = w[-1] if largest else max(w[0], 0.0)
    return float(be.alpha * ev)


def min_singular_value(be: BlockEncoding, eps: float,
                       ledger: CostLedger | None = None) -> float:
    """Smallest singular value of extract(), via the J^dag J square trick."""
    gram = be_product(be_transpose(be), be, ledger)
    return float(np.sqrt(max(min_eigenvalue(gram, eps, ledger), 0.0)))
