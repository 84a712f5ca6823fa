"""Singular value transformation on block encodings.

Pseudoinversion with a spectral threshold (exact SVD backend and an odd
polynomial backend approximating h*sigma/x, h <= 0.75, whose 1/h goes into
the output alpha), plus extremal eigenvalue and singular value estimation
with the matching symbolic cost charges.

The polynomial's degree is predicted from the Chebyshev rate: the minimax
deviation falls about as ((1 - sigma)/(1 + sigma))**(d/2), so the search
first fits the odd ceiling of ln(shrink/eps)/atanh(sigma).  It gallops from
there, down while the fits pass or up while they fail, and bisects the
bracket: it ends on a passing fit at d above a failing degree d - 2.
Each visited degree is fitted once, by a Remez exchange; only the returned
fit is measured against the unit cap, and scaled under it with h if needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .block_encoding import (BlockEncoding, CostLedger, _eps_units, _log2,
                             _mk, be_product, be_transpose, debug_enabled)
from .errors import ConditioningError, ConfigError, InputError
from .poly_system import _norm_above

_DEGREE_CAP = 1200   # the search's limit, for memory: a fit or cap grid
                     # holds 2*degree**2 doubles, 23 MB at 1199
_HERMITIAN_TOL = 1e-9
_UNIT_CAP = 1.0 - 1e-9     # the bound on |q| over the cap grid
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
    """Odd Chebyshev-basis polynomial.  The poly backend keeps |q| <= 1 - 1e-9
    on the cap grid only: between its points q can pass 1 slightly."""

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
        x = np.asarray(x, dtype=np.float64)
        odd = _odd_cheb_columns(x.ravel(), self.cheb_coeffs.size - 1)
        return (odd @ self.cheb_coeffs[1::2]).reshape(x.shape)[()]


def _odd_cheb_columns(xs: np.ndarray, degree: int) -> np.ndarray:
    """T_1, T_3, ..., T_degree at xs: chebvander's recurrence T_k = T_(k-1)*2x
    - T_(k-2), keeping the odd columns only.  Column-major, as chebvander's
    odd columns are, so the products take the same BLAS path and bytes."""
    rows = np.empty(((degree + 1) // 2, xs.size))
    x2, prev, cur = 2 * xs, np.ones_like(xs), xs          # T_0, T_1
    rows[:1] = cur                                         # none at degree 0
    for k in range(3, degree + 1, 2):
        prev = cur * x2 - prev                             # T_(k-1)
        cur = prev * x2 - cur                              # T_k
        rows[k // 2] = cur
    return rows.T


def _fit_grids(sigma: float, degree: int,
               shrink: float) -> tuple[np.ndarray, ...]:
    """The minimax fit's grid: max(600, 4*degree) Chebyshev nodes xs of
    [sigma, 1] (decreasing), the target shrink*sigma/xs, and the odd
    Chebyshev columns at xs."""
    m_fit = max(600, 4 * degree)
    nodes = np.cos(np.pi * (np.arange(m_fit) + 0.5) / m_fit)
    xs = 0.5 * (sigma + 1.0) + 0.5 * (1.0 - sigma) * nodes
    return xs, shrink * sigma / xs, _odd_cheb_columns(xs, degree)


def _cap_sup(coeffs: np.ndarray) -> float:
    """max |q| on the cap grid of degree d: max(600, 4d) points of (0, 1]."""
    degree = coeffs.size - 1
    ys = np.linspace(0.0, 1.0, max(600, 4 * degree) + 1)[1:]
    phi_cap = _odd_cheb_columns(ys, degree)
    return float(np.max(np.abs(phi_cap @ np.ascontiguousarray(coeffs[1::2]))))


def _remez_exchange(sigma: float, grids: tuple[np.ndarray, ...]
                    ) -> tuple[np.ndarray, float, float] | None:
    """Discrete Remez exchange for the odd Chebyshev basis on the fit grid.

    Odd polynomials on [sigma, 1], sigma > 0, form a Haar system (Descartes'
    rule of signs), so by de la Vallee Poussin every odd polynomial of the
    degree deviates on the fit grid by at least the floor min |target - p|
    over n + 1 grid points where the error of any one such p alternates in
    sign (n = (degree + 1)/2 coefficients).  The exchange starts from the
    grid points nearest the Chebyshev extrema in x^2 of [sigma^2, 1], levels
    the error on the reference, and moves the reference to n + 1
    alternating error peaks that include the largest.  Once p's sup
    deviation on the grid is within 1e-9 relative of the floor, or the
    reference repeats (a fixed point: the gap left is roundoff), it returns
    p's odd-index coefficients, the floor and p's deviation; an exchange
    that does not settle, or a reference the solve cannot level, gives None.
    """
    xs, target, phi_fit = grids
    n = phi_fit.shape[1]
    t = 0.5 * (1.0 + sigma ** 2) + 0.5 * (1.0 - sigma ** 2) * np.cos(
        np.pi * np.arange(n + 1) / n)
    # the nearer of the two nodes around each sqrt(t), the first on a tie
    y = np.sqrt(t)
    j = np.clip(np.searchsorted(-xs, -y), 1, xs.size - 1)
    nearest = j - (np.abs(xs[j - 1] - y) <= np.abs(xs[j] - y))
    ref = np.flatnonzero(np.bincount(nearest, minlength=xs.size))
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
        levelled, ref = ref, peaks[first:first + n + 1]
        floor = float(lows[first])
        if (size[peaks[top]] <= floor * (1.0 + 1e-9)
                or np.array_equal(ref, levelled)):
            return sol[:-1], floor, float(size[peaks[top]])
    return None


def _minimax_fit(sigma: float, degree: int,
                 shrink: float) -> tuple[np.ndarray, float]:
    """Best odd-Chebyshev fit to shrink*sigma/x on [sigma, 1] and its
    deviation on the fit grid, from a settled `_remez_exchange` (unique up
    to the gap it settled at: odd polynomials form a Haar system there), or
    zeros and deviation inf where the exchange does not settle."""
    coeffs = np.zeros(degree + 1)
    levelled = _remez_exchange(sigma, _fit_grids(sigma, degree, shrink))
    if levelled is None:
        return coeffs, np.inf
    coeffs[1::2], _, deviation = levelled
    return coeffs, deviation


@lru_cache(maxsize=64)
def _search_inverse_poly(sigma: float, eps: float, shrink: float,
                         degree_cap: int) -> tuple[OddPolynomial, float] | None:
    """Smallest passing odd degree near the Chebyshev rate's prediction,
    and its fit's sup on the cap grid.

    The first fit goes to d0, the odd ceiling of ln(shrink/eps)/atanh(sigma)
    (the deviation falls about as shrink*((1 - sigma)/(1 + sigma))**(d/2)),
    clamped to [3, top], top the largest odd degree within degree_cap.  The
    search gallops from d0 with strides 2, 4, 8, ...: down while the fits
    pass (degree 1 counts as failing and is never fitted), or up while they
    fail, never past top.  It then bisects until a passing fit at d has a
    failing d - 2: the smallest passing degree when the deviation falls
    monotonically in the degree.  None when top < 3 or the fit at top fails.
    """
    top = (degree_cap - 1) | 1
    if top < 3:
        return None
    d = min(max(int(np.ceil(np.log(shrink / eps) / np.arctanh(sigma))), 3) | 1,
            top)
    # the bracket: lo fails and hi passes, and 1 and top + 2 are never fitted
    lo, hi, best, step = 1, top + 2, None, 2      # best: the fit at hi
    while True:
        coeffs, dev = _minimax_fit(sigma, d, shrink)
        if dev <= eps:
            hi, best = d, coeffs
        else:
            lo = d
        if hi - lo <= 2:
            break
        if best is None:                    # gallop up
            d = min(lo + step, top)
        elif lo == 1 and hi - step > 1:     # gallop down
            d = hi - step
        else:                               # bisect
            d = (lo + hi) // 2 | 1
        step = 2 * step
    if best is None:
        return None
    return OddPolynomial(best), _cap_sup(best)


def degree_budget(sigma: float, eps: float) -> float:
    """(1/sigma) * log2(1/(sigma eps)), the inversion Lemma's degree scale."""
    return (1.0 / sigma) * _log2(1.0 / (sigma * _eps_units(eps)))


_HEADROOM = 0.75


def backend_inverse_poly(sigma: float, eps: float) -> tuple[OddPolynomial, float]:
    """Odd q of the poly backend, with its headroom h (0.75 at most).

    The fit targets 0.75*sigma/x, not the saturated sigma/x whose value 1
    at the threshold collides with the unit sup-norm cap; the output
    subnormalization absorbs 1/h.  A fit whose sup s on the cap grid breaks
    the cap 1 - 1e-9 is scaled by cap/s, and so is h, the usual rescaling
    of a QSVT polynomial under |q| <= 1.  Both |q(x)/h - sigma/x| <= eps
    and the cap hold only at the grid points, so between them q can exceed
    both by a small fraction: the degree-229 polynomial for sigma 0.025,
    eps 3e-2/9 is 1.3 % over eps off the grid.
    """
    InversionConfig(sigma, eps, "poly")          # range-checks sigma and eps
    cap = min(max(int(np.ceil(4.0 * degree_budget(sigma, eps))), 3),
              _DEGREE_CAP)
    found = _search_inverse_poly(float(sigma), float(_HEADROOM * eps),
                                 _HEADROOM, cap)
    if found is None:
        raise ConfigError(
            f"inverse polynomial for sigma={sigma:.3g}, eps={eps:.3g} needs "
            f"degree beyond the search cap {cap} (4 x degree_budget, at most "
            f"{_DEGREE_CAP}); raise sigma_floor or eps, or use the exact backend")
    q, sup = found
    if sup <= _UNIT_CAP:
        return q, _HEADROOM
    scale = _UNIT_CAP / sup
    return OddPolynomial(scale * q.cheb_coeffs), _HEADROOM * scale


def sv_invert(be: BlockEncoding, cfg: InversionConfig,
              ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the sigma-scaled pseudoinverse of the normalized block.

    The input block B = extract()/alpha has no singular value in
    [sigma/2, sigma).  Exact output block = sigma * B^+ (alpha = 1), those
    below sigma/2 taken as zeros.  Poly output = q^{SV}(B) (alpha = 1/h),
    q on every singular value: within eps for a spectrum in [sigma, 1], as
    on the solver path; below sigma a q over its unit cap off the grid can
    raise CompositionError.
    """
    b = be.block
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
        g = np.asarray(q(s), dtype=np.float64)
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
