"""Singular value transformation on block encodings.

Pseudoinversion with a spectral threshold (exact SVD backend and an odd
polynomial backend approximating 0.75*sigma/x, whose 4/3 goes into the
output alpha), plus extremal eigenvalue and singular value estimation with
the matching symbolic cost charges.

The polynomial's degree is searched in doubling rounds d -> 2d + 1.  Inside
a round, a secant on log(minimax deviation) against the degree predicts the
smallest passing odd degree, and the search fits only the degrees that
confirm it: it ends on a passing fit at d above a failing fit at d - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from scipy.optimize import linprog

from .block_encoding import (BlockEncoding, CostLedger, _eps_units, _log2,
                             _mk, be_product, be_transpose, debug_enabled)
from .errors import ConditioningError, ConfigError, InputError

_LP_DEGREE_CAP = 1200      # practical cap of the LP-based minimax builder
_HERMITIAN_TOL = 1e-9


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

    @property
    def polynomial(self) -> bool:
        return self.backend == "poly"


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


def _minimax_fit(sigma: float, degree: int,
                 shrink: float = 1.0) -> tuple[np.ndarray, float]:
    """Best odd-Chebyshev fit to shrink*sigma/x on [sigma, 1], |q| <= 1 on [0, 1].

    Linear program: minimize the sup deviation t on a Chebyshev-node grid of
    the approximation interval, subject to a unit cap on a grid of [0, 1].
    """
    ks = np.arange(1, degree + 1, 2)
    m_fit = max(600, 4 * degree)
    nodes = np.cos(np.pi * (np.arange(m_fit) + 0.5) / m_fit)
    xs = 0.5 * (sigma + 1.0) + 0.5 * (1.0 - sigma) * nodes
    target = shrink * sigma / xs
    ys = np.linspace(0.0, 1.0, m_fit + 1)[1:]
    phi_fit = chebyshev.chebvander(xs, degree)[:, ks]
    phi_cap = chebyshev.chebvander(ys, degree)[:, ks]
    cvec = np.zeros(ks.size + 1)             # coefficients + deviation bound t
    cvec[-1] = 1.0
    ones = np.ones((xs.size, 1))
    a_ub = np.vstack([
        np.hstack([phi_fit, -ones]),
        np.hstack([-phi_fit, -ones]),
        np.hstack([phi_cap, np.zeros((ys.size, 1))]),
        np.hstack([-phi_cap, np.zeros((ys.size, 1))]),
    ])
    b_ub = np.concatenate([target, -target,
                           np.full(ys.size, 1.0 - 1e-9),
                           np.full(ys.size, 1.0 - 1e-9)])
    res = linprog(cvec, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * ks.size + [(0, None)],
                  method="highs")
    if not res.success:
        raise ConfigError(f"minimax LP failed at degree {degree}: {res.message}")
    coeffs = np.zeros(degree + 1)
    coeffs[ks] = res.x[:-1]
    return coeffs, float(res.x[-1])


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

    The rounds double the degree d -> 2d + 1 from max(3, 1/sigma) up to the
    cap; a round's bracket runs from the previous round's failing doubling
    degree (1 in the first round) to its own.  The minimax deviation falls
    about geometrically in the degree (the log(1/eps)/sigma scale of
    `degree_budget`), so each fit goes to the odd ceiling of the degree where
    log(deviation), drawn as a straight line, crosses log(eps):
    - no passing fit in the round yet: extrapolated from the last two
      failing fits, capped at the round's doubling degree, which is fitted
      when the guess reaches it or when no two failing fits show a decrease;
    - a passing fit: interpolated between it and the highest failing fit,
      or the degree just below the pass when the line predicts the pass.
    The bisection midpoint replaces a guess that is missing or not above
    the highest failing degree.  The search stops at a passing fit at d
    with a failing fit at d - 2: the smallest passing degree of the bracket
    when the deviation falls monotonically in the degree.
    """
    degree_cap = min(degree_cap, _LP_DEGREE_CAP)
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
    subnormalization absorbs the 4/3.  So |q(x)/h - sigma/x| <= eps on
    [sigma, 1] and |q| <= 1 on [-1, 1].
    """
    InversionConfig(sigma, eps, "poly")          # range-checks sigma and eps
    cap = max(int(np.ceil(4.0 * degree_budget(sigma, eps))), 3)
    q = _search_inverse_poly(float(sigma), float(_HEADROOM * eps),
                             _HEADROOM, cap)
    if q is None:
        raise ConfigError(
            f"inverse polynomial for sigma={sigma:.3g}, eps={eps:.3g} needs "
            f"degree beyond the desk-scale LP cap {_LP_DEGREE_CAP}; raise "
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
    with np.errstate(divide="ignore"):
        g_exact = np.where(alive, np.clip(
            np.where(s > 0, sigma / np.maximum(s, 1e-300), 0.0), 0.0, 1.0), 0.0)
    alpha_out = 1.0
    g = g_exact
    if cfg.polynomial:
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
    eps_out = be.eps / sigma + (cfg.eps if cfg.polynomial else 0.0)
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
    if np.linalg.norm(b - b.conj().T, 2) > _HERMITIAN_TOL:
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
