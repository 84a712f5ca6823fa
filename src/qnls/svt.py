"""Singular value transformation on block encodings.

Pseudoinversion with a spectral threshold (exact SVD backend and an odd
polynomial backend approximating h*sigma/x, h <= 0.75, whose 1/h goes into
the output alpha), plus extremal eigenvalue and singular value estimation
with the matching symbolic cost charges.

The polynomial is closed-form: q(x) = h*sigma*(1 - P_k(x^2))/x, where
P_k(y) = T_k(a - b*y)/T_k(a), a = (1 + sigma^2)/(1 - sigma^2) and
b = 2/(1 - sigma^2) map [sigma^2, 1] onto [-1, 1], of degree 2k - 1.  On
[sigma, 1], |q/h - sigma/x| = sigma*|P_k|/x <= 1/T_k(a) = 1/cosh(2k
atanh(sigma)) at every point, so k = ceil(acosh(1/eps)/(2 atanh(sigma)))
meets eps with no search (Chebyshev semi-iteration on the normal equations;
Golub and Varga, Numer. Math. 3, 1961).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .block_encoding import (BlockEncoding, CostLedger, _eps_units, _log2,
                             _mk, be_product, be_transpose, debug_enabled)
from .errors import ConditioningError, ConfigError, InputError
from .poly_system import _norm_above

# the largest degree the poly backend builds, for run time: a degree-4095
# build took 18-133 ms at eps 1e-1 to 1e-15 on one core, nearly all of it
# the unit-cap certificate's 2048 passes over its 2-18 thousand points
_DEGREE_CAP = 4095
_HERMITIAN_TOL = 1e-9
_UNIT_CAP = 1.0 - 1e-9     # the certified bound on |q| over [-1, 1]
_BERNSTEIN_MARGIN = 1e-3   # the certificate's allowance between its points


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


@dataclass(frozen=True)
class _InversePolynomial:
    """q(x) = scale*(1 - P_k(x^2))/x, of degree 2k - 1 (module docstring)."""

    sigma: float
    k: int
    scale: float

    @property
    def degree(self) -> int:
        return 2 * self.k - 1

    def __call__(self, x):
        """q at x by the recurrence of R_j(y) = (1 - P_j(y))/y, never by the
        difference 1 - P_k, which cancels at small x.  With tau_j = T_j(a),
        tau_(j+1) R_(j+1) = 2 tau_j (b + z R_j) - tau_(j-1) R_(j-1) at
        z = a - b x^2, run in Reinsch's form: E_j = R_j - r_(j-1) R_(j-1),
        r_j = tau_j/tau_(j+1), and w = 2(z - 1) = 2b(sigma - x)(sigma + x),
        with a - 1 = b sigma^2 kept apart from 1 in r_j, so that the rounding
        of a and z does not enter where z is near 1."""
        x = np.asarray(x, dtype=np.float64)
        s = self.sigma
        b = 2.0 / ((1.0 - s) * (1.0 + s))
        u = 2.0 * b * s * s                          # 2(a - 1)
        w = 2.0 * b * (s - x) * (s + x)
        # R_0 = 0, and E_0 = -b makes the first pass give R_1 = b/a
        rho, big_r, e = -0.5 * u, np.zeros_like(x), np.full_like(x, -b)
        for _ in range(self.k):
            r = 1.0 / (1.0 + u + rho)                # r_j = 1/(2a - r_(j-1))
            rho = (u + rho) * r                      # 1 - r_j
            e = r * (w * big_r + e + 2.0 * b)
            big_r = r * big_r + e
        return (self.scale * x * big_r)[()]


def _minimax_fit(sigma: float, degree: int,
                 shrink: float) -> _InversePolynomial:
    """The odd q of the degree (2k - 1 for some k >= 1) whose q/shrink is
    minimax in the relative error to sigma/x on [sigma, 1]: x*q/(shrink
    sigma) - 1 = -P_k(x^2), the shifted Chebyshev polynomial of least sup
    on [sigma^2, 1] among degree-k polynomials equal to 1 at 0."""
    return _InversePolynomial(float(sigma), (degree + 1) // 2,
                              shrink * float(sigma))


def _unit_sup(q: _InversePolynomial) -> float:
    """A bound on max |q| over [-1, 1].

    q is odd.  On [sigma, 1], |q| <= (scale/sigma)(1 + 1/T_k(a)) from the
    module docstring's bound.  On [0, sigma] the bound is certified on the
    grid x = sin(phi), phi spaced h_phi apart on [0, asin(sigma)]: by
    Bernstein's inequality, |q'(x)| <= d*sup/sqrt(1 - x^2) at degree d, so
    |dq/dphi| <= d*sup, and between the points |q| exceeds their max by at
    most c*sup, c = d*h_phi/2 <= _BERNSTEIN_MARGIN.  Where sup is reached
    on [0, sigma], sup <= max/(1 - c).
    """
    top = np.arcsin(q.sigma)
    m = int(np.ceil(q.degree * top / (2.0 * _BERNSTEIN_MARGIN)))
    on_grid = float(np.max(np.abs(q(np.sin(np.linspace(0.0, top, m + 1))))))
    c = q.degree * top / (2.0 * m)
    g = np.exp(-2.0 * q.k * np.arctanh(q.sigma))   # 1/T_k(a) = 2g/(1 + g^2)
    above = q.scale / q.sigma * (1.0 + 2.0 * g / (1.0 + g * g))
    return max(above, on_grid / (1.0 - c))


def degree_budget(sigma: float, eps: float) -> float:
    """(1/sigma) * log2(1/(sigma eps)), the inversion Lemma's degree scale."""
    return (1.0 / sigma) * _log2(1.0 / (sigma * _eps_units(eps)))


def _inverse_poly_degree(sigma: float, eps: float) -> float:
    """2k - 1, k = max(1, ceil(acosh(1/eps)/(2 atanh(sigma)))): the degree of
    the poly backend's q, in float, so that a huge one is compared, not built."""
    k = np.ceil(np.arccosh(max(1.0 / eps, 1.0)) / (2.0 * np.arctanh(sigma)))
    return 2.0 * max(float(k), 1.0) - 1.0


_HEADROOM = 0.75


def backend_inverse_poly(sigma: float,
                         eps: float) -> tuple[_InversePolynomial, float]:
    """Odd q of the poly backend, with its headroom h (0.75 at most).

    q/h approximates sigma/x, not the saturated sigma/x whose value 1 at
    the threshold collides with the unit sup-norm cap; the output
    subnormalization absorbs 1/h.  |q(x)/h - sigma/x| <= eps at every x of
    [sigma, 1].  Where the certified sup of |q| on [-1, 1] breaks the cap
    1 - 1e-9, q is scaled by cap/sup, and so is h, the usual rescaling of a
    QSVT polynomial under |q| <= 1.  A degree above _DEGREE_CAP is refused
    before anything is built.
    """
    InversionConfig(sigma, eps, "poly")          # range-checks sigma and eps
    degree = _inverse_poly_degree(sigma, eps)
    if degree > _DEGREE_CAP:
        raise ConfigError(
            f"inverse polynomial for sigma={sigma:.3g}, eps={eps:.3g} needs "
            f"degree {degree:.3g}, above the ceiling {_DEGREE_CAP}; raise "
            "sigma_floor or eps, or use the exact backend")
    q = _minimax_fit(sigma, int(degree), _HEADROOM)
    sup = _unit_sup(q)
    if sup <= _UNIT_CAP:
        return q, _HEADROOM
    scale = _UNIT_CAP / sup
    return replace(q, scale=scale * q.scale), _HEADROOM * scale


def sv_invert(be: BlockEncoding, cfg: InversionConfig,
              ledger: CostLedger | None = None) -> BlockEncoding:
    """Encoding of the sigma-scaled pseudoinverse of the normalized block.

    The input block B = extract()/alpha has no singular value in
    [sigma/2, sigma).  Exact output block = sigma * B^+ (alpha = 1), those
    below sigma/2 taken as zeros.  Poly output = q^{SV}(B) (alpha = 1/h),
    q on every singular value: within eps of sigma/s at every s in
    [sigma, 1], as on the solver path, and under its unit cap at every s.
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
    # cfg.eps bounds the polynomial's error at every point of [sigma, 1]
    # (see backend_inverse_poly)
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
