import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from qnls import (ConditioningError, ConfigError, CostLedger, InputError,
                  InversionConfig,
                  OddPolynomial, backend_inverse_poly, be_of_matrix,
                  degree_budget, max_eigenvalue, min_eigenvalue,
                  min_singular_value, sv_invert, svt)


def spectrum_matrix(d, lo, hi, seed):
    rng = np.random.default_rng(seed)
    u = ortho_group.rvs(d, random_state=seed)
    v = ortho_group.rvs(d, random_state=seed + 1)
    return u @ np.diag(rng.uniform(lo, hi, d)) @ v.T


# ---------------------------------------------------------------------------
# config and polynomial
# ---------------------------------------------------------------------------

def test_inversion_config_validation():
    with pytest.raises(InputError):
        InversionConfig(0.0, 1e-3)
    for eps in (-1.0, np.inf, np.nan):
        with pytest.raises(InputError):
            InversionConfig(0.5, eps)
    with pytest.raises(InputError):
        InversionConfig(0.5, 1e-3, "magic")


def test_odd_polynomial_rejects_even_coefficients():
    with pytest.raises(InputError):
        OddPolynomial(np.array([0.5, 1.0]))


def test_odd_polynomial_owns_read_only_coefficients():
    c = np.array([0.0, 0.5])
    q = OddPolynomial(c)
    c[1] = 0.0
    assert q(1.0) == 0.5
    with pytest.raises(ValueError):
        q.cheb_coeffs[1] = 0.0


@pytest.mark.parametrize("coeffs", [[0.0], [0.0, 0.5], [0.0, 0.3, 0.0],
                                    [0.0, 0.4, 0.0, -0.2, 0.0, 0.1]])
def test_odd_polynomial_evaluates_as_chebval_in_every_shape(coeffs):
    # the odd Chebyshev columns the fits use, scalar in and scalar out, the
    # shape kept, a size-1 coefficient array the zero polynomial
    from numpy.polynomial.chebyshev import chebval

    q = OddPolynomial(np.array(coeffs))
    xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert np.allclose(q(xs), chebval(xs, coeffs), rtol=0.0, atol=1e-15)
    assert q(xs).shape == (3, 4) and q(xs[0]).shape == (4,)
    assert np.ndim(q(0.7)) == 0 and q(0.7) == q(np.array([0.7]))[0]
    assert abs(q(0.7) - chebval(0.7, coeffs)) <= 1e-15


def test_memoized_polynomial_cannot_be_corrupted():
    svt._search_inverse_poly.cache_clear()
    try:
        q, _ = backend_inverse_poly(0.5, 0.1)
        with pytest.raises(ValueError):
            q.cheb_coeffs[:] = 0.0
        again, headroom = backend_inverse_poly(0.5, 0.1)
        assert abs(again(0.7) / headroom - 0.5 / 0.7) <= 0.1
    finally:
        svt._search_inverse_poly.cache_clear()


def test_backend_inverse_poly_deviation_grid():
    q, headroom = backend_inverse_poly(0.5, 0.1)
    xs = np.linspace(0.5, 1.0, 1000)
    assert np.max(np.abs(q(xs) / headroom - 0.5 / xs)) <= 0.1
    full = np.linspace(-1.0, 1.0, 2001)
    assert np.max(np.abs(q(full))) <= 1.0 + 1e-9


def test_backend_inverse_poly_odd_symmetry():
    q, headroom = backend_inverse_poly(0.5, 0.1)
    xs = np.linspace(-1.0, 1.0, 501)
    assert np.allclose(q(-xs) / headroom, -q(xs) / headroom)


def test_backend_inverse_poly_degree_growth():
    d_half = backend_inverse_poly(0.5, 1e-3)[0].degree
    d_quarter = backend_inverse_poly(0.25, 1e-3)[0].degree
    assert d_quarter <= 2.5 * d_half


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_backend_inverse_poly_rejects_bad_eps(eps):
    with pytest.raises(InputError):
        backend_inverse_poly(0.5, eps)


@pytest.mark.parametrize("sigma,eps", [(0.5, 1e-2), (0.3, 1e-2), (0.2, 3e-2)])
def test_backend_degree_at_most_saturated(sigma, eps):
    # where the saturated sigma/x fit passes under degree 257, the headroom
    # kernel 0.75*sigma/x needs no higher degree
    cap = max(int(np.ceil(4.0 * degree_budget(sigma, eps))), 3)
    saturated = svt._search_inverse_poly(sigma, eps, 1.0, min(cap, 257))
    assert saturated is not None
    assert backend_inverse_poly(sigma, eps)[0].degree <= saturated[0].degree


def test_backend_poly_budget_and_accuracy():
    q, headroom = backend_inverse_poly(0.3, 1e-3)
    assert q.degree <= 4 * degree_budget(0.3, 1e-3)
    xs = np.linspace(0.3, 1.0, 2000)
    assert np.max(np.abs(q(xs) / headroom - 0.3 / xs)) <= 1e-3
    full = np.linspace(-1.0, 1.0, 4001)
    assert np.max(np.abs(q(full))) <= 1.0 + 1e-9


def test_minimax_fit_reports_the_deviation_its_coefficients_reach():
    # at degree 63 the deviation sits at roundoff and the exchange does not
    # settle: the degree fails, with zero coefficients
    coeffs, dev = svt._minimax_fit(0.5, 63, svt._HEADROOM)
    assert dev == np.inf and not np.any(coeffs)
    # degree 27 settles on a repeated reference, about 2e-7 off 0.75 sigma/x
    sigma, degree = 0.5, 27
    coeffs, dev = svt._minimax_fit(sigma, degree, svt._HEADROOM)
    m_fit = max(600, 4 * degree)
    nodes = np.cos(np.pi * (np.arange(m_fit) + 0.5) / m_fit)
    xs = 0.5 * (sigma + 1.0) + 0.5 * (1.0 - sigma) * nodes
    on_grid = np.max(np.abs(OddPolynomial(coeffs)(xs) - svt._HEADROOM * sigma / xs))
    assert on_grid > 0.0
    assert dev == pytest.approx(on_grid, rel=1e-6)


def test_backend_meets_eps_at_the_exchange_roundoff():
    # the deviation falls to about 1e-10 before roundoff stops the exchange
    q, headroom = backend_inverse_poly(0.5, 1e-10)
    xs = np.linspace(0.5, 1.0, 200001)
    assert np.max(np.abs(q(xs) / headroom - 0.5 / xs)) <= 1e-10


def test_backend_rejects_eps_below_the_exchange_roundoff():
    # every fit up to the search cap 4 degree_budget = 327 misses 0.75 eps
    assert int(np.ceil(4.0 * degree_budget(0.5, 1e-12))) == 327
    with pytest.raises(ConfigError, match=r"search cap 327 "):
        backend_inverse_poly(0.5, 1e-12)


def test_backend_fits_a_degree_between_655_and_the_search_cap():
    # the answer lies above 655 and under the search cap 1200, where a
    # search over the doublings 81, 163, 327, 655, 1311 of 1/sigma would
    # pass the cap and refuse the target
    sigma, eps = 0.0125, 1e-4
    q, headroom = backend_inverse_poly(sigma, eps)
    assert 655 < q.degree <= 1199
    xs, _, phi_fit = svt._fit_grids(sigma, q.degree, svt._HEADROOM)
    odd = q.cheb_coeffs[1::2]
    assert np.max(np.abs(phi_fit @ odd / headroom - sigma / xs)) <= eps
    # the scaled fit's sup is the cap, up to the rounding of the product
    assert np.max(np.abs(_cap_columns(q.degree) @ odd)) <= svt._UNIT_CAP + 1e-12


def test_backend_scales_a_cap_bound_fit_under_the_unit_cap():
    # at eps 1e-4 the fit to 0.75 sigma/x reaches |q| > 1 on [0, 1]
    sigma, eps = 0.5, 1e-4
    q, headroom = backend_inverse_poly(sigma, eps)
    assert headroom < svt._HEADROOM
    xs, _, phi_fit = svt._fit_grids(sigma, q.degree, svt._HEADROOM)
    odd = q.cheb_coeffs[1::2]
    assert np.max(np.abs(_cap_columns(q.degree) @ odd)) <= svt._UNIT_CAP + 1e-12
    assert np.max(np.abs(phi_fit @ odd / headroom - sigma / xs)) <= eps
    fit = svt._minimax_fit(sigma, q.degree, svt._HEADROOM)[0]
    np.testing.assert_allclose(q.cheb_coeffs / headroom, fit / svt._HEADROOM,
                               rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# the degree search
# ---------------------------------------------------------------------------

def _doubling_bisection_search(sigma, eps, shrink, degree_cap):
    """Reference: double the degree until a fit passes, then bisect back."""
    top = (min(degree_cap, svt._DEGREE_CAP) - 1) | 1   # last doubling degree
    d = max(3, int(np.ceil(1.0 / sigma)))
    if d % 2 == 0:
        d += 1
    d = min(d, top)
    best = None
    lo = 1
    while d > lo:
        coeffs, dev = svt._minimax_fit(sigma, d, shrink)
        if dev <= eps:
            best = (d, coeffs)
            break
        lo = d
        d = min(2 * d + 1, top)
    if best is None:
        return None
    hi = best[0]
    while hi - lo > 2:
        mid = (lo + hi) // 2
        if mid % 2 == 0:
            mid += 1
        if mid >= hi:
            break
        coeffs, dev = svt._minimax_fit(sigma, mid, shrink)
        if dev <= eps:
            hi, best = mid, (mid, coeffs)
        else:
            lo = mid
    return OddPolynomial(best[1])


def _backend_searches(sigma, eps):
    """A saturated sigma/x search capped at 257, and the backend's search."""
    cap = max(int(np.ceil(4.0 * degree_budget(sigma, eps))), 3)
    return [(sigma, eps, 1.0, min(cap, 257)),
            (sigma, svt._HEADROOM * eps, svt._HEADROOM,
             min(cap, svt._DEGREE_CAP))]


def _assert_same_search(sigma, eps, shrink, degree_cap):
    want = _doubling_bisection_search(sigma, eps, shrink, degree_cap)
    svt._search_inverse_poly.cache_clear()
    found = svt._search_inverse_poly(sigma, eps, shrink, degree_cap)
    svt._search_inverse_poly.cache_clear()
    if want is None:
        assert found is None
    else:
        assert found[0].cheb_coeffs.tobytes() == want.cheb_coeffs.tobytes()


@pytest.mark.parametrize("sigma,eps,shrink,degree_cap", [
    *(args for sigma in (0.2, 0.3, 0.5) for eps in (1e-1, 1e-2, 1e-3)
      for args in _backend_searches(sigma, eps)),
    # fails 11, 23 and 45 and passes 47
    _backend_searches(0.1, 1e-2)[1],
    _backend_searches(0.025, 5e-3 / 9)[1],   # the digest's lv_poly_cap step
    (0.3, 1e-3, 1.0, 40),        # degree 23, where the uncapped fit passes
    (0.2, 1e-3, 0.75, 40),       # degree 33, in the round (23, 39] the cap ends
    (0.2, 1e-3, 0.75, 50),       # degree 33, in the last round under the cap
])
def test_search_matches_doubling_bisection(sigma, eps, shrink, degree_cap):
    _assert_same_search(sigma, eps, shrink, degree_cap)


def test_search_matches_doubling_bisection_on_lv_poly():
    _assert_same_search(*_backend_searches(0.025, 3e-2 / 9)[1])


def test_lv_poly_search_fits(monkeypatch):
    fits, exchanges = [], []
    minimax_fit, remez_exchange = svt._minimax_fit, svt._remez_exchange

    def counted(sigma, degree, shrink=1.0):
        fits.append((degree, shrink))
        return minimax_fit(sigma, degree, shrink)

    def counted_exchange(*args):
        exchanges.append(1)
        return remez_exchange(*args)

    monkeypatch.setattr(svt, "_minimax_fit", counted)
    monkeypatch.setattr(svt, "_remez_exchange", counted_exchange)
    svt._search_inverse_poly.cache_clear()
    try:
        q, headroom = backend_inverse_poly(0.025, 3e-2 / 9)
    finally:
        svt._search_inverse_poly.cache_clear()
    assert (q.degree, headroom) == (229, svt._HEADROOM)
    # the predicted degree passes and the one below it fails: one fit each,
    # each settled by one exchange
    assert fits == [(d, svt._HEADROOM) for d in (229, 227)]
    assert len(exchanges) == 2


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("sigma", [0.5, 0.3, 0.2, 0.1, 0.05])
def test_search_fits_at_most_three_degrees(monkeypatch, sigma, eps):
    # the Chebyshev rate predicts the answer, or a degree next to it
    fits = []
    minimax_fit = svt._minimax_fit

    def counted(sigma, degree, shrink=1.0):
        fits.append(degree)
        return minimax_fit(sigma, degree, shrink)

    monkeypatch.setattr(svt, "_minimax_fit", counted)
    for args in _backend_searches(sigma, eps):
        fits.clear()
        assert svt._search_inverse_poly.__wrapped__(*args) is not None
        assert len(fits) <= 3, (args, fits)


def test_backend_takes_the_cap_sup_once_per_search(monkeypatch):
    # the search measures the unit cap on the polynomial it returns only,
    # and a memo hit measures nothing
    sups = []
    cap_sup = svt._cap_sup

    def counted(coeffs):
        sups.append(coeffs.size - 1)
        return cap_sup(coeffs)

    monkeypatch.setattr(svt, "_cap_sup", counted)
    svt._search_inverse_poly.cache_clear()
    try:
        q, _ = backend_inverse_poly(0.025, 3e-2 / 9)
        assert sups == [229]
        again, _ = backend_inverse_poly(0.025, 3e-2 / 9)
    finally:
        svt._search_inverse_poly.cache_clear()
    assert sups == [229] and again is q


@given(st.floats(0.15, 0.6), st.floats(1e-3, 5e-2),
       st.sampled_from([1.0, svt._HEADROOM]))
@settings(max_examples=25, deadline=None)
def test_search_returns_a_locally_minimal_degree(sigma, eps, shrink):
    deviation = {}
    minimax_fit = svt._minimax_fit

    def recorded(sigma, degree, shrink=1.0):
        fit = minimax_fit(sigma, degree, shrink)
        deviation[degree] = fit[1]
        return fit

    svt._minimax_fit = recorded
    svt._search_inverse_poly.cache_clear()
    try:
        # cap 65 keeps the slowly converging saturated fits cheap
        found = svt._search_inverse_poly(sigma, eps, shrink, 65)
    finally:
        svt._minimax_fit = minimax_fit
        svt._search_inverse_poly.cache_clear()
    # the search itself fitted the failing degree below its answer
    if found is None:           # the fit at the cap degree failed
        assert deviation[65] > eps
        return
    d = found[0].cheb_coeffs.size - 1
    assert deviation[d] <= eps
    if d > 3:                   # the search never fits degree 1
        assert deviation[d - 2] > eps


# sigma 0.2, eps 1e-3 and shrink 1 predict the odd ceiling of
# ln(1e3)/atanh(0.2) = 34.07, so the first fit goes to 35 under cap 100
@pytest.mark.parametrize("passing,degree_cap,visits", [
    (35, 100, [35, 33]),                        # the prediction is the answer
    (25, 100, [35, 33, 29, 21, 25, 23]),        # gallop down, then bisect
    (45, 100, [35, 37, 41, 49, 45, 43]),        # gallop up, then bisect
    (3, 100, [35, 33, 29, 21, 5, 3]),           # every fit passes: stop at 3
    (15, 20, [19, 17, 13, 15]),                 # the prediction is above the cap
    (25, 20, [19]),                             # the cap degree fails: None
])
def test_search_gallops_from_the_predicted_degree(monkeypatch, passing,
                                                  degree_cap, visits):
    fits = []

    def tabled(sigma, degree, shrink=1.0):
        fits.append(degree)
        coeffs = np.zeros(degree + 1)
        coeffs[degree] = 1.0
        return coeffs, 1e-4 if degree >= passing else 1e-2

    monkeypatch.setattr(svt, "_minimax_fit", tabled)
    found = svt._search_inverse_poly.__wrapped__(0.2, 1e-3, 1.0, degree_cap)
    assert fits == visits
    if passing > (degree_cap - 1) | 1:
        assert found is None
    else:
        assert found[0].degree == passing


# ---------------------------------------------------------------------------
# exchange fits, certified by their own alternation; one LP cross-check
# ---------------------------------------------------------------------------

_HEADROOM_CASES = [(0.025, 229), (0.1, 47), (0.2, 35)]   # the cap holds


def test_fit_grid_columns_are_chebvanders_odd_columns():
    for sigma, degree in [(0.5, 1), (0.2, 35), (0.025, 229), (0.005, 1199)]:
        xs, _, phi_fit = svt._fit_grids(sigma, degree, svt._HEADROOM)
        assert np.array_equal(
            phi_fit, np.polynomial.chebyshev.chebvander(xs, degree)[:, 1::2])
        # column-major, as chebvander's columns are: the products' BLAS
        # path, and so their bytes, depend on the layout
        assert phi_fit.flags.f_contiguous


def test_degree_1199_fit_peaks_under_40_mb():
    # the fit grid's odd columns take 23 MB; with the full chebvander, or
    # an m x (n + 1) node distance table for the exchange's start, the
    # fit peaks near 70 MB
    tracemalloc.start()
    try:
        svt._minimax_fit(0.005, 1199, svt._HEADROOM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _cap_columns(degree):
    """Odd Chebyshev columns at the cap grid of a degree-d fit: max(600, 4d)
    equispaced points of (0, 1]."""
    ys = np.linspace(0.0, 1.0, max(600, 4 * degree) + 1)[1:]
    return np.polynomial.chebyshev.chebvander(ys, degree)[:, 1::2]


def _alternation_certificate(grids, odd):
    """(lower, upper) bounds on the least deviation on the fit grid of any odd
    polynomial with odd.size coefficients, from q = odd alone.

    upper is q's own deviation.  The error's runs of one sign alternate, so
    any n + 1 consecutive run peaks (n = odd.size) are n + 1 grid points
    where q's error alternates; odd polynomials on [sigma, 1] form a Haar
    system, so by de la Vallee Poussin none deviates less than the smallest
    of those peaks.  lower is the best such bound over every window.
    """
    _, target, phi_fit = grids
    err = target - phi_fit @ odd
    starts = np.flatnonzero(np.r_[True, np.diff(err >= 0.0)])
    peaks = np.maximum.reduceat(np.abs(err), starts)
    n = odd.size
    lower = 0.0
    if peaks.size > n:
        lower = float(np.lib.stride_tricks.sliding_window_view(
            peaks, n + 1).min(1).max())
    return lower, float(np.max(np.abs(err)))


def _assert_certified(grids, odd, floor):
    """The exchange's floor is a de la Vallee Poussin bound that q's own
    alternation meets, and q's deviation is within 1e-8 of that bound (plus
    1e-14 for fits at roundoff): so q is the discrete minimax fit to 1e-8,
    and no odd polynomial of the degree, capped or not, deviates less than
    the floor."""
    lower, upper = _alternation_certificate(grids, odd)
    assert floor <= lower * (1.0 + 1e-12)
    assert upper - lower <= 1e-8 * lower + 1e-14
    return lower, upper


def _lp_reference(grids):
    """Odd-index coefficients of the minimax LP's optimum (scipy's HiGHS),
    the least deviation on the fit grid with |q| <= _UNIT_CAP on the cap
    grid, and the deviation the coefficients reach."""
    from scipy.optimize import linprog
    _, target, phi_fit = grids
    m, k = phi_fit.shape                    # the cap grid has m points too
    phi_cap = _cap_columns(2 * k - 1)
    cvec = np.zeros(k + 1)                  # coefficients + deviation bound t
    cvec[-1] = 1.0
    ones, zeros = np.ones((m, 1)), np.zeros((m, 1))
    rows = [np.hstack([phi_fit, -ones]), np.hstack([-phi_fit, -ones]),
            np.hstack([phi_cap, zeros]), np.hstack([-phi_cap, zeros])]
    bounds = [target, -target, np.full(2 * m, svt._UNIT_CAP)]
    res = linprog(cvec, A_ub=np.vstack(rows), b_ub=np.concatenate(bounds),
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert res.success, res.message
    odd = res.x[:-1]
    return odd, float(np.max(np.abs(phi_fit @ odd - target)))


@pytest.mark.parametrize("sigma,degree", _HEADROOM_CASES)
def test_minimax_fit_settles_without_the_lp_where_the_cap_holds(sigma, degree):
    coeffs, dev = svt._minimax_fit(sigma, degree, svt._HEADROOM)
    assert coeffs.size == degree + 1 and not np.any(coeffs[0::2])
    # the deviation is the one the coefficients reach on the fit grid
    xs, target, _ = svt._fit_grids(sigma, degree, svt._HEADROOM)
    on_grid = np.max(np.abs(OddPolynomial(coeffs)(xs) - target))
    assert dev == pytest.approx(on_grid, rel=1e-12)
    floor = svt._remez_exchange(sigma, svt._fit_grids(
        sigma, degree, svt._HEADROOM))[1]
    assert floor <= dev <= floor * (1.0 + 1e-9)


@pytest.mark.parametrize("sigma,degree", _HEADROOM_CASES)
def test_exchange_fit_matches_the_lp_fit(sigma, degree):
    settled, dev = svt._minimax_fit(sigma, degree, svt._HEADROOM)
    grids = svt._fit_grids(sigma, degree, svt._HEADROOM)
    floor = svt._remez_exchange(sigma, grids)[1]
    lp, lp_dev = _lp_reference(grids)
    assert np.max(np.abs(settled[1::2] - lp)) <= 1e-14
    # the floor bounds HiGHS's fit from below; HiGHS meets rows to 1e-7
    assert floor * (1.0 - 1e-12) <= lp_dev <= dev + 1e-7


@pytest.mark.parametrize("sigma,degree", [
    (0.5, 27), (0.1, 151), (0.05, 301), (0.025, 603)])
def test_remez_exchange_settles_on_a_repeated_reference(sigma, degree):
    # the deviation is near 1e-7, where sup/floor - 1 stays a few 1e-9 above
    # the 1e-9 settle test, at shrink 1 and 0.75 alike
    for shrink in (1.0, svt._HEADROOM):
        grids = svt._fit_grids(sigma, degree, shrink)
        levelled = svt._remez_exchange(sigma, grids)
        assert levelled is not None
        odd, floor, _ = levelled
        _, target, phi_fit = grids
        dev = np.max(np.abs(phi_fit @ odd - target))
        assert floor <= dev <= floor * (1.0 + 1e-8)
        _assert_certified(grids, odd, floor)


@given(st.floats(0.02, 0.6), st.integers(1, 115).map(lambda k: 2 * k + 1),
       st.sampled_from([1.0, svt._HEADROOM]))
@settings(max_examples=10, deadline=None, derandomize=True)
@example(0.025, 41, svt._HEADROOM)          # tight: lv_poly's first fit
@example(0.107, 11, 1.0)                    # tight on the saturated target
@example(0.3388, 21, 1.0)                   # settles, but the cap binds
def test_remez_floor_never_exceeds_the_lp_deviation(sigma, degree, shrink):
    grids = svt._fit_grids(sigma, degree, shrink)
    levelled = svt._remez_exchange(sigma, grids)
    if levelled is None:
        return
    odd, floor, _ = levelled
    # de la Vallee Poussin: no odd polynomial, the capped LP's included,
    # deviates less than the certificate's lower bound, which the floor meets
    _assert_certified(grids, odd, floor)
    _, target, phi_fit = grids
    if np.max(np.abs(_cap_columns(degree) @ odd)) <= svt._UNIT_CAP:
        lp, lp_dev = _lp_reference(grids)
        # the cap holds: the unique discrete minimax is the LP's optimum
        assert lp_dev <= np.max(np.abs(phi_fit @ odd - target)) + 1e-7
        assert np.max(np.abs(odd - lp)) <= 1e-6


@pytest.mark.parametrize("degree", [41, 83, 167, 227, 229])
def test_remez_floor_is_tight_against_the_lp_on_lv_poly(degree):
    # the minimax deviation, which the LP solves for, lies in [lower, upper],
    # so a floor within 1e-8 of upper is within 1e-8 of it
    sigma, shrink = 0.025, svt._HEADROOM
    grids = svt._fit_grids(sigma, degree, shrink)
    levelled = svt._remez_exchange(sigma, grids)
    assert levelled is not None
    odd, floor, _ = levelled
    _, upper = _assert_certified(grids, odd, floor)
    assert upper - floor <= 1e-8 * floor


@pytest.mark.parametrize("sigma,degree,shrink", [
    *((0.025, d, svt._HEADROOM) for d in (41, 83, 167, 227, 229)),
    (0.3388, 21, 1.0)])                     # settles, but the cap binds
def test_remez_exchange_reports_the_deviation_of_its_fit(sigma, degree, shrink):
    xs, target, phi_fit = grids = svt._fit_grids(sigma, degree, shrink)
    assert np.all(xs > sigma)               # the fit grid only
    odd, _, deviation = svt._remez_exchange(sigma, grids)
    assert deviation == np.max(np.abs(phi_fit @ odd - target))


def test_remez_exchange_declines_a_singular_reference():
    xs, target, phi_fit = svt._fit_grids(0.1, 21, svt._HEADROOM)
    flat = (xs, target, np.zeros_like(phi_fit))
    assert svt._remez_exchange(0.1, flat) is None


# ---------------------------------------------------------------------------
# sv_invert
# ---------------------------------------------------------------------------

def test_invert_identity():
    be = be_of_matrix(np.eye(3))
    out = sv_invert(be, InversionConfig(0.5, 1e-4))
    assert np.allclose(out.extract(), 0.5 * np.eye(3), atol=1e-10)


def test_invert_diagonal_scaling():
    be = be_of_matrix(np.diag([1.0, 0.5]))
    out = sv_invert(be, InversionConfig(0.5, 1e-4))
    assert np.allclose(out.extract(), np.diag([0.5, 1.0]), atol=1e-10)


def test_invert_backends_agree():
    for seed in range(6):
        m = spectrum_matrix(8, 0.3, 1.0, seed=seed)
        be = be_of_matrix(m)
        ex = sv_invert(be, InversionConfig(0.3, 1e-3, "exact"))
        po = sv_invert(be, InversionConfig(0.3, 1e-3, "poly"))
        assert np.linalg.norm(ex.extract() - po.extract(), 2) <= 1e-3


def test_invert_row_space_projector():
    m = spectrum_matrix(6, 0.4, 1.0, seed=17)
    be = be_of_matrix(m)
    out = sv_invert(be, InversionConfig(0.4, 1e-4))
    prod = out.extract() @ (be.extract() / be.alpha)
    assert np.linalg.norm(prod - 0.4 * np.eye(6), 2) <= 2e-4


def test_invert_pseudoinverse_cutoff():
    # singular values below sigma/2 are treated as exact zeros
    m = np.diag([1.0, 0.6, 0.1])
    out = sv_invert(be_of_matrix(m), InversionConfig(0.5, 1e-4))
    assert np.allclose(out.extract(), np.diag([0.5, 0.5 / 0.6, 0.0]),
                       atol=1e-10)


@pytest.mark.parametrize("rotated", [False, True], ids=["diag", "rotated"])
def test_poly_invert_applies_q_to_every_singular_value(rotated):
    # no sigma/2 cutoff on the poly path: the output is V q(S) U^T / h, and
    # q(0.1) / h = 0.844 where the exact backend's cutoff gives 0
    m = np.diag([1.0, 0.6, 0.1])
    if rotated:
        m = ortho_group.rvs(3, random_state=5) @ m @ ortho_group.rvs(
            3, random_state=6).T
    out = sv_invert(be_of_matrix(m), InversionConfig(0.5, 1e-4, "poly"))
    q, h = backend_inverse_poly(0.5, 1e-4)
    u, s, vh = np.linalg.svd(m)
    expected = vh.T @ np.diag(q(s)) @ u.T / h
    assert np.max(np.abs(out.extract() - expected)) <= 1e-12
    assert q(0.1) / h == pytest.approx(0.844, abs=1e-3)


@pytest.mark.parametrize("backend", ["exact", "poly"])
def test_invert_claims_the_input_eps_over_sigma(backend):
    # B = diag(1, sigma + delta) encodes diag(1, sigma) within delta; the
    # output misses sigma * diag(1, sigma)^+ by delta / (sigma + delta), more
    # than delta, so only a claim of delta / sigma (plus the fit's eps) covers it
    sigma, delta = 0.5, 1e-3
    be = be_of_matrix(np.diag([1.0, sigma + delta]), eps=delta)
    out = sv_invert(be, InversionConfig(sigma, 1e-4, backend))
    err = np.linalg.norm(out.extract() - np.diag([sigma, 1.0]), 2)
    assert err == pytest.approx(delta / (sigma + delta), abs=1e-4)
    assert err <= out.eps


def test_invert_dead_band_raises():
    m = np.diag([1.0, 0.3])      # 0.3 sits in [sigma/2, sigma) for sigma=0.5
    with pytest.raises(ConditioningError):
        sv_invert(be_of_matrix(m), InversionConfig(0.5, 1e-4))


def test_inversion_cost_scaling():
    led_a, led_b = CostLedger(), CostLedger()
    m = spectrum_matrix(4, 0.6, 1.0, seed=3)
    sv_invert(be_of_matrix(m), InversionConfig(0.5, 1e-4), led_a)
    sv_invert(be_of_matrix(m), InversionConfig(0.25, 1e-4), led_b)
    assert led_b.notes["inversion"] >= 2.0 * led_a.notes["inversion"]
    assert degree_budget(0.25, 1e-4) >= 2.0 * degree_budget(0.5, 1e-4)


# ---------------------------------------------------------------------------
# extremal eigenvalues / singular values
# ---------------------------------------------------------------------------

def test_eigenvalue_identity_and_diag():
    be = be_of_matrix(np.eye(2))
    assert max_eigenvalue(be, 1e-6) == pytest.approx(1.0)
    assert min_eigenvalue(be, 1e-6) == pytest.approx(1.0)
    be = be_of_matrix(np.diag([0.25, 1.0]))
    assert min_eigenvalue(be, 1e-4) == pytest.approx(0.25, abs=1e-4)
    assert max_eigenvalue(be, 1e-4) == pytest.approx(1.0, abs=1e-4)


def test_eigenvalue_random_psd_matches_dense():
    rng = np.random.default_rng(21)
    g = rng.normal(size=(8, 8))
    psd = g @ g.T
    psd /= np.linalg.norm(psd, 2) * 1.1
    be = be_of_matrix(psd)
    w = np.linalg.eigvalsh(psd)
    assert max_eigenvalue(be, 1e-4) == pytest.approx(w[-1], abs=1e-4)
    assert min_eigenvalue(be, 1e-4) == pytest.approx(w[0], abs=1e-4)


def test_eigenvalue_rejects_non_psd():
    be = be_of_matrix(np.diag([0.5, -0.5]))
    with pytest.raises(InputError):
        max_eigenvalue(be, 1e-4)


def test_eigenvalue_ledger_charge_uses_lemma_formula():
    led = CostLedger()
    be = be_of_matrix(np.eye(4))
    max_eigenvalue(be, 1e-3, led)
    assert led.notes["eigen_estimate"] > 0
    # estimation-error charges stay under their own label
    assert "inversion" not in led.notes


def test_min_singular_value_examples():
    assert min_singular_value(be_of_matrix(np.eye(3)), 1e-4) == pytest.approx(1.0)
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert min_singular_value(be_of_matrix(m), 1e-4) == pytest.approx(0.5)
    m6 = spectrum_matrix(6, 0.2, 0.9, seed=5)
    truth = np.linalg.svd(m6, compute_uv=False)[-1]
    assert min_singular_value(be_of_matrix(m6), 1e-4) == pytest.approx(
        truth, abs=1e-4)
