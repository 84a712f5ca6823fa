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


def test_backend_fits_the_cap_degree_the_doubling_passes():
    # the doubling rounds fail 81, 163, 327 and 655, and 1311 passes the
    # search cap 1200: the last round ends at the cap degree 1199
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
    (0.3, 1e-3, 1.0, 40),        # degree 23, where the uncapped fit passes
    (0.2, 1e-3, 0.75, 40),       # degree 33, in the round (23, 39] the cap ends
    (0.2, 1e-3, 0.75, 50),       # degree 33, in the last round under the cap
])
def test_search_matches_doubling_bisection(sigma, eps, shrink, degree_cap):
    _assert_same_search(sigma, eps, shrink, degree_cap)


@pytest.mark.slow
def test_search_matches_doubling_bisection_on_lv_poly():
    _assert_same_search(*_backend_searches(0.025, 3e-2 / 9)[1])


def test_lv_poly_search_fits(monkeypatch):
    fits, exchanges, lp_calls = [], [], []
    minimax_fit, remez_exchange = svt._minimax_fit, svt._remez_exchange

    def counted(sigma, degree, shrink=1.0):
        fits.append((degree, shrink))
        return minimax_fit(sigma, degree, shrink)

    def counted_exchange(*args):
        exchanges.append(1)
        return remez_exchange(*args)

    monkeypatch.setattr(svt, "_minimax_fit", counted)
    monkeypatch.setattr(svt, "_remez_exchange", counted_exchange)
    _counted_linprog(monkeypatch, lp_calls)
    svt._search_inverse_poly.cache_clear()
    try:
        q, headroom = backend_inverse_poly(0.025, 3e-2 / 9)
    finally:
        svt._search_inverse_poly.cache_clear()
    assert (q.degree, headroom) == (229, svt._HEADROOM)
    # one fit per visited degree, each settled by one exchange
    assert fits == [(d, svt._HEADROOM) for d in (41, 83, 167, 229, 227)]
    assert (len(exchanges), len(lp_calls)) == (5, 0)


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


def test_search_falls_back_to_doubling_and_bisection(monkeypatch):
    # deviations that do not fall leave the secant undefined (5 -> 11), and
    # so does a zero deviation at a pass (23, then 17): the search then
    # fits the doubling degree, and after a pass bisects toward the failures
    def deviation(d):
        return 0.0 if d >= 17 else {5: 0.1, 11: 0.2}.get(d, 0.05)

    fits = []

    def tabled(sigma, degree, shrink=1.0):
        fits.append(degree)
        coeffs = np.zeros(degree + 1)
        coeffs[degree] = 1.0
        return coeffs, deviation(degree)

    monkeypatch.setattr(svt, "_minimax_fit", tabled)
    # sigma 0.2 starts the doubling rounds at degree 5: 5, 11, 23, ...
    q, _ = svt._search_inverse_poly.__wrapped__(0.2, 1e-3, 1.0, 100)
    assert fits == [5, 11, 23, 17, 15]
    assert len(set(fits)) == len(fits)
    # the smallest passing odd degree of the bracket (11, 23]
    assert q.degree == min(d for d in range(13, 24, 2) if deviation(d) <= 1e-3)
    assert q.degree - 2 in fits and deviation(q.degree - 2) > 1e-3


def test_search_visits_the_secant_degrees(monkeypatch):
    # deviation 2^(-d/2) crosses eps 1e-3 between 19 and 21: the secant
    # through 5 and 11 lands on 21, which passes, and 19 fails
    fits = []

    def tabled(sigma, degree, shrink=1.0):
        fits.append(degree)
        coeffs = np.zeros(degree + 1)
        coeffs[degree] = 1.0
        return coeffs, 2.0 ** (-degree / 2)

    monkeypatch.setattr(svt, "_minimax_fit", tabled)
    q, _ = svt._search_inverse_poly.__wrapped__(0.2, 1e-3, 1.0, 100)
    assert q.degree == 21
    assert fits == [5, 11, 21, 19]


# ---------------------------------------------------------------------------
# exchange fits, against the minimax LP as reference
# ---------------------------------------------------------------------------

_HEADROOM_CASES = [(0.025, 229), (0.1, 47), (0.2, 35)]   # the cap holds


def _counted_linprog(monkeypatch, calls, fail=False):
    import scipy.optimize
    linprog = scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        if fail:
            raise AssertionError("linprog called")
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counted)


def _cap_columns(degree):
    """Odd Chebyshev columns at the cap grid of a degree-d fit: max(600, 4d)
    equispaced points of (0, 1]."""
    ys = np.linspace(0.0, 1.0, max(600, 4 * degree) + 1)[1:]
    return np.polynomial.chebyshev.chebvander(ys, degree)[:, 1::2]


def _lp_reference(grids, capped=True):
    """Odd-index coefficients of the minimax LP's optimum (scipy's HiGHS),
    the least deviation on the fit grid with |q| <= _UNIT_CAP on the cap
    grid when capped, and the deviation the coefficients reach."""
    from scipy.optimize import linprog
    _, target, phi_fit = grids
    m, k = phi_fit.shape                    # the cap grid has m points too
    phi_cap = _cap_columns(2 * k - 1)
    cvec = np.zeros(k + 1)                  # coefficients + deviation bound t
    cvec[-1] = 1.0
    ones, zeros = np.ones((m, 1)), np.zeros((m, 1))
    rows = [np.hstack([phi_fit, -ones]), np.hstack([-phi_fit, -ones])]
    bounds = [target, -target]
    if capped:
        rows += [np.hstack([phi_cap, zeros]), np.hstack([-phi_cap, zeros])]
        bounds.append(np.full(2 * m, svt._UNIT_CAP))
    res = linprog(cvec, A_ub=np.vstack(rows), b_ub=np.concatenate(bounds),
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert res.success, res.message
    odd = res.x[:-1]
    return odd, float(np.max(np.abs(phi_fit @ odd - target)))


@pytest.mark.parametrize("sigma,degree", _HEADROOM_CASES)
def test_minimax_fit_settles_without_the_lp_where_the_cap_holds(
        monkeypatch, sigma, degree):
    _counted_linprog(monkeypatch, [], fail=True)
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
    # the 1e-9 settle test; the fits at shrink 1 and 0.75 share one LP,
    # since the uncapped fit is linear in its target
    _, lp_dev = _lp_reference(svt._fit_grids(sigma, degree, 1.0), capped=False)
    for shrink in (1.0, svt._HEADROOM):
        grids = svt._fit_grids(sigma, degree, shrink)
        levelled = svt._remez_exchange(sigma, grids)
        assert levelled is not None
        odd, floor, _ = levelled
        _, target, phi_fit = grids
        dev = np.max(np.abs(phi_fit @ odd - target))
        assert floor <= dev <= floor * (1.0 + 1e-8)
        # HiGHS meets its rows to 1e-7
        assert abs(dev - shrink * lp_dev) <= 1e-7


@given(st.floats(0.02, 0.6), st.integers(1, 115).map(lambda k: 2 * k + 1),
       st.sampled_from([1.0, svt._HEADROOM]))
@settings(max_examples=10, deadline=None, derandomize=True)
@example(0.025, 41, svt._HEADROOM)          # tight: lv_poly's first fit
@example(0.107, 11, 1.0)                    # tight on the saturated target
@example(0.3388, 21, 1.0)                   # settles, but the cap binds
def test_remez_floor_never_exceeds_the_lp_deviation(sigma, degree, shrink):
    grids = svt._fit_grids(sigma, degree, shrink)
    lp, lp_dev = _lp_reference(grids)
    levelled = svt._remez_exchange(sigma, grids)
    if levelled is None:
        return
    odd, floor, _ = levelled
    # de la Vallee Poussin: no odd polynomial, the capped LP's included,
    # deviates less than the floor
    assert floor <= lp_dev * (1.0 + 1e-12)
    _, target, phi_fit = grids
    if np.max(np.abs(_cap_columns(degree) @ odd)) <= svt._UNIT_CAP:
        # the cap holds: the unique discrete minimax is the LP's optimum
        assert lp_dev <= np.max(np.abs(phi_fit @ odd - target)) + 1e-7
        assert np.max(np.abs(odd - lp)) <= 1e-6


@pytest.mark.parametrize("degree", [41, 83, 167, 227, 229])
def test_remez_floor_is_tight_against_the_lp_on_lv_poly(degree):
    sigma, shrink = 0.025, svt._HEADROOM
    grids = svt._fit_grids(sigma, degree, shrink)
    levelled = svt._remez_exchange(sigma, grids)
    assert levelled is not None
    _, lp_dev = _lp_reference(grids)
    assert levelled[1] == pytest.approx(lp_dev, rel=1e-4)


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
