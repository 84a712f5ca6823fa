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
    assert backend_inverse_poly(sigma, eps)[0].degree <= saturated.degree


def test_backend_poly_budget_and_accuracy():
    q, headroom = backend_inverse_poly(0.3, 1e-3)
    assert q.degree <= 4 * degree_budget(0.3, 1e-3)
    xs = np.linspace(0.3, 1.0, 2000)
    assert np.max(np.abs(q(xs) / headroom - 0.3 / xs)) <= 1e-3
    full = np.linspace(-1.0, 1.0, 4001)
    assert np.max(np.abs(q(full))) <= 1.0 + 1e-9


def test_minimax_fit_reports_the_deviation_its_coefficients_reach():
    # HiGHS meets each LP row only to its feasibility tolerance (1e-7), so
    # the LP's own bound t can read 0 for a degree-63 fit that misses
    # 0.75 sigma/x on the fit grid by about 2e-8
    sigma, degree = 0.5, 63
    coeffs, dev = svt._minimax_fit(sigma, degree, svt._HEADROOM)
    m_fit = max(600, 4 * degree)
    nodes = np.cos(np.pi * (np.arange(m_fit) + 0.5) / m_fit)
    xs = 0.5 * (sigma + 1.0) + 0.5 * (1.0 - sigma) * nodes
    on_grid = np.max(np.abs(OddPolynomial(coeffs)(xs) - svt._HEADROOM * sigma / xs))
    assert on_grid > 0.0
    assert dev == pytest.approx(on_grid, rel=1e-6)


def test_backend_rejects_eps_below_the_lp_tolerance():
    # every fit up to the search cap 4 degree_budget = 274 misses 0.75 eps;
    # trusting the LP's t returned degree 47, 544 eps off on a fine grid
    assert int(np.ceil(4.0 * degree_budget(0.5, 1e-10))) == 274
    with pytest.raises(ConfigError, match=r"search cap 274 .*LP cap 1200"):
        backend_inverse_poly(0.5, 1e-10)


# ---------------------------------------------------------------------------
# the degree search
# ---------------------------------------------------------------------------

def _doubling_bisection_search(sigma, eps, shrink, degree_cap):
    """Reference: double the degree until a fit passes, then bisect back."""
    degree_cap = min(degree_cap, svt._LP_DEGREE_CAP)
    d = max(3, int(np.ceil(1.0 / sigma)))
    if d % 2 == 0:
        d += 1
    best = None
    lo = 1
    while d <= degree_cap:
        coeffs, dev = svt._minimax_fit(sigma, d, shrink)
        if dev <= eps:
            best = (d, coeffs)
            break
        lo = d
        d = 2 * d + 1
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
             min(cap, svt._LP_DEGREE_CAP))]


def _assert_same_search(sigma, eps, shrink, degree_cap):
    want = _doubling_bisection_search(sigma, eps, shrink, degree_cap)
    svt._search_inverse_poly.cache_clear()
    got = svt._search_inverse_poly(sigma, eps, shrink, degree_cap)
    svt._search_inverse_poly.cache_clear()
    if want is None:
        assert got is None
    else:
        assert got.cheb_coeffs.tobytes() == want.cheb_coeffs.tobytes()


@pytest.mark.parametrize("sigma,eps,shrink,degree_cap", [
    *(args for sigma in (0.2, 0.3, 0.5) for eps in (1e-1, 1e-2, 1e-3)
      for args in _backend_searches(sigma, eps)),
    (0.3, 1e-3, 1.0, 40),        # the cap stops the doubling: None
    (0.2, 1e-3, 0.75, 40),       # None; degree 33 passes in round (23, 47]
    (0.2, 1e-3, 0.75, 50),       # degree 33, in the last round under the cap
])
def test_search_matches_doubling_bisection(sigma, eps, shrink, degree_cap):
    _assert_same_search(sigma, eps, shrink, degree_cap)


@pytest.mark.slow
def test_search_matches_doubling_bisection_on_lv_poly():
    _assert_same_search(*_backend_searches(0.025, 3e-2 / 9)[1])


def test_lv_poly_search_fits(monkeypatch):
    fits = []
    minimax_fit = svt._minimax_fit

    def counted(sigma, degree, shrink=1.0):
        fits.append((degree, shrink))
        return minimax_fit(sigma, degree, shrink)

    monkeypatch.setattr(svt, "_minimax_fit", counted)
    svt._search_inverse_poly.cache_clear()
    try:
        q, headroom = backend_inverse_poly(0.025, 3e-2 / 9)
    finally:
        svt._search_inverse_poly.cache_clear()
    assert (q.degree, headroom) == (229, svt._HEADROOM)
    # the failure floor proves 41, 83, 167 and 227 short of the target
    assert fits == [(229, svt._HEADROOM)]


@given(st.floats(0.15, 0.6), st.floats(1e-3, 5e-2),
       st.sampled_from([1.0, svt._HEADROOM]))
@settings(max_examples=25, deadline=None)
def test_search_returns_a_locally_minimal_degree(sigma, eps, shrink):
    deviation = {}
    minimax_fit = svt._minimax_fit

    def recorded(sigma, degree, shrink=1.0):
        coeffs, dev = minimax_fit(sigma, degree, shrink)
        deviation[degree] = dev
        return coeffs, dev

    svt._minimax_fit = recorded
    svt._search_inverse_poly.cache_clear()
    try:
        # cap 65 keeps the slowly converging saturated fits cheap
        q = svt._search_inverse_poly(sigma, eps, shrink, 65)
    finally:
        svt._minimax_fit = minimax_fit
        svt._search_inverse_poly.cache_clear()

    def fitted(degree):         # a degree the failure floor settled is fit here
        if degree not in deviation:
            deviation[degree] = minimax_fit(sigma, degree, shrink)[1]
        return deviation[degree]

    if q is None:               # the last doubling degree under the cap failed
        top = max(3, int(np.ceil(1.0 / sigma))) | 1
        while 2 * top + 1 <= 65:
            top = 2 * top + 1
        assert fitted(top) > eps
        return
    d = q.cheb_coeffs.size - 1
    assert deviation[d] <= eps
    if d > 3:                   # the search never fits degree 1
        assert fitted(d - 2) > eps


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
    monkeypatch.setattr(svt, "_failure_floor", lambda *args: None)
    # sigma 0.2 starts the doubling rounds at degree 5: 5, 11, 23, ...
    q = svt._search_inverse_poly.__wrapped__(0.2, 1e-3, 1.0, 100)
    assert fits == [5, 11, 23, 17, 15]
    assert len(set(fits)) == len(fits)
    # the smallest passing odd degree of the bracket (11, 23]
    assert q.degree == min(d for d in range(13, 24, 2) if deviation(d) <= 1e-3)
    assert q.degree - 2 in fits and deviation(q.degree - 2) > 1e-3


def test_certified_failures_make_no_lp_call(monkeypatch):
    # deviation 2^(-d/2) crosses eps 1e-3 between 19 and 21; a floor that
    # reports the LP's deviation for every failing degree leaves only the
    # pass at 21 to the LP, and the search visits the same degrees
    def deviation(d):
        return 2.0 ** (-d / 2)

    visits, fits = [], []

    def tabled(sigma, degree, shrink=1.0):
        visits.append(degree)
        fits.append(degree)
        coeffs = np.zeros(degree + 1)
        coeffs[degree] = 1.0
        return coeffs, deviation(degree)

    def floor(sigma, degree, shrink, eps):
        if deviation(degree) <= eps:
            return None
        visits.append(degree)
        return deviation(degree)

    monkeypatch.setattr(svt, "_minimax_fit", tabled)
    monkeypatch.setattr(svt, "_failure_floor", floor)
    q = svt._search_inverse_poly.__wrapped__(0.2, 1e-3, 1.0, 100)
    assert (q.degree, fits, visits) == (21, [21], [5, 11, 21, 19])
    visits.clear()
    fits.clear()
    monkeypatch.setattr(svt, "_failure_floor", lambda *args: None)
    assert svt._search_inverse_poly.__wrapped__(0.2, 1e-3, 1.0, 100).degree == 21
    assert fits == visits == [5, 11, 21, 19]


# ---------------------------------------------------------------------------
# the failure floor
# ---------------------------------------------------------------------------

@given(st.floats(0.02, 0.6), st.integers(1, 115).map(lambda k: 2 * k + 1),
       st.sampled_from([1.0, svt._HEADROOM]))
@settings(max_examples=10, deadline=None)
@example(0.025, 41, svt._HEADROOM)          # tight: lv_poly's first fit
@example(0.107, 11, 1.0)                    # tight on the saturated target
def test_failure_floor_never_exceeds_the_lp_deviation(sigma, degree, shrink):
    _, dev = svt._minimax_fit(sigma, degree, shrink)
    floor = svt._failure_floor(sigma, degree, shrink, 0.0)
    # a tight floor meets the LP's deviation to within rounding
    assert floor is None or floor <= dev * (1.0 + 1e-12)
    # and never proves that a fit fails at the deviation it reaches
    assert svt._failure_floor(sigma, degree, shrink, dev) is None


@pytest.mark.parametrize("degree", [41, 83, 167, 227, 229])
def test_failure_floor_is_tight_on_lv_poly(degree):
    sigma, shrink = 0.025, svt._HEADROOM
    floor = svt._failure_floor(sigma, degree, shrink, 0.0)
    assert floor is not None
    assert floor == pytest.approx(svt._minimax_fit(sigma, degree, shrink)[1],
                                  rel=1e-4)


def test_failure_floor_declines_where_the_cap_binds():
    # the Remez polynomial at sigma 0.03, degree 307 reaches |q| = 1.09 on
    # (0, sigma), so the capped LP deviates by more than the floor
    assert svt._failure_floor(0.03, 307, svt._HEADROOM, 0.0) is None


def test_failure_floor_declines_a_singular_reference(monkeypatch):
    fit_grids = svt._fit_grids

    def flat(sigma, degree, shrink):
        xs, target, phi_fit, phi_cap = fit_grids(sigma, degree, shrink)
        return xs, target, np.zeros_like(phi_fit), phi_cap

    monkeypatch.setattr(svt, "_fit_grids", flat)
    assert svt._failure_floor(0.1, 21, svt._HEADROOM, 0.0) is None


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
