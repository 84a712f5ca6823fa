import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from qnls import (ConditioningError, CostLedger, InputError, InversionConfig,
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
            (sigma, svt._HEADROOM * eps, svt._HEADROOM, cap)]


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
    assert len(fits) <= 5
    assert all(shrink == svt._HEADROOM for _, shrink in fits)


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
    if q is None:               # the last doubling degree under the cap failed
        top = max(3, int(np.ceil(1.0 / sigma))) | 1
        while 2 * top + 1 <= 65:
            top = 2 * top + 1
        assert deviation[top] > eps
        return
    d = q.cheb_coeffs.size - 1
    assert deviation[d] <= eps
    if d > 3:                   # the search never fits degree 1
        assert deviation[d - 2] > eps


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
