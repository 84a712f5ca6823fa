import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from qnls import (ConditioningError, ConfigError, CostLedger, InputError,
                  InversionConfig, backend_inverse_poly, be_of_matrix,
                  degree_budget, max_eigenvalue, min_eigenvalue,
                  min_singular_value, sv_invert, svt)


def spectrum_matrix(d, lo, hi, seed):
    rng = np.random.default_rng(seed)
    u = ortho_group.rvs(d, random_state=seed)
    v = ortho_group.rvs(d, random_state=seed + 1)
    return u @ np.diag(rng.uniform(lo, hi, d)) @ v.T


# ---------------------------------------------------------------------------
# config and the closed-form polynomial
# ---------------------------------------------------------------------------

def test_inversion_config_validation():
    with pytest.raises(InputError):
        InversionConfig(0.0, 1e-3)
    for eps in (-1.0, np.inf, np.nan):
        with pytest.raises(InputError):
            InversionConfig(0.5, eps)
    with pytest.raises(InputError):
        InversionConfig(0.5, 1e-3, "magic")


def _chebyshev_bound(sigma, k):
    """1/T_k(a) = 1/cosh(2k atanh(sigma)): the closed form's deviation."""
    return 1.0 / np.cosh(2.0 * k * np.arctanh(sigma))


def _sweep_pairs():
    """110 (sigma, eps) pairs: a 6 x 5 grid over sigma in [0.05, 0.7] and
    eps in [1e-4, 1e-1], and 80 drawn from RandomState(7) in that box."""
    rs = np.random.RandomState(7)
    grid = [(s, e) for s in np.linspace(0.05, 0.7, 6)
            for e in np.geomspace(1e-4, 1e-1, 5)]
    return grid + list(zip(rs.uniform(0.05, 0.7, 80),
                           10.0 ** rs.uniform(-4.0, -1.0, 80)))


def test_q_meets_eps_on_sigma_to_1_and_the_unit_cap_on_0_to_1():
    # the bounds are analytic on [sigma, 1] and certified with a Bernstein
    # margin on [0, sigma]; here they are read on 200 001-point grids
    xs = np.linspace(0.0, 1.0, 200001)
    for sigma, eps in _sweep_pairs():
        q, h = backend_inverse_poly(sigma, eps)
        values = q(xs)
        above = xs >= sigma
        assert np.max(np.abs(values[above] / h - sigma / xs[above])) <= eps, \
            (sigma, eps)
        assert np.max(np.abs(values)) <= 1.0, (sigma, eps)


def test_degree_is_the_least_the_chebyshev_bound_allows():
    # k = (degree + 1)/2 meets 1/T_k(a) <= eps, and k - 1 would not
    for sigma, eps in _sweep_pairs():
        k = (backend_inverse_poly(sigma, eps)[0].degree + 1) // 2
        assert _chebyshev_bound(sigma, k) <= eps
        assert k == 1 or _chebyshev_bound(sigma, k - 1) > eps


def _reference(sigma, k, c, s):
    """c (1 - T_k(a - b s^2)/T_k(a))/s in 50-digit arithmetic."""
    with mpmath.workdps(50):
        sigma, s = mpmath.mpf(sigma), mpmath.mpf(s)
        a, b = (1 + sigma ** 2) / (1 - sigma ** 2), 2 / (1 - sigma ** 2)
        cheb = lambda z: mpmath.re(mpmath.cosh(k * mpmath.acosh(z)))
        return mpmath.mpf(c) * (1 - cheb(a - b * s * s) / cheb(a)) / s


@pytest.mark.parametrize("sigma,eps", [
    (0.025, 3e-2 / 9),          # lv_poly's steps: degree 255
    (0.025, 5e-3 / 9),          # lv_poly_cap's: degree 327, scaled under the cap
    (0.005, 3e-2 / 9),          # near the GPE nx=4 poly solve's: degree 1279
    (0.5, 1e-12)])              # degree 51, scaled under the cap
def test_q_matches_a_50_digit_reference(sigma, eps):
    # the recurrence does not cancel at small s, where the difference form
    # h sigma (1 - P_k(s^2))/s loses every digit
    q, h = backend_inverse_poly(sigma, eps)
    k = (q.degree + 1) // 2
    for s in np.geomspace(1e-9, 1.0, 28):
        want = float(_reference(sigma, k, h * sigma, s))
        assert abs(q(s) - want) <= 1e-12 * want, s


@pytest.mark.parametrize("sigma,degree", [(0.3, 1), (0.5, 13), (0.025, 255)])
def test_minimax_fit_equioscillates_in_the_relative_error(sigma, degree):
    # x q(x)/(shrink sigma) - 1 = -P_k(x^2) reaches -+1/T_k(a), alternating,
    # at the k + 1 points where T_k(a - b x^2) = +-1, sigma and 1 included:
    # by Chebyshev's alternation theorem no odd polynomial of the degree has
    # a smaller relative error to shrink sigma/x on [sigma, 1]
    shrink, k = 0.6, (degree + 1) // 2
    q = svt._minimax_fit(sigma, degree, shrink)
    assert q.degree == degree
    # x^2 = (a - cos(pi i/k))/b, with a - 1 = b sigma^2 and b = 2/(1 - sigma^2)
    half = np.sin(0.5 * np.pi * np.arange(k + 1) / k)
    xs = np.sqrt(sigma ** 2 + (1 - sigma ** 2) * half ** 2)
    relative = xs * q(xs) / (shrink * sigma) - 1.0
    np.testing.assert_allclose(
        relative, -(-1.0) ** np.arange(k + 1) * _chebyshev_bound(sigma, k),
        rtol=1e-9, atol=1e-14)


def test_q_keeps_the_shape_of_its_argument():
    q, _ = backend_inverse_poly(0.5, 0.1)
    xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert q(xs).shape == (3, 4) and q(xs[0]).shape == (4,)
    assert np.ndim(q(0.7)) == 0 and q(0.7) == q(np.array([0.7]))[0]


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


def test_backend_poly_budget_and_accuracy():
    q, headroom = backend_inverse_poly(0.3, 1e-3)
    assert q.degree <= 4 * degree_budget(0.3, 1e-3)
    xs = np.linspace(0.3, 1.0, 2000)
    assert np.max(np.abs(q(xs) / headroom - 0.3 / xs)) <= 1e-3
    full = np.linspace(-1.0, 1.0, 4001)
    assert np.max(np.abs(q(full))) <= 1.0 + 1e-9


def test_degree_budget_is_the_lemmas_degree_scale():
    # (1/sigma) log2(1/(sigma eps)): the inversion charge's unit, which the
    # closed-form degree does not read
    assert degree_budget(0.25, 1e-4) == pytest.approx(4.0 * np.log2(4e4),
                                                      rel=1e-15)
    assert degree_budget(0.5, 1e-12) == pytest.approx(2.0 * np.log2(2e12),
                                                      rel=1e-15)


def test_backend_meets_eps_1e_12_at_sigma_0_5():
    # degree 51; a numerical fit's roundoff stopped near 4e-12 here
    q, headroom = backend_inverse_poly(0.5, 1e-12)
    assert q.degree == 51
    xs = np.linspace(0.5, 1.0, 200001)
    assert np.max(np.abs(q(xs) / headroom - 0.5 / xs)) <= 1e-12


@pytest.mark.parametrize("sigma", [1e-11, 1e-12, 1e-30])
def test_backend_refuses_a_degree_above_the_ceiling_before_building(
        monkeypatch, sigma):
    # the degree, about 7.6/sigma, is compared in float before anything is
    # built or evaluated; no degree-3 q near 0, 1.0 off sigma/x at sigma
    built, build = [], svt._minimax_fit
    monkeypatch.setattr(svt, "_minimax_fit",
                        lambda *args: built.append(args) or build(*args))
    with pytest.raises(ConfigError, match=r"above the ceiling 4095;"):
        backend_inverse_poly(sigma, 1e-3)
    assert built == []


@pytest.mark.parametrize("k,admitted", [(2048, True), (2049, False)])
def test_the_ceiling_admits_degree_4095_and_no_more(k, admitted):
    # sigma with acosh(1/eps)/(2 atanh(sigma)) = k - 1/2, so degree 2k - 1
    eps = 0.1
    sigma = float(np.tanh(np.arccosh(1.0 / eps) / (2.0 * k - 1.0)))
    if admitted:
        assert backend_inverse_poly(sigma, eps)[0].degree == 2 * k - 1
    else:
        with pytest.raises(ConfigError, match=r"needs degree 4\.1e\+03"):
            backend_inverse_poly(sigma, eps)


def test_backend_scales_a_cap_bound_fit_under_the_unit_cap():
    # at eps 1e-4 the closed form to 0.75 sigma/x reaches |q| > 1 on [0, sigma]
    sigma, eps = 0.5, 1e-4
    q, headroom = backend_inverse_poly(sigma, eps)
    assert headroom < svt._HEADROOM
    xs = np.linspace(0.0, 1.0, 200001)
    assert np.max(np.abs(q(xs))) <= svt._UNIT_CAP
    above = xs >= sigma
    assert np.max(np.abs(q(xs[above]) / headroom - sigma / xs[above])) <= eps
    fit = svt._minimax_fit(sigma, q.degree, svt._HEADROOM)
    np.testing.assert_allclose(q(xs) / headroom, fit(xs) / svt._HEADROOM,
                               rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# the degree: the closed form's, against a search over measured fits
# ---------------------------------------------------------------------------

def _deviation(sigma, degree, shrink):
    """max |q - shrink sigma/x| of _minimax_fit's q on a grid of [sigma, 1]
    that holds sigma, where the closed form's deviation peaks."""
    xs = np.linspace(sigma, 1.0, 20001)
    q = svt._minimax_fit(sigma, degree, shrink)
    return float(np.max(np.abs(q(xs) - shrink * sigma / xs)))


def _doubling_bisection_search(sigma, eps, shrink, degree_cap):
    """Reference: the least odd degree, up to degree_cap, whose measured
    deviation is at most eps, found by doubling from 1/sigma and bisecting
    back; None where the last odd degree under the cap fails."""
    top = (min(degree_cap, svt._DEGREE_CAP) - 1) | 1
    d = min(max(3, int(np.ceil(1.0 / sigma))) | 1, top)
    lo, hi = -1, None
    while d > lo:
        if _deviation(sigma, d, shrink) <= eps:
            hi = d
            break
        lo = d
        d = min(2 * d + 1, top)
    if hi is None:
        return None
    while hi - lo > 2:
        mid = ((lo + hi) // 2) | 1
        if mid >= hi:
            break
        if _deviation(sigma, mid, shrink) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def _closed_form_degree(sigma, eps, shrink, degree_cap):
    """The backend's degree for |q - shrink sigma/x| <= eps, or None above
    degree_cap."""
    degree = svt._inverse_poly_degree(sigma, eps / shrink)
    return int(degree) if degree <= degree_cap else None


def _targets(sigma, eps):
    """(sigma, eps, shrink, degree_cap) of a saturated sigma/x target and a
    headroom one, each capped at 4 degree_budget and at 257 or 1200."""
    cap = max(int(np.ceil(4.0 * degree_budget(sigma, eps))), 3)
    return [(sigma, eps, 1.0, min(cap, 257)),
            (sigma, svt._HEADROOM * eps, svt._HEADROOM, min(cap, 1200))]


def _assert_same_degree(sigma, eps, shrink, degree_cap):
    want = _doubling_bisection_search(sigma, eps, shrink, degree_cap)
    assert _closed_form_degree(sigma, eps, shrink, degree_cap) == want


@pytest.mark.parametrize("sigma,eps,shrink,degree_cap", [
    *(args for sigma in (0.2, 0.3, 0.5) for eps in (1e-1, 1e-2, 1e-3)
      for args in _targets(sigma, eps)),
    _targets(0.1, 1e-2)[1],                  # degree 53
    _targets(0.025, 5e-3 / 9)[1],            # the digest's lv_poly_cap step
    (0.3, 1e-3, 1.0, 40),        # degree 25
    (0.2, 1e-3, 0.75, 40),       # degree 37
    (0.2, 1e-3, 0.75, 50),       # degree 37
    (0.2, 1e-3, 0.75, 36),       # degree 37, above the cap: None
])
def test_search_matches_doubling_bisection(sigma, eps, shrink, degree_cap):
    # the closed form's degree is the least that a search over fits finds
    _assert_same_degree(sigma, eps, shrink, degree_cap)


def test_search_matches_doubling_bisection_on_lv_poly():
    _assert_same_degree(*_targets(0.025, 3e-2 / 9)[1])


@pytest.mark.parametrize("sigma,eps", [(0.5, 1e-2), (0.3, 1e-2), (0.2, 3e-2)])
def test_backend_degree_at_most_saturated(sigma, eps):
    # the headroom kernel 0.75 sigma/x needs no higher degree than the least
    # whose fit to the saturated sigma/x passes
    saturated = _doubling_bisection_search(*_targets(sigma, eps)[0])
    assert saturated is not None
    assert backend_inverse_poly(sigma, eps)[0].degree <= saturated


@given(st.floats(0.15, 0.6), st.floats(1e-3, 5e-2),
       st.sampled_from([1.0, svt._HEADROOM]))
@settings(max_examples=25, deadline=None)
def test_search_returns_a_locally_minimal_degree(sigma, eps, shrink):
    # the fit at the closed form's degree passes and the one below it fails
    found = int(svt._inverse_poly_degree(sigma, eps / shrink))
    assert _deviation(sigma, found, shrink) <= eps
    assert found == 1 or _deviation(sigma, found - 2, shrink) > eps


def _count_fits(monkeypatch):
    fits, minimax_fit = [], svt._minimax_fit

    def counted(sigma, degree, shrink):
        fits.append((degree, shrink))
        return minimax_fit(sigma, degree, shrink)

    monkeypatch.setattr(svt, "_minimax_fit", counted)
    return fits


def test_lv_poly_search_fits(monkeypatch):
    fits = _count_fits(monkeypatch)
    q, headroom = backend_inverse_poly(0.025, 3e-2 / 9)
    assert (q.degree, headroom) == (255, svt._HEADROOM)
    # one fit, at the closed form's degree; no neighbour is tried
    assert fits == [(255, svt._HEADROOM)]


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("sigma", [0.5, 0.3, 0.2, 0.1, 0.05])
def test_search_fits_at_most_three_degrees(monkeypatch, sigma, eps):
    # the Chebyshev bound gives the degree: the backend fits it alone
    fits = _count_fits(monkeypatch)
    q, _ = backend_inverse_poly(sigma, eps)
    assert fits == [(q.degree, svt._HEADROOM)]


def test_backend_takes_the_cap_sup_once_per_search(monkeypatch):
    # each inversion certifies the unit cap once, on the q it builds
    sups, unit_sup = [], svt._unit_sup

    def counted(q):
        sups.append(q.degree)
        return unit_sup(q)

    monkeypatch.setattr(svt, "_unit_sup", counted)
    q, _ = backend_inverse_poly(0.025, 3e-2 / 9)
    assert sups == [255]
    again, _ = backend_inverse_poly(0.025, 3e-2 / 9)
    assert sups == [255, 255] and again == q


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
    # q(0.1) / h = 0.917 where the exact backend's cutoff gives 0
    m = np.diag([1.0, 0.6, 0.1])
    if rotated:
        m = ortho_group.rvs(3, random_state=5) @ m @ ortho_group.rvs(
            3, random_state=6).T
    out = sv_invert(be_of_matrix(m), InversionConfig(0.5, 1e-4, "poly"))
    q, h = backend_inverse_poly(0.5, 1e-4)
    u, s, vh = np.linalg.svd(m)
    expected = vh.T @ np.diag(q(s)) @ u.T / h
    assert np.max(np.abs(out.extract() - expected)) <= 1e-12
    assert q(0.1) / h == pytest.approx(0.917, abs=1e-3)


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
