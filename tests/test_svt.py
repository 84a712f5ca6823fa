import numpy as np
import pytest
from scipy.stats import ortho_group

from qnls import (ConditioningError, CostLedger, InputError, InversionConfig,
                  OddPolynomial, backend_inverse_poly, be_of_matrix,
                  build_inverse_poly, degree_budget, max_eigenvalue,
                  min_eigenvalue, min_singular_value, sv_invert)


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
    with pytest.raises(InputError):
        InversionConfig(0.5, -1.0)
    with pytest.raises(InputError):
        InversionConfig(0.5, 1e-3, "magic")


def test_odd_polynomial_rejects_even_coefficients():
    with pytest.raises(InputError):
        OddPolynomial(np.array([0.5, 1.0]))


def test_build_inverse_poly_deviation_grid():
    q = build_inverse_poly(0.5, 0.1)
    xs = np.linspace(0.5, 1.0, 1000)
    assert np.max(np.abs(q(xs) - 0.5 / xs)) <= 0.1
    full = np.linspace(-1.0, 1.0, 2001)
    assert np.max(np.abs(q(full))) <= 1.0 + 1e-9


def test_build_inverse_poly_odd_symmetry():
    q = build_inverse_poly(0.5, 0.1)
    xs = np.linspace(-1.0, 1.0, 501)
    assert np.allclose(q(-xs), -q(xs))


@pytest.mark.slow
def test_build_inverse_poly_degree_growth():
    d_half = build_inverse_poly(0.5, 1e-3).degree
    d_quarter = build_inverse_poly(0.25, 1e-3).degree
    assert d_quarter <= 2.5 * d_half


def test_backend_poly_budget_and_accuracy():
    q, headroom = backend_inverse_poly(0.3, 1e-3)
    assert q.degree <= 4 * degree_budget(0.3, 1e-3)
    xs = np.linspace(0.3, 1.0, 2000)
    assert np.max(np.abs(q(xs) / headroom - 0.3 / xs)) <= 1e-3
    full = np.linspace(-1.0, 1.0, 4001)
    assert np.max(np.abs(q(full))) <= 1.0 + 1e-9


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
