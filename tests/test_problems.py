import numpy as np
import pytest

from qnls import (DeskScaleError, InputError, classical_newton, gradient_md,
                  mixed_evaluate)
from qnls.problems import (GPE_AUX_VALUE, GpeParams, LvParams,
                           gpe_default_guess, gpe_discretize, gpe_scale,
                           lv_default_guess, lv_discretize, lv_scaled_root,
                           random_system)
from qnls.problem_io import dumps_problem, parse_problem
from qnls.quantum_newton import system_evaluators

from conftest import fd_gradient, spy_dense_blocks

import io


# ---------------------------------------------------------------------------
# Lotka-Volterra
# ---------------------------------------------------------------------------

def test_lv_equilibrium_constant_trajectory_is_root():
    params = LvParams(1.5, 3.0, 0.8, 2.0, 0.1, 3, v0=0.8 / 2.0, p0=1.5 / 3.0)
    ms = lv_discretize(params)
    x = lv_default_guess(params)      # constant trajectory at the equilibrium
    assert np.linalg.norm(mixed_evaluate(ms, x)) <= 1e-12


def test_lv_zero_dt_keeps_initial_densities():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.0, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    root = lv_scaled_root(params)
    expected = lv_default_guess(params)
    assert np.allclose(root, expected)
    assert np.linalg.norm(mixed_evaluate(ms, root)) <= 1e-12


def test_lv_classical_newton_converges():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    f, j = system_evaluators(ms)
    trace = classical_newton(f, j, lv_default_guess(params), 6, tol=1e-10)
    assert trace.residuals[-1] <= 1e-10
    assert len(trace.iterates) <= 7
    # forward Euler orbit is the exact root
    assert np.allclose(trace.iterates[-1], lv_scaled_root(params), atol=1e-9)


def test_lv_steps_one_is_purely_linear():
    ms = lv_discretize(LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 1, 1.2, 0.9))
    assert ms.nonlinear is None


# ---------------------------------------------------------------------------
# Gross-Pitaevskii
# ---------------------------------------------------------------------------

def gpe_params(nx=4, g=1.0, seed=42, vconst=0.2):
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-0.5, 0.5, nx) + 1j * rng.uniform(-0.5, 0.5, nx)
    return GpeParams(nx, 0.5, g, np.full(nx, vconst), 0.05, 0.5, psi)


def test_gpe_flat_free_evolution_fixed_point():
    # without walls the scheme's flat free solution is psi' = psi; with the
    # zero boundary the linear solve recovers it away from the edges
    params = GpeParams(5, 0.5, 0.0, np.zeros(5), 0.05, 0.5,
                       np.full(5, 0.3 + 0.0j))
    ms = gpe_discretize(params)
    assert ms.nonlinear is None and ms.n == 10
    # interior equations are satisfied exactly by psi' = psi
    res = mixed_evaluate(ms, gpe_default_guess(params))
    interior = np.concatenate([res[1:4], res[6:9]])
    assert np.linalg.norm(interior) <= 1e-12


def test_gpe_g_zero_is_linear():
    ms = gpe_discretize(gpe_params(g=0.0))
    assert ms.nonlinear is None
    assert ms.n == 8


def test_gpe_residual_at_newton_root():
    params = gpe_params()
    ms = gpe_discretize(params)
    f, j = system_evaluators(ms)
    trace = classical_newton(f, j, gpe_default_guess(params), 10, tol=1e-12)
    assert trace.residuals[-1] <= 1e-10


def test_gpe_recovered_root_solves_crank_nicolson():
    params = gpe_params()
    ms = gpe_discretize(params)
    f, j = system_evaluators(ms)
    trace = classical_newton(f, j, gpe_default_guess(params), 10, tol=1e-13)
    root = trace.iterates[-1]
    assert root[-1] == pytest.approx(GPE_AUX_VALUE, abs=1e-10)
    lam = gpe_scale(params)
    nx = params.nx
    psi_new = (root[:nx] + 1j * root[nx:2 * nx]) * lam
    psi, dt, dx = params.psi_prev, params.dt, params.dx
    kin = params.hbar2_over_2m / 2.0
    for j_ in range(nx):
        lap_new = ((psi_new[j_ + 1] if j_ + 1 < nx else 0)
                   - 2 * psi_new[j_] + (psi_new[j_ - 1] if j_ > 0 else 0))
        lap_old = ((psi[j_ + 1] if j_ + 1 < nx else 0)
                   - 2 * psi[j_] + (psi[j_ - 1] if j_ > 0 else 0))
        val = (1j * (psi_new[j_] - psi[j_]) / dt
               + kin * (lap_new + lap_old) / dx ** 2
               + params.potential[j_] * (psi_new[j_] + psi[j_]) / 2
               + params.g * (abs(psi_new[j_]) ** 2 + abs(psi[j_]) ** 2) / 2
               * psi_new[j_])
        assert abs(val) <= 1e-9


def test_gpe_rejects_small_grid():
    with pytest.raises(InputError):
        GpeParams(2, 0.5, 1.0, np.zeros(2), 0.05, 0.5, np.zeros(2, complex))


@pytest.mark.parametrize("field, value", [
    ("dt", np.inf), ("dx", np.nan), ("hbar2_over_2m", np.nan), ("g", np.inf),
    ("potential", np.array([0.0, np.nan, 0.0])),
    ("psi_prev", np.array([0.1, complex(0.0, np.inf), 0.1])),
], ids=["dt-inf", "dx-nan", "hbar2m-nan", "g-inf", "potential-nan",
        "psi-inf"])
def test_gpe_rejects_non_finite_parameters(field, value):
    kw = dict(nx=3, hbar2_over_2m=0.5, g=1.0, potential=np.zeros(3), dt=0.05,
              dx=0.5, psi_prev=np.full(3, 0.1 + 0.1j))
    kw[field] = value
    with pytest.raises(InputError, match="parameters must be finite"):
        GpeParams(**kw)


def test_gpe_guess_stays_subunit():
    params = gpe_params(seed=3)
    assert np.linalg.norm(gpe_default_guess(params)) < 1.0


@pytest.mark.parametrize("discretize, params, shown", [
    (gpe_discretize, gpe_params(nx=32), r"65\^2 = 4225"),     # the first refused nx
    (gpe_discretize, gpe_params(nx=2000), r"4001\^2 = 16008001"),
    (lv_discretize, LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3000, 1.2, 0.9), 6000),
], ids=["gpe-nx32", "gpe-nx2000", "lv-steps3000"])
def test_generators_refuse_an_over_cap_size_before_building(discretize,
                                                            params, shown):
    # the cap is checked before any n-length monomial exists, so a refused
    # size costs no memory that grows with n
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(DeskScaleError,
                           match=rf"^{shown} exceeds desk-scale cap 4096$"):
            discretize(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lv_canonicalization_never_densifies_an_equation(monkeypatch):
    # an LV equation has 2 nonzeros, and its norm bounds come from those
    # entries, so canonicalizing a 600-equation chain takes no 2-D norm and
    # builds no dense block, not even a 2 x 2 one
    dense_blocks = spy_dense_blocks(monkeypatch)
    ms = lv_discretize(LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 300, 1.2, 0.9, 4.0))
    assert ms.n == 600
    assert dense_blocks == []


# ---------------------------------------------------------------------------
# random systems
# ---------------------------------------------------------------------------

def test_random_system_deterministic():
    a = random_system(3, 2, 2, seed=7)
    b = random_system(3, 2, 2, seed=7)
    for ea, eb in zip(a.equations, b.equations):
        assert np.array_equal(ea.rows, eb.rows)
        assert np.array_equal(ea.vals, eb.vals)


def test_random_system_canonical_by_construction():
    for seed in range(8):
        system = random_system(3, 2, 3, seed=seed)
        assert system.p * system.max_norm() <= np.sqrt(3) + 1e-9
        assert max(a.max_abs_entry() for a in system.equations) <= 1.0 + 1e-12
        for a in system.equations:
            assert a.sparsity() <= system.sparsity


def test_random_system_gradient_oracle():
    system = random_system(3, 2, 2, seed=7)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 3)
    for i in range(3):
        fd = fd_gradient(system, i, x)
        g = gradient_md(system, i, x)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


# ---------------------------------------------------------------------------
# round-trips through the problem format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: random_system(3, 2, 2, seed=4),
    lambda: lv_discretize(LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)),
    lambda: gpe_discretize(gpe_params()),
    lambda: gpe_discretize(gpe_params(g=0.0)),
])
def test_generated_systems_roundtrip_bit_identical(make):
    problem = make()
    text = dumps_problem(problem)
    parsed = parse_problem(io.StringIO(text))
    assert dumps_problem(parsed) == text
