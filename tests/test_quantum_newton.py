import numpy as np
import pytest

from qnls import (CostLedger, DegenerateReferenceError, InputError,
                  InversionConfig, NewtonState, PolynomialSystem,
                  RescaleRequiredError, SparseMatrix, be_from_vector,
                  be_product, be_transpose, build_A_blockdiag,
                  build_M_blockdiag, build_P, classical_newton, evaluate,
                  gradient_md, init_heuristic, jacobian,
                  jacobian_be, jacobian_sandwich_be, newton_solve,
                  newton_step, norm_estimate, recover_vector, rhs_be,
                  sv_invert)
from qnls.problems import (GpeParams, LvParams, gpe_default_guess,
                           gpe_discretize, lv_default_guess, lv_discretize,
                           random_system)
from qnls.quantum_newton import system_evaluators


def state_for(x, k=0):
    led = CostLedger()
    return NewtonState(k, be_from_vector(x, led), np.asarray(x, float),
                       float(np.dot(x, x)), None, None, led)


CFG = InversionConfig(1e-3, 1e-6, "exact")


# ---------------------------------------------------------------------------
# operator builders
# ---------------------------------------------------------------------------

def test_build_m_p1_is_blockdiag_of_equations(diag_system):
    be_m = build_M_blockdiag(diag_system)
    expected = np.zeros((4, 4))
    expected[:2, :2] = diag_system.equations[0].to_dense()
    expected[2:, 2:] = diag_system.equations[1].to_dense()
    assert np.allclose(be_m.extract(), expected, atol=1e-11)
    assert be_m.alpha == pytest.approx(diag_system.p * diag_system.sparsity)


def test_build_m_identity_p2_doubles():
    # identity coefficients sit exactly on the p*||A|| = sqrt(n) boundary
    eye = SparseMatrix.identity(16)
    system = PolynomialSystem(4, 2, 1, (eye,) * 4)
    be_m = build_M_blockdiag(system)
    assert np.allclose(be_m.extract(), 2.0 * np.eye(64), atol=1e-11)
    assert be_m.alpha == pytest.approx(2.0)


def test_build_m_matches_dense_assembly_random():
    system = random_system(2, 2, 2, seed=12)
    be_m = build_M_blockdiag(system)
    d = 4
    expected = np.zeros((8, 8))
    for i in range(2):
        expected[i * d:(i + 1) * d, i * d:(i + 1) * d] = system.m_d(i).to_dense()
    assert np.linalg.norm(be_m.extract() - expected, 2) <= 1e-9


def test_build_m_requires_canonical():
    a = SparseMatrix.from_dense(np.diag([2.0, 0.0]))
    system = PolynomialSystem(2, 1, 1, (a, a))
    with pytest.raises(RescaleRequiredError):
        build_M_blockdiag(system)


def test_build_a_halves_blocks():
    a1 = SparseMatrix.from_dense(2.0 * np.eye(1))
    system = PolynomialSystem(1, 1, 1, (a1,))
    be_a = build_A_blockdiag(system)
    assert np.allclose(be_a.extract(), np.eye(1))
    system2 = random_system(2, 1, 2, seed=2)
    be_a2 = build_A_blockdiag(system2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5 * system2.equations[0].to_dense()
    expected[2:, 2:] = 0.5 * system2.equations[1].to_dense()
    assert np.linalg.norm(be_a2.extract() - expected, 2) <= 1e-10


def test_build_p_zero_point_and_basis(diag_system):
    be_m = build_M_blockdiag(diag_system)
    be0 = be_from_vector(np.zeros(2))
    p0 = build_P(be_m, be0, 1, 2)
    assert np.linalg.norm(p0.extract(), 2) <= 1e-11
    bex = be_from_vector(np.array([1.0, 0.0]))
    p1 = build_P(be_m, bex, 1, 2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = np.outer(gradient_md(diag_system, 0, np.array([1.0, 0.0])),
                                [1.0, 0.0])
    assert np.allclose(p1.extract(), expected, atol=1e-10)


def test_build_p_random_matches_gradient_oracle():
    system = random_system(2, 2, 2, seed=4)
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.5, 0.5, 2)
    bex = be_from_vector(x)
    be_m = build_M_blockdiag(system)
    be_p = build_P(be_m, bex, 2, 2)
    xxt = np.outer(x, x)
    expected = np.zeros((8, 8))
    for i in range(2):
        block = np.kron(xxt, np.outer(gradient_md(system, i, x), x))
        expected[i * 4:(i + 1) * 4, i * 4:(i + 1) * 4] = block
    assert np.linalg.norm(be_p.extract() - expected, 2) <= 1e-9


# ---------------------------------------------------------------------------
# Jacobian and RHS encodings
# ---------------------------------------------------------------------------

def test_jacobian_be_basis_point(diag_system):
    bex = be_from_vector(np.array([1.0, 0.0]))
    be_j, gamma = jacobian_be(diag_system, bex)
    assert gamma == pytest.approx(1.0)
    expected = jacobian(diag_system, np.array([1.0, 0.0])) / np.sqrt(2)
    assert np.allclose(be_j.extract(), expected, atol=1e-10)


def test_jacobian_be_diag_overlap(diag_system):
    x = np.array([0.6, 0.8])
    be_j, gamma = jacobian_be(diag_system, be_from_vector(x))
    assert gamma == pytest.approx(0.6)
    expected = 0.6 * jacobian(diag_system, x) / np.sqrt(2)
    assert np.allclose(be_j.extract(), expected, atol=1e-10)


def test_jacobian_be_random_general_reference():
    system = random_system(3, 2, 2, seed=9)
    rng = np.random.default_rng(10)
    x = rng.uniform(-0.4, 0.4, 3)
    ref = rng.uniform(0.2, 1.0, 3)
    be_j, gamma = jacobian_be(system, be_from_vector(x), ref, x_hint=x)
    refu = ref / np.linalg.norm(ref)
    assert gamma == pytest.approx(float(refu @ x))
    expected = gamma ** 3 * jacobian(system, x) / np.sqrt(3)
    assert np.linalg.norm(be_j.extract() - expected, 2) <= 1e-8
    # generic headroom allows amplifying the full p*s factor away
    assert be_j.alpha == pytest.approx(1.0)


def test_appendix_c_matrix_elements():
    system = random_system(3, 2, 2, seed=20)
    rng = np.random.default_rng(21)
    x = rng.uniform(-0.4, 0.4, 3)
    x[0] = 0.45
    sand, gamma = jacobian_sandwich_be(system, be_from_vector(x))
    block = sand.block
    for k in range(3):
        grad = gradient_md(system, k, x)
        for i in range(3):
            expected = gamma ** 3 * grad[i] / (np.sqrt(3) * sand.alpha)
            assert block[i, k] == pytest.approx(expected, abs=1e-9)


def test_degenerate_reference_raises(diag_system):
    x = np.array([0.0, 0.7])
    with pytest.raises(DegenerateReferenceError):
        jacobian_be(diag_system, be_from_vector(x), x_hint=x)


def test_rhs_be_zero_and_diag(diag_system):
    be0 = be_from_vector(np.zeros(2))
    with pytest.raises(DegenerateReferenceError):
        rhs_be(diag_system, be0)            # gamma = 0 at the origin
    x = np.array([0.6, 0.8])
    be_r = rhs_be(diag_system, be_from_vector(x))
    gamma = x[0]
    f = evaluate(diag_system, x)
    expected = gamma * np.outer(f, x) / np.sqrt(2)
    assert np.allclose(be_r.extract(), expected, atol=1e-10)
    # transpose gives x F(x)^T
    assert np.allclose(be_transpose(be_r).extract(), expected.T, atol=1e-10)


def test_rhs_be_random():
    system = random_system(3, 2, 2, seed=30)
    rng = np.random.default_rng(31)
    x = rng.uniform(-0.4, 0.4, 3)
    x[0] = 0.4
    be_r = rhs_be(system, be_from_vector(x), x_hint=x)
    expected = x[0] ** 3 * np.outer(evaluate(system, x), x) / np.sqrt(3)
    assert np.linalg.norm(be_r.extract() - expected, 2) <= 1e-8


def test_factor_cancellation_invariant():
    """inverse-encoding times rhs-encoding leaves only the sigma scaling."""
    system = random_system(2, 1, 2, seed=33)
    rng = np.random.default_rng(34)
    x = rng.uniform(0.2, 0.6, 2)
    bex = be_from_vector(x)
    be_j, gamma = jacobian_be(system, bex, x_hint=x)
    sigma = 0.5 * np.linalg.svd(be_j.extract(), compute_uv=False)[-1]
    cfg = InversionConfig(sigma / be_j.alpha, 1e-8)
    inv = sv_invert(be_j, cfg)
    be_r = rhs_be(system, bex, x_hint=x)
    prod = be_product(inv, be_r)
    delta = np.linalg.solve(jacobian(system, x), evaluate(system, x))
    assert np.linalg.norm(prod.extract() - sigma * np.outer(delta, x),
                          2) <= 1e-8


def test_norm_estimate_values():
    assert norm_estimate(be_from_vector(np.array([1.0, 0.0])), 1e-6) == \
        pytest.approx(1.0)
    x = np.array([0.6, 0.0])
    assert norm_estimate(be_from_vector(x), 1e-6) == pytest.approx(0.36)
    rng = np.random.default_rng(35)
    v = rng.normal(size=4)
    v *= 0.7 / np.linalg.norm(v)
    assert norm_estimate(be_from_vector(v), 1e-6) == pytest.approx(
        0.49, abs=1e-6)


def test_recover_vector_sign_and_rank():
    x = np.array([0.3, -0.5, 0.2])
    be = be_from_vector(x)
    rec = recover_vector(be, sign_reference=x)
    assert np.allclose(rec, x, atol=1e-10)
    rec_flip = recover_vector(be, sign_reference=-x)
    assert np.allclose(rec_flip, -x, atol=1e-10)


# ---------------------------------------------------------------------------
# newton_step / newton_solve
# ---------------------------------------------------------------------------

def test_step_homogeneous_contraction(diag_system):
    x = np.array([0.6, 0.6])
    nxt = newton_step(diag_system, state_for(x), CFG)
    assert np.allclose(nxt.x, 0.5 * x, atol=1e-10)
    assert np.allclose(nxt.be_xxT.extract(), 0.25 * np.outer(x, x),
                       atol=1e-10)
    # rank-one preservation
    w = np.linalg.eigvalsh(nxt.be_xxT.extract())
    assert abs(w[:-1]).max() <= 1e-7


def test_step_lv_equilibrium_is_fixed_point():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.0, 1.0)
    ms = lv_discretize(params)
    x = lv_default_guess(params)
    assert np.linalg.norm(system_evaluators(ms)[0](x)) <= 1e-12
    nxt = newton_step(ms, state_for(x), CFG, x_ref=x)
    assert np.allclose(nxt.x, x, atol=1e-9)


def test_step_lv_matches_classical_newton():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    x0 = lv_default_guess(params) + 0.05
    f, j = system_evaluators(ms)
    x_classical = x0 - np.linalg.solve(j(x0), f(x0))
    nxt = newton_step(ms, state_for(x0), CFG, x_ref=x0)
    assert np.linalg.norm(nxt.be_xxT.extract()
                          - np.outer(x_classical, x_classical)) <= 1e-6
    assert np.allclose(nxt.x, x_classical, atol=1e-8)


def test_solve_zero_iterations(diag_system):
    x0 = np.array([0.5, 0.5])
    state, trace = newton_solve(diag_system, x0, 0, CFG)
    assert state.k == 0
    assert len(trace.rows) == 1
    assert trace.rows[0].sigma_k is None


def test_solve_contraction_three_steps(diag_system):
    x0 = np.array([0.6, 0.6]) / np.linalg.norm([0.6, 0.6]) * 0.6
    state, trace = newton_solve(diag_system, x0, 3, CFG)
    assert np.linalg.norm(state.x) == pytest.approx(
        0.125 * np.linalg.norm(x0), abs=1e-8)
    assert trace.halted is None
    assert [r.k for r in trace.rows] == [0, 1, 2, 3]


def test_solve_lv_trace_against_classical():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    x0 = lv_default_guess(params)
    state, trace = newton_solve(ms, x0, 5, CFG, gamma_reference="previous")
    f, j = system_evaluators(ms)
    ctr = classical_newton(f, j, x0, 5, tol=0.0)
    assert trace.halted is None
    for row, res in zip(trace.rows, ctr.residuals):
        assert abs(row.residual - res) <= 1e-6
    # residual decays quadratically until float noise
    r = [row.residual for row in trace.rows]
    assert r[2] <= 100.0 * r[1] ** 2


def test_solver_path_builds_no_unitary(monkeypatch):
    # encodings carry only their blocks; only verify/dump_text dilate
    def no_dilation(block):
        raise AssertionError("the solver path built a unitary")

    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    monkeypatch.setattr("qnls.block_encoding._dilate", no_dilation)
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    state, trace = newton_solve(ms, lv_default_guess(params), 2, CFG,
                                gamma_reference="previous")
    assert trace.halted is None
    assert state.k == 2


def test_certified_blocks_skip_the_norm_svd(monkeypatch):
    # every n^{p+1}-dimensional block of a GPE step is certified a
    # contraction by a cheap norm bound, so _mk runs no dense 2-norm on it
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    psi = np.array([0.3 + 0.1j, -0.2 + 0.25j, 0.15 - 0.3j])
    params = GpeParams(3, 0.5, 1.0, np.full(3, 0.2), 0.05, 0.5, psi)
    system = gpe_discretize(params)
    big = system.n ** (system.nonlinear.p + 1)
    real_norm = np.linalg.norm
    two_norm_dims = []

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            two_norm_dims.append(np.shape(x)[0])
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    state, trace = newton_solve(system, gpe_default_guess(params), 1, CFG)
    assert trace.halted is None
    assert state.k == 1
    assert two_norm_dims                 # the n x n checks still run
    assert big not in two_norm_dims


def test_solve_halts_below_sigma_floor(diag_system):
    # at x = 0 the homogeneous Jacobian vanishes
    x0 = np.array([1e-4, 1e-4])
    state, trace = newton_solve(diag_system, x0, 3,
                                InversionConfig(0.5, 1e-6, "exact"))
    assert trace.halted is not None
    assert state.k == 0


def test_solve_rejects_bad_inputs(diag_system):
    with pytest.raises(InputError):
        newton_solve(diag_system, np.array([2.0, 0.0]), 1, CFG)
    with pytest.raises(InputError):
        newton_solve(diag_system, np.array([np.nan, 0.1]), 1, CFG)
    with pytest.raises(InputError):
        newton_solve(diag_system, np.array([0.1, 0.1]), -1, CFG)
    with pytest.raises(InputError):
        newton_solve(diag_system, np.array([0.1, 0.1]), 1, CFG,
                     gamma_reference="nope")


@pytest.mark.slow
def test_poly_backend_step_matches_exact():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    x0 = lv_default_guess(params) + 0.03
    cfg_poly = InversionConfig(0.03, 1e-3, "poly")
    cfg_exact = InversionConfig(0.03, 1e-3, "exact")
    nxt_p = newton_step(ms, state_for(x0), cfg_poly, x_ref=x0)
    nxt_e = newton_step(ms, state_for(x0), cfg_exact, x_ref=x0)
    assert np.linalg.norm(nxt_p.be_xxT.extract()
                          - nxt_e.be_xxT.extract(), 2) <= 5e-3


# ---------------------------------------------------------------------------
# initialization heuristic
# ---------------------------------------------------------------------------

def test_init_heuristic_single_candidate():
    system = random_system(2, 1, 2, seed=40)
    c = np.array([0.2, 0.1])
    best, vals = init_heuristic(system, [c])
    assert np.allclose(best, c)
    assert len(vals) == 1


def test_init_heuristic_prefers_exact_root(diag_system):
    root = np.zeros(2)
    other = np.array([0.5, 0.5])
    best, vals = init_heuristic(diag_system, [other, root])
    assert np.allclose(best, root)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)


def test_init_heuristic_agrees_with_direct_argmin():
    system = random_system(3, 1, 2, seed=41)
    rng = np.random.default_rng(42)
    cands = [rng.uniform(-0.4, 0.4, 3) for _ in range(10)]
    best, vals = init_heuristic(system, cands)
    direct = [np.max(np.abs(evaluate(system, c))) for c in cands]
    assert np.allclose(vals, direct, atol=1e-8)
    assert np.allclose(best, cands[int(np.argmin(direct))])


def test_init_heuristic_rejects_empty_and_large():
    system = random_system(2, 1, 2, seed=43)
    with pytest.raises(InputError):
        init_heuristic(system, [])
    with pytest.raises(InputError):
        init_heuristic(system, [np.array([1.2, 0.0])])
