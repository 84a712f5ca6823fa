from dataclasses import replace
import warnings

import numpy as np
import pytest

from qnls import (BlockEncoding, CostLedger, DegenerateReferenceError,
                  DeskScaleError, InputError, InversionConfig, MixedSystem,
                  NewtonState, PolynomialSystem, RescaleRequiredError,
                  SparseMatrix, StepFrame, be_from_sparse, be_from_vector,
                  be_of_matrix, be_product, be_sum, be_tensor,
                  be_transpose, build_A_blockdiag,
                  build_M_blockdiag, build_P, classical_newton, evaluate,
                  gradient_md, init_heuristic, jacobian, jacobian_be,
                  jacobian_sandwich_be, newton_solve, newton_step,
                  norm_estimate, recover_vector, rhs_be, sv_invert)
from qnls.problems import (GpeParams, LvParams, gpe_default_guess,
                           gpe_discretize, lv_default_guess, lv_discretize,
                           random_system)
from qnls.poly_system import _swap_factor
from qnls.quantum_newton import (_blockdiag, _built_once, _ChargeLog,
                                 _kron_apply, system_evaluators)

from conftest import count_two_norms


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
    p0 = build_P(be_m, be0, 1)
    assert np.linalg.norm(p0.extract(), 2) <= 1e-11
    bex = be_from_vector(np.array([1.0, 0.0]))
    p1 = build_P(be_m, bex, 1)
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
    be_p = build_P(be_m, bex, 2)
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
    x = np.array([1.0, 0.0])
    frame = StepFrame(x, diag_system.p)
    be_j, gamma = jacobian_be(diag_system, be_from_vector(x), frame), frame.gamma
    assert gamma == pytest.approx(1.0)
    expected = jacobian(diag_system, x) / np.sqrt(2)
    assert np.allclose(be_j.extract(), expected, atol=1e-10)


def test_jacobian_be_diag_overlap(diag_system):
    x = np.array([0.6, 0.8])
    frame = StepFrame(x, diag_system.p)
    be_j, gamma = jacobian_be(diag_system, be_from_vector(x), frame), frame.gamma
    assert gamma == pytest.approx(0.6)
    expected = 0.6 * jacobian(diag_system, x) / np.sqrt(2)
    assert np.allclose(be_j.extract(), expected, atol=1e-10)


def test_jacobian_be_random_general_reference():
    system = random_system(3, 2, 2, seed=9)
    rng = np.random.default_rng(10)
    x = rng.uniform(-0.4, 0.4, 3)
    ref = rng.uniform(0.2, 1.0, 3)
    frame = StepFrame(x, system.p, ref)
    be_j, gamma = jacobian_be(system, be_from_vector(x), frame), frame.gamma
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
    frame = StepFrame(x, system.p)
    sand = jacobian_sandwich_be(system, be_from_vector(x), frame)
    gamma, block = frame.gamma, sand.block
    for k in range(3):
        grad = gradient_md(system, k, x)
        for i in range(3):
            expected = gamma ** 3 * grad[i] / (np.sqrt(3) * sand.alpha)
            assert block[i, k] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("p", [1, 2])
def test_e1_reference_matches_default(p):
    system = random_system(3, p, 2, seed=20)
    x = np.array([0.45, -0.2, 0.3])
    be = be_from_vector(x)
    e1 = np.array([1.0, 0.0, 0.0])
    frame, frame_e1 = StepFrame(x, p), StepFrame(x, p, e1)
    sand = jacobian_sandwich_be(system, be, frame)
    sand_e1 = jacobian_sandwich_be(system, be, frame_e1)
    assert frame.gamma == frame_e1.gamma == 0.45
    assert np.array_equal(sand.block, sand_e1.block)
    assert np.array_equal(rhs_be(system, be, frame).block,
                          rhs_be(system, be, frame_e1).block)


def test_degenerate_reference_raises(diag_system):
    x = np.array([0.0, 0.7])
    with pytest.raises(DegenerateReferenceError):
        jacobian_be(diag_system, be_from_vector(x), StepFrame(x, diag_system.p))


def test_rhs_be_zero_and_diag(diag_system):
    be0 = be_from_vector(np.zeros(2))
    with pytest.raises(DegenerateReferenceError):
        rhs_be(diag_system, be0, StepFrame(np.zeros(2), diag_system.p))  # gamma = 0
    x = np.array([0.6, 0.8])
    be_r = rhs_be(diag_system, be_from_vector(x), StepFrame(x, diag_system.p))
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
    be_r = rhs_be(system, be_from_vector(x), StepFrame(x, system.p))
    expected = x[0] ** 3 * np.outer(evaluate(system, x), x) / np.sqrt(3)
    assert np.linalg.norm(be_r.extract() - expected, 2) <= 1e-8


def test_factor_cancellation_invariant():
    """inverse-encoding times rhs-encoding leaves only the sigma scaling."""
    system = random_system(2, 1, 2, seed=33)
    rng = np.random.default_rng(34)
    x = rng.uniform(0.2, 0.6, 2)
    bex = be_from_vector(x)
    frame = StepFrame(x, system.p)
    be_j = jacobian_be(system, bex, frame)
    sigma = 0.5 * np.linalg.svd(be_j.extract(), compute_uv=False)[-1]
    cfg = InversionConfig(sigma / be_j.alpha, 1e-8)
    inv = sv_invert(be_j, cfg)
    be_r = rhs_be(system, bex, frame)
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


def _mirror_step_system(quadratic):
    """f_i = 0.5 x_i + 0.1 (+ 0.05 x_i^2): from x0 = (0.3, 0.3) the first
    Newton step crosses the origin, so x'.x < 0."""
    eqs = tuple(SparseMatrix.from_entries(2, 2, [(i, i, 0.1)]) for i in range(2))
    nonlinear = PolynomialSystem(2, 1, 1, eqs) if quadratic else None
    return MixedSystem(2, np.full(2, 0.1), SparseMatrix.identity(2).scaled(0.5),
                       nonlinear)


@pytest.mark.parametrize("quadratic", [False, True], ids=["linear", "quadratic"])
def test_step_keeps_the_sign_of_the_newton_iterate(quadratic):
    # x x^T fixes x' only up to sign; the step's own x'.x picks the branch,
    # so an iterate that crosses to the far side of the origin is kept
    system = _mirror_step_system(quadratic)
    x0 = np.array([0.3, 0.3])
    _, trace = newton_solve(system, x0, 3, CFG)
    f, j = system_evaluators(system)
    res = classical_newton(f, j, x0, 3, tol=0.0).residuals
    res += res[-1:] * (4 - len(res))          # it stops once at an exact root
    assert trace.halted is None and len(trace.rows) == 4
    for row, r in zip(trace.rows, res):
        assert abs(row.residual - r) <= 1e-9 * res[0]


def _lv_t3():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    return lv_discretize(params), lv_default_guess(params), 3


def _gpe_nx3():
    params = GpeParams(3, 0.5, 1.0, np.zeros(3), 0.05, 0.5,
                       np.array([0.3 + 0.1j, 0.2 - 0.2j, -0.1 + 0.3j]))
    return gpe_discretize(params), gpe_default_guess(params), 1


@pytest.mark.parametrize("make, ref", [
    (_lv_t3, "e1"), (_lv_t3, "x0"), (_lv_t3, "previous"),
    (_gpe_nx3, "previous")], ids=["lv-e1", "lv-x0", "lv-previous",
                                  "gpe-previous"])
def test_debug_checks_pass_and_leave_the_trace(monkeypatch, make, ref):
    # QNLS_DEBUG=1 runs M's intended assembly, the sandwiches' intended
    # matrices and the classical-step check on every step
    system, x0, steps = make()
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    _, plain = newton_solve(system, x0, steps, CFG, gamma_reference=ref)
    monkeypatch.setenv("QNLS_DEBUG", "1")
    _, debug = newton_solve(system, x0, steps, CFG, gamma_reference=ref)
    assert plain.halted is None and debug.halted is None
    assert debug.to_csv() == plain.to_csv()
    if make is _lv_t3 and ref != "e1":
        f, j = system_evaluators(system)
        ctr = classical_newton(f, j, x0, steps, tol=0.0)
        for row, res in zip(plain.rows, ctr.residuals):
            assert abs(row.residual - res) <= 1e-6


def _spy(calls, name, real):
    """real, appending name to calls on every call."""
    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return counted


def test_step_invariant_encodings_are_built_once_per_system(monkeypatch):
    # M, A and the linear part (the last two sparse encodings) are built on
    # the first step only; every later step replays their ledger charges
    import qnls.quantum_newton as qn

    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    calls = []
    for name in ("be_from_sparse", "build_M_blockdiag"):
        monkeypatch.setattr(qn, name, _spy(calls, name, getattr(qn, name)))
    counts, ledgers = {}, {}
    for steps in (1, 3):
        system, x0, _ = _gpe_nx3()
        assert system.nonlinear.p == 2
        calls.clear()
        state, trace = newton_solve(system, x0, steps, CFG)
        assert trace.halted is None and state.k == steps
        counts[steps], ledgers[steps] = sorted(calls), trace.rows
    assert counts[1] == counts[3] == ["be_from_sparse"] * 2 + ["build_M_blockdiag"]
    # the second step is charged as the first
    r0, r1, r2 = ledgers[3][:3]
    assert r2.oracle_queries - r1.oracle_queries == pytest.approx(
        r1.oracle_queries - r0.oracle_queries, rel=1e-12)


@pytest.mark.parametrize("ref", ["e1", "x0", "previous"])
def test_a_step_builds_its_corner_columns_once(monkeypatch, ref):
    # both sandwiches read one frame, so a step builds the Householder
    # columns of the reference and of the uniform state once each, and a
    # step without a nonlinear part builds none
    import qnls.quantum_newton as qn

    calls = []
    monkeypatch.setattr(qn, "_householder_column",
                        _spy(calls, "column", qn._householder_column))
    system, x0, steps = _lv_t3()
    _, trace = newton_solve(system, x0, steps, CFG, gamma_reference=ref)
    assert trace.halted is None and len(calls) == 2 * steps
    calls.clear()
    _, trace = newton_solve(_mirror_step_system(False), np.array([0.3, 0.3]),
                            3, CFG, gamma_reference=ref)
    assert trace.halted is None and len(trace.rows) == 4 and calls == []


@pytest.mark.parametrize("ref", [[np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0]],
                         ids=["nan", "inf"])
def test_a_non_finite_reference_is_degenerate(ref):
    # a NaN overlap fails the floor check instead of reaching the SVD
    system = random_system(3, 1, 2, seed=20)
    x = np.array([0.45, -0.2, 0.3])
    with pytest.raises(DegenerateReferenceError, match="overlap nan below"):
        newton_step(system, state_for(x), CFG, x_ref=np.array(ref))


@pytest.mark.parametrize("ref", [[np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0]],
                         ids=["nan", "inf"])
def test_a_non_finite_reference_is_rejected_before_dividing(ref):
    # dividing [inf, 0, 0] by its norm warned "invalid value encountered in
    # divide" before the typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateReferenceError, match="overlap nan below"):
            StepFrame(np.array([0.45, -0.2, 0.3]), 1, x_ref=np.array(ref))


def test_debug_after_a_plain_solve_still_verifies_m(monkeypatch):
    # the memo is keyed on QNLS_DEBUG, so a debug solve of a system first
    # solved without it still builds M with its intended matrix
    import qnls.quantum_newton as qn

    built = []

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    real = qn.build_M_blockdiag
    monkeypatch.setattr(qn, "build_M_blockdiag", recording)
    system, x0, steps = _lv_t3()
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    _, plain = newton_solve(system, x0, steps, CFG)
    assert [be.intended for be in built] == [None]
    monkeypatch.setenv("QNLS_DEBUG", "1")
    _, debug = newton_solve(system, x0, steps, CFG)
    assert len(built) == 2 and built[1].intended is not None
    built[1].verify()
    assert plain.halted is None and debug.to_csv() == plain.to_csv()


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
def test_solver_path_builds_no_unitary(monkeypatch, debug):
    # encodings carry only their blocks, and verify checks the block's
    # norm, so no solve dilates, with or without QNLS_DEBUG
    def no_dilation(block):
        raise AssertionError("the solver path built a unitary")

    if debug:
        monkeypatch.setenv("QNLS_DEBUG", "1")
    else:
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
    two_norms = count_two_norms(monkeypatch)
    state, trace = newton_solve(system, gpe_default_guess(params), 1, CFG)
    assert trace.halted is None
    assert state.k == 1
    assert two_norms                     # the n x n checks still run
    assert all(s[0] != big for s in two_norms)


def test_each_amplification_runs_one_dense_norm(monkeypatch):
    # _amplify_to_unit's 2-norm picks the factor; be_amplify's overflow
    # check asks _norm_above, so it adds no second n x n 2-norm
    import qnls.quantum_newton as qn

    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    system, x0, _ = _gpe_nx3()
    two_norms, amplified = count_two_norms(monkeypatch), []
    monkeypatch.setattr(qn, "_amplify_to_unit", _spy(
        amplified, "amplify", qn._amplify_to_unit))
    state, trace = newton_solve(system, x0, 3, CFG)
    assert trace.halted is None and state.k == 3
    assert len(amplified) == 6                   # two per step
    assert two_norms.count((system.n, system.n)) == 6


def test_debug_verify_runs_no_dense_norm(monkeypatch):
    # under QNLS_DEBUG every encoding is verified when built; the cheap norm
    # bounds settle both of verify's checks, so it runs no 2-norm SVD
    from qnls import BlockEncoding

    monkeypatch.setenv("QNLS_DEBUG", "1")
    inside, verified, two_norms = [0], [0], []
    real_verify, real_norm = BlockEncoding.verify, np.linalg.norm

    def counting_verify(self):
        inside[0] += 1
        try:
            real_verify(self)
        finally:
            inside[0] -= 1
        verified[0] += 1

    def counting_norm(x, ord=None, *args, **kwargs):
        if inside[0] and ord == 2:
            two_norms.append(np.shape(x))
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(BlockEncoding, "verify", counting_verify)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 2, 1.2, 0.9)
    state, trace = newton_solve(lv_discretize(params), lv_default_guess(params),
                                2, CFG)
    assert trace.halted is None and state.k == 2
    assert verified[0] > 0
    assert two_norms == []


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


def test_solve_checks_the_cap_before_any_encoding(monkeypatch):
    import qnls.quantum_newton as qn

    def no_call(*args, **kwargs):
        raise AssertionError("the solve went past its checks")

    monkeypatch.setattr(qn, "newton_step", no_call)
    monkeypatch.setattr(qn, "be_from_vector", no_call)
    x0 = np.full(65, 0.1)
    system = random_system(65, 1, 1, seed=4)        # n^{p+1} = 4225
    with pytest.raises(DeskScaleError,
                       match="logical_dim 4225 exceeds cap 4096"):
        newton_solve(system, x0, 1, CFG)
    # without a nonlinear part the encoded dimension is n itself
    linear = MixedSystem(65, np.zeros(65), SparseMatrix.identity(65), None)
    with pytest.raises(AssertionError, match="went past its checks"):
        newton_solve(linear, x0, 1, CFG)


# ---------------------------------------------------------------------------
# the sandwich corners against the dense construction they replace
# ---------------------------------------------------------------------------

def _dense_householder(target):
    """Symmetric orthogonal matrix sending e_0 to the unit vector along target."""
    v = target / np.linalg.norm(target)
    w = v.copy()
    w[0] -= 1.0
    nw2 = float(np.dot(w, w))
    if nw2 < 1e-28:
        return np.eye(v.size)
    return np.eye(v.size) - 2.0 * np.outer(w, w) / nw2


def _dense_householder_uniform(n):
    return _dense_householder(np.full(n, 1.0 / np.sqrt(n)))


def _dense_perm_order(dims, axes):
    return np.arange(int(np.prod(dims))).reshape(dims).transpose(axes).ravel()


def _dense_apply_left(op, mat, dims, axis):
    """(I x .. op .. x I) @ mat, op acting on row register `axis`."""
    rows, cols = mat.shape
    t = np.moveaxis(mat.reshape(dims + (cols,)), axis, 0)
    shp = t.shape
    t = (op @ t.reshape(shp[0], -1)).reshape(shp)
    return np.moveaxis(t, 0, axis).reshape(rows, cols)


def _dense_apply_right(mat, op, dims, axis):
    """mat @ (I x .. op .. x I), op acting on column register `axis`."""
    rows, cols = mat.shape
    t = np.tensordot(mat.reshape((rows,) + dims), op, axes=([1 + axis], [0]))
    return np.moveaxis(t, -1, 1 + axis).reshape(rows, cols)


def _dense_jacobian_sandwich(system, be_xxT, x, x_ref, ledger):
    """Block, alpha, eps, cost of the sandwich corner from the whole P."""
    n, p = system.n, system.p
    refu = StepFrame(x, p, x_ref).refu
    be_m = _built_once(build_M_blockdiag, system, ledger)
    eye = be_of_matrix(np.eye(n))
    left = be_tensor([eye] + [be_xxT] * (p - 1) + [eye], ledger)
    right = be_tensor([eye] + [be_xxT] * p, ledger)
    be_p = be_product(left, be_product(be_m, right, ledger), ledger)
    dims = (n,) * (p + 1)
    sigma1 = _dense_perm_order(dims, (p,) + tuple(range(p - 1)) + (p - 1,))
    sigma2 = _dense_perm_order(dims, tuple(range(1, p)) + (0, p))
    w = be_p.block[:, np.argsort(sigma1)][sigma2, :]
    w = _dense_apply_left(_dense_householder_uniform(n), w, dims, p - 1)
    vref = _dense_householder(refu)
    for ax in range(p - 1):
        w = _dense_apply_left(vref, w, dims, ax)
        w = _dense_apply_right(w, vref, dims, ax)
    w = _dense_apply_right(w, vref, dims, p - 1)
    ledger.charge("gradient_sandwich", primitive=2.0)
    return w[:n, :n], be_p.alpha, be_p.eps, be_p.cost + 2.0


def _dense_rhs_sandwich(system, be_xxT, x, x_ref, ledger):
    """Block, alpha, eps, cost of the corner of the whole T A T."""
    n, p = system.n, system.p
    refu = StepFrame(x, p, x_ref).refu
    be_a = _built_once(build_A_blockdiag, system, ledger)
    tens = be_tensor([be_of_matrix(np.eye(n))] + [be_xxT] * p, ledger)
    be_r = be_product(tens, be_product(be_a, tens, ledger), ledger)
    dims = (n,) * (p + 1)
    sigma3 = _dense_perm_order(dims, (p,) + tuple(range(1, p)) + (0,))
    w = _dense_apply_right(be_r.block, _dense_householder_uniform(n), dims, 0)
    vref = _dense_householder(refu)
    for ax in range(1, p):
        w = _dense_apply_right(w, vref, dims, ax)
    w = w[sigma3, :]
    for ax in range(p):
        w = _dense_apply_left(vref, w, dims, ax)
    ledger.charge("rhs_sandwich", primitive=2.0)
    return w[:n, :n], be_r.alpha, be_r.eps, be_r.cost + 2.0


def _random_sandwich_case(n, p, ref):
    system = random_system(n, p, 2, seed=10 * n + p)
    rng = np.random.default_rng(100 * n + p)
    x = rng.uniform(-1.0, 1.0, n)
    x[0] = 0.3 + abs(x[0])                       # keep gamma off the floor
    x *= 0.9 / np.linalg.norm(x)
    # a state with alpha != 1 and a nonzero eps, as after a step
    be = replace(be_from_vector(x), alpha=1.25, eps=3e-7, cost=7.0)
    return system, be, x, (None if ref == "e1" else rng.uniform(0.2, 1.0, n))


def _stepped_sandwich_case(make, ref):
    system, x0, _ = make()
    state = newton_step(system, state_for(x0), CFG)
    return (system.nonlinear, state.be_xxT, state.x,
            None if ref == "e1" else x0)


_SANDWICH_CASES = (
    [pytest.param(lambda n=n, p=p, r=r: _random_sandwich_case(n, p, r),
                  id=f"random-n{n}-p{p}-{r}")
     for n, p in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1),
                  (4, 2), (4, 3)] for r in ("e1", "ref")]
    + [pytest.param(lambda m=m, r=r: _stepped_sandwich_case(m, r),
                    id=f"{m.__name__[1:]}-{r}")
       for m in (_lv_t3, _gpe_nx3) for r in ("e1", "x0")])


@pytest.mark.parametrize("case", _SANDWICH_CASES)
def test_sandwich_corners_match_the_dense_construction(monkeypatch, case):
    # the corners from Kronecker column maps equal the corners of the dense
    # P and T A T sandwiches to 1e-12, with the same budget and charges
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    system, be, x, ref = case()
    assert system.n ** (system.p + 1) <= 512
    for fast, dense in ((jacobian_sandwich_be, _dense_jacobian_sandwich),
                        (rhs_be, _dense_rhs_sandwich)):
        led_fast, led_dense = CostLedger(), CostLedger()
        out = fast(system, be, StepFrame(x, system.p, ref), ledger=led_fast)
        block, alpha, eps, cost = dense(system, be, x, ref, led_dense)
        assert np.max(np.abs(out.block - block)) <= 1e-12
        assert (out.alpha, out.eps, out.cost) == (alpha, eps, cost)
        assert led_fast == led_dense
        assert list(led_fast.notes) == list(led_dense.notes)


def _dense_frame(n, p, refu):
    """E and U as the dense Householders applied to unit columns."""
    dims, vref = (n,) * (p + 1), _dense_householder(refu)
    e = _kron_apply([None] + [vref] * p, np.kron(np.eye(n), np.eye(n ** p, 1)),
                    dims)
    u = _kron_apply([_dense_householder_uniform(n)] + [vref] * (p - 1) + [None],
                    np.eye(n ** (p + 1), n), dims)
    return e, u


def test_frame_equals_the_dense_householder_columns():
    # E and U from Kronecker products of the H e_0 vectors are bitwise the
    # dense reflections applied to the unit corner columns
    rng = np.random.default_rng(16)
    cases = 0
    for n in range(1, 7):
        for p in range(1, 5):
            if n ** (p + 1) > 4096:
                continue
            e1 = np.eye(n)[0]
            for refu in (e1, np.full(n, 1.0 / np.sqrt(n)),
                         *(r / np.linalg.norm(r)
                           for r in rng.uniform(-1.0, 1.0, (3, n)))):
                frame = StepFrame(refu, p, refu)
                e, u = frame.columns
                e_ref, u_ref = _dense_frame(n, p, frame.refu)
                assert np.array_equal(e, e_ref) and np.array_equal(u, u_ref)
                cases += 1
    assert cases == 5 * 23


def _summed_parts_m(system, ledger):
    """M as the sum of the p sparse encodings of blockdiag(Q_j A_i Q_j)."""
    n, p, s = system.n, system.p, system.sparsity
    parts = [be_from_sparse(_blockdiag([
                 SparseMatrix(a.dim_rows, a.dim_cols, _swap_factor(a.rows, n, p, j),
                              _swap_factor(a.cols, n, p, j), a.vals)
                 for a in system.equations]), s, ledger)
             for j in range(1, p + 1)]
    return be_sum(parts, ledger=ledger)


# random systems n 2-4, p 1-3 (each case draws s = 1, 2, 3, so p s runs over
# powers of two and over 3, 6, 9), and the LV T=3 and GPE nx=3 systems
_SYSTEM_CASES = [
    pytest.param(lambda n=n, p=p: [random_system(n, p, s, seed=100 * s + 10 * p + n)
                                   for s in (1, 2, 3)], id=f"random-n{n}-p{p}")
    for n in (2, 3, 4) for p in (1, 2, 3)] + [
    pytest.param(lambda m=m: [m()[0].nonlinear], id=m.__name__[1:])
    for m in (_lv_t3, _gpe_nx3)]


@pytest.mark.parametrize("debug", ["", "1"], ids=["plain", "debug"])
@pytest.mark.parametrize("case", _SYSTEM_CASES)
def test_m_from_merged_entries_matches_the_summed_parts(monkeypatch, case,
                                                        debug):
    # one encoding of the merged M_D^i has the block of the per-permutation
    # sum (bitwise when p s is a power of two), its budget and its charges
    monkeypatch.setenv("QNLS_DEBUG", debug)
    for system in case():
        assert system.n ** (system.p + 1) <= 512
        log, ref_log = _ChargeLog(), _ChargeLog()
        out, ref = build_M_blockdiag(system, log), _summed_parts_m(system, ref_log)
        ps = system.p * system.sparsity
        if ps & (ps - 1) == 0:
            assert np.array_equal(out.block, ref.block)
        assert np.max(np.abs(out.block - ref.block)) <= 1e-15
        assert (out.alpha, out.eps, out.cost) == (ref.alpha, ref.eps, ref.cost)
        assert log == ref_log and len(log) == system.p + 1
        assert (out.intended is None) == (ref.intended is None) == (not debug)
        if debug:
            assert np.array_equal(out.intended, ref.intended)


def test_m_keeps_the_sparse_input_checks():
    # entries above 1 are test_build_m_requires_canonical's case
    zero = SparseMatrix(2, 2, np.zeros(0, int), np.zeros(0, int), np.zeros(0))
    with pytest.raises(InputError, match="sparsity must be positive"):
        build_M_blockdiag(PolynomialSystem(2, 1, 0, (zero, zero)))


def test_m_is_one_encoding_of_the_merged_entries(monkeypatch):
    # a p = 2 M is one _mk call, not p sparse encodings and their sum
    import qnls.block_encoding as be_mod
    import qnls.quantum_newton as qn

    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    calls = []
    for mod in (be_mod, qn):
        for name in ("_mk", "be_from_sparse", "be_sum"):
            monkeypatch.setattr(mod, name, _spy(calls, name, getattr(mod, name)))
    system = random_system(3, 2, 2, seed=3)
    build_M_blockdiag(system)
    assert calls == ["_mk"]


@pytest.mark.parametrize("debug", ["", "1"], ids=["plain", "debug"])
@pytest.mark.parametrize("case", _SYSTEM_CASES)
def test_sparse_blocks_are_the_divided_dense_matrices(monkeypatch, case, debug):
    # dividing the entries before densifying gives every block entry the
    # IEEE quotient of the dense division, whether p s is a power of two or
    # not; the undivided matrix is densified only as the debug intended
    monkeypatch.setenv("QNLS_DEBUG", debug)
    for system in case():
        p, s = system.p, system.sparsity
        md = _blockdiag([system.m_d(i) for i in range(system.n)]).to_dense()
        eqs = _blockdiag(system.equations)
        half = _blockdiag([a.scaled(0.5) for a in system.equations]).to_dense()
        be_m, be_a = build_M_blockdiag(system), build_A_blockdiag(system)
        be_eqs = be_from_sparse(eqs, s)
        assert np.array_equal(be_m.block, md / (p * s))
        assert np.array_equal(be_a.block, half / s)
        assert np.array_equal(be_eqs.block, eqs.to_dense() / s)
        assert (be_m.alpha, be_a.alpha, be_eqs.alpha) == (p * s, s, s)
        intended = [be.intended for be in (be_m, be_a, be_eqs)]
        if debug:
            assert all(np.array_equal(got, want) for got, want in
                       zip(intended, (md, half, eqs.to_dense())))
        else:
            assert intended == [None] * 3


def _gpe_nx5():
    params = GpeParams(5, 0.5, 1.0, np.full(5, 0.2), 0.05, 0.5,
                       np.array([0.3, 0.2 - 0.1j, 0.1j, -0.2, 0.1 + 0.2j]))
    return gpe_discretize(params).nonlinear


@pytest.mark.parametrize("build", [build_M_blockdiag, build_A_blockdiag],
                         ids=["M", "A"])
def test_plain_sparse_encoding_holds_one_dense_copy(monkeypatch, build):
    # a plain build holds the divided block and _norm_above's |.| temporary,
    # 2 N^2 doubles; a build that also densified the undivided matrix would
    # hold 3
    import tracemalloc

    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    system = _gpe_nx5()
    big = system.n ** (system.p + 1)
    assert big == 1331
    tracemalloc.start()
    try:
        be = build(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert be.logical_dim == big
    assert peak <= 2.5 * big * big * 8


def _widths(obj):
    if isinstance(obj, BlockEncoding):
        yield obj.logical_dim
    elif isinstance(obj, np.ndarray) and obj.ndim == 2:
        yield max(obj.shape)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _widths(item)


def test_newton_step_composes_no_block_wider_than_n(monkeypatch):
    # once M and A are built, a p = 2 step composes only n x n blocks: the
    # sandwiches keep their n columns and never form an n^{p+1}-square one
    import qnls.block_encoding as be_mod
    import qnls.quantum_newton as qn
    import qnls.svt as svt_mod

    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    system, x0, _ = _gpe_nx3()
    assert system.nonlinear.p == 2
    state = newton_step(system, state_for(x0), CFG)      # builds M and A
    widths = []

    def watch(fn):
        def watched(*args, **kwargs):
            widths.extend(_widths(args))
            out = fn(*args, **kwargs)
            widths.extend(_widths(out))
            return out
        return watched

    for mod in (be_mod, qn, svt_mod):
        for name in ("be_product", "be_tensor", "_mk"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, watch(getattr(mod, name)))
    nxt = newton_step(system, state, CFG)
    assert nxt.k == 2
    assert widths and max(widths) == system.n


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
