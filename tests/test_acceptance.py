"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest
from scipy.stats import ortho_group

from qnls import (CostLedger, InversionConfig, NewtonState, StepFrame,
                  backend_inverse_poly, be_amplify, be_from_vector,
                  be_of_matrix, be_product, be_rescale, be_sum, be_transpose,
                  classical_newton, degree_budget, evaluate, gradient_md,
                  homogenize_odd, jacobian, jacobian_sandwich_be,
                  newton_solve, newton_step, sv_invert)
from qnls.classical_oracle import residual as residual_of
from qnls.poly_system import evaluate_monomials
from qnls.problems import (GpeParams, LvParams, gpe_default_guess,
                           gpe_discretize, lv_discretize, lv_scaled_root,
                           random_system)
from qnls.quantum_newton import system_evaluators

import conftest
from conftest import fd_gradient

CFG = InversionConfig(1e-3, 1e-6, "exact")


def report(num, name):
    line = f"ACCEPTANCE {num:2d} {name}: PASS"
    print(line)
    conftest.acceptance_lines.append(line)


# ---------------------------------------------------------------------------

def test_criterion_01_block_encoding_soundness():
    """100 randomized compositions (d <= 16): extract == dense arithmetic
    within 1e-9 and unitarity within 1e-10, in under 10 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for trial in range(100):
        d = int(rng.choice([2, 3, 4, 8, 16]))
        be = be_of_matrix(rng.uniform(-0.5, 0.5, (d, d)) / np.sqrt(d))
        dense = be.extract()
        for _ in range(int(rng.integers(2, 5))):
            op = rng.integers(0, 5)
            if op == 0:
                other = be_of_matrix(rng.uniform(-0.5, 0.5, (d, d)) / np.sqrt(d))
                be, dense = be_product(be, other), dense @ other.extract()
            elif op == 1:
                other = be_of_matrix(rng.uniform(-0.5, 0.5, (d, d)) / np.sqrt(d))
                sign = int(rng.choice([-1, 1]))
                be = be_sum([be, other], [1, sign])
                dense = dense + sign * other.extract()
            elif op == 2:
                be, dense = be_transpose(be), dense.T
            elif op == 3:
                headroom = (1 - 1e-6) / max(np.linalg.norm(be.block, 2), 1e-12)
                factor = min(2.0, headroom)
                if factor > 1.0:
                    be = be_amplify(be, factor)
            else:
                be, dense = be_rescale(be, 0.5), 0.5 * dense
        assert np.linalg.norm(be.extract() - dense, 2) <= 1e-9
        u = be.unitary
        assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"soundness sweep took {elapsed:.1f}s"
    report(1, "block-encoding calculus soundness")


def test_criterion_02_gradient_oracle():
    """gradient_md vs central finite differences (step 1e-5), rel 1e-6,
    on 50 random systems with n <= 3, p <= 3."""
    rng = np.random.default_rng(202)
    for trial in range(50):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))
        system = random_system(n, p, 2, seed=1000 + trial)
        x = rng.uniform(-1.0, 1.0, n)
        for i in range(n):
            fd = fd_gradient(system, i, x, h=1e-5)
            grad = gradient_md(system, i, x)
            assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))
    report(2, "gradient operator matches finite differences")


def test_criterion_03_euler_identity():
    """J(x) x = 2p F(x) to 1e-10 relative on all generated system flavors."""
    rng = np.random.default_rng(303)
    systems = [random_system(int(rng.integers(2, 4)), int(rng.integers(1, 4)),
                             2, seed=2000 + t) for t in range(20)]
    systems.append(lv_discretize(
        LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)).nonlinear)
    psi = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
    systems.append(gpe_discretize(
        GpeParams(4, 0.5, 1.0, np.full(4, 0.2), 0.05, 0.5, psi)).nonlinear)
    systems.append(homogenize_odd([[(1.0, (3, 0)), (0.5, (1, 2))],
                                   [(1.0, (0, 3)), (-0.7, (2, 1))]]))
    for system in systems:
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, system.n)
            defect = np.linalg.norm(jacobian(system, x) @ x
                                    - 2 * system.p * evaluate(system, x))
            scale = max(1.0, np.linalg.norm(evaluate(system, x)))
            assert defect <= 1e-10 * scale
    report(3, "Euler identity on all generated systems")


def test_criterion_04_appendix_c_identity():
    """Matrix elements of the reference-state construction equal
    gamma^{2p-1} (grad f_k)_i / (sqrt(n) * p * s) within 1e-9, 20 instances."""
    rng = np.random.default_rng(404)
    for trial in range(20):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        system = random_system(n, p, 2, seed=3000 + trial)
        x = rng.uniform(-0.4, 0.4, n)
        x[0] = float(rng.uniform(0.3, 0.5))     # healthy e1 overlap
        frame = StepFrame(x)
        sand = jacobian_sandwich_be(system, be_from_vector(x), frame)
        gamma = frame.gamma
        assert sand.alpha == pytest.approx(system.p * system.sparsity)
        block = sand.block
        for k in range(n):
            grad = gradient_md(system, k, x)
            for i in range(n):
                expected = (gamma ** (2 * p - 1) * grad[i]
                            / (np.sqrt(n) * sand.alpha))
                assert abs(block[i, k] - expected) <= 1e-9
    report(4, "Appendix-C sandwich matrix elements")


def test_criterion_05_inversion_backends():
    """Polynomial backend matches exact-SVD pseudoinversion within 1e-3 on
    50 matrices with spectrum in [0.3, 1]; degree within 4x the budget."""
    rng = np.random.default_rng(505)
    q, headroom = backend_inverse_poly(0.3, 1e-3)
    assert q.degree <= 4.0 * degree_budget(0.3, 1e-3)
    cfg_e = InversionConfig(0.3, 1e-3, "exact")
    cfg_p = InversionConfig(0.3, 1e-3, "poly")
    led = CostLedger()
    for trial in range(50):
        d = int(rng.choice([4, 6, 8]))
        u = ortho_group.rvs(d, random_state=5050 + trial)
        v = ortho_group.rvs(d, random_state=6060 + trial)
        m = u @ np.diag(rng.uniform(0.3, 1.0, d)) @ v.T
        be = be_of_matrix(m)
        ex = sv_invert(be, cfg_e)
        po = sv_invert(be, cfg_p, led)
        gap = np.linalg.norm(ex.extract() - po.extract(), 2)
        assert gap <= 1e-3
    assert led.notes["inverse_poly_degree"] / 50 <= 4.0 * degree_budget(0.3, 1e-3)
    report(5, "inversion backends agree within eps, degree within budget")


def test_criterion_06_homogeneous_contraction():
    """Simulated step on purely homogeneous systems contracts the iterate by
    exactly (1 - 1/(2p)) per step, within 1e-8."""
    rng = np.random.default_rng(606)
    checked = 0
    for trial in range(12):
        n = int(rng.integers(2, 4))
        p = int(rng.integers(1, 3))
        system = random_system(n, p, 2, seed=4000 + trial)
        x = rng.uniform(0.2, 0.6, n)
        x *= float(rng.uniform(0.5, 0.8)) / np.linalg.norm(x)
        if abs(np.linalg.det(jacobian(system, x))) < 1e-4:
            continue
        led = CostLedger()
        state = NewtonState(0, be_from_vector(x, led), x, float(x @ x),
                            None, None, led)
        try:
            nxt = newton_step(system, state, CFG, x_ref=x)
        except Exception:
            continue
        factor = 1.0 - 1.0 / (2.0 * p)
        assert np.linalg.norm(nxt.x - factor * x) <= 1e-8
        assert np.linalg.norm(nxt.be_xxT.extract()
                              - factor ** 2 * np.outer(x, x), 2) <= 1e-8
        checked += 1
    assert checked >= 8
    report(6, "homogeneous contraction factor (1 - 1/(2p))")


def quadratic_tail_ok(resids, c=100.0, noise=1e-13):
    """residual_{k+1} <= C residual_k^2 over the final two informative steps
    (quadratic predictions below float noise are accepted at noise level)."""
    pairs = [(resids[k], resids[k + 1]) for k in range(len(resids) - 1)
             if resids[k] > noise]
    assert len(pairs) >= 2
    for rk, rk1 in pairs[-2:]:
        assert rk1 <= max(c * rk * rk, 1e-14)
    return True


def test_criterion_07_trace_equivalence():
    """Exact-backend quantum traces match classical Newton on the LV and GPE
    instances for T = 5, with every sandwich reference that runs there,
    within 1e-12 relative per iterate, state and residual, with quadratic
    tails, in under 60 s."""
    t0 = time.perf_counter()
    # Lotka-Volterra, alpha=beta=gamma=delta=1, dt=0.1, 3 steps
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    lv = lv_discretize(params)
    x0 = lv_scaled_root(params) + 0.45 * np.array([1, -1, 1, -1, 1, -1]) / np.sqrt(6)
    for reference in ("e1", "x0", "previous"):
        _run_trace_comparison(lv, x0, reference)
    # 4-point GPE instance; with e1 its scaled Jacobian is below the 1e-3
    # floor at step 0, so only the x0 and previous references run
    rng = np.random.default_rng(42)
    psi = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
    gpe = gpe_discretize(GpeParams(4, 0.5, 1.0, np.full(4, 0.2), 0.05, 0.5, psi))
    d = np.random.default_rng(7).standard_normal(gpe.n)
    x0g = gpe_default_guess(
        GpeParams(4, 0.5, 1.0, np.full(4, 0.2), 0.05, 0.5, psi))
    x0g = x0g + 0.35 * d / np.linalg.norm(d)
    for reference in ("x0", "previous"):
        _run_trace_comparison(gpe, x0g, reference)
    elapsed = time.perf_counter() - t0
    # per-operation verification in QNLS_DEBUG mode is outside the budget
    from qnls import debug_enabled
    budget = 240.0 if debug_enabled() else 60.0
    assert elapsed < budget, f"trace equivalence took {elapsed:.1f}s"
    report(7, "LV and GPE trace equivalence with quadratic tails")


def _run_trace_comparison(system, x0, gamma_reference):
    """Iterates within 1e-12 ||x||, states x x^T within 1e-12 ||x||^2 in
    spectral norm (x the classical iterate), and residuals within 1e-12 of
    the classical row-0 residual, as scripts/trace_drift.py scales them:
    the measured gaps are at most 1e-14 of each scale."""
    f_eval, j_eval = system_evaluators(system)
    classical = classical_newton(f_eval, j_eval, x0, 5, tol=0.0)
    led = CostLedger()
    state = NewtonState(0, be_from_vector(x0, led), np.asarray(x0, float),
                        float(np.dot(x0, x0)), None, None, led)
    states = [state]
    for k in range(5):
        ref = {"e1": None, "x0": x0, "previous": states[-1].x}[gamma_reference]
        states.append(newton_step(system, states[-1],
                                  InversionConfig(1e-3, 1e-6 / 15, "exact"),
                                  x_ref=ref))
    quantum_resids = []
    for st, cx in zip(states, classical.iterates):
        scale = np.dot(cx, cx)
        assert np.linalg.norm(st.x - cx) <= 1e-12 * np.sqrt(scale)
        assert np.linalg.norm(st.be_xxT.extract() - np.outer(cx, cx),
                              2) <= 1e-12 * scale
        quantum_resids.append(residual_of(f_eval, st.x))
    for rq, rc in zip(quantum_resids, classical.residuals):
        assert abs(rq - rc) <= 1e-12 * classical.residuals[0]
    quadratic_tail_ok(quantum_resids)


def test_criterion_08_fig1_reproduction():
    """Classical oracle on 0.5 x^2 - 3x + 4: 5 -> 4.25, 0.5 -> 1.55, and
    convergence to the root 4 within 1e-10 in at most 6 iterations."""
    f = lambda x: np.array([0.5 * x[0] ** 2 - 3.0 * x[0] + 4.0])
    j = lambda x: np.array([[x[0] - 3.0]])
    assert classical_newton(f, j, np.array([5.0]), 1).iterates[1][0] == \
        pytest.approx(4.25, abs=1e-12)
    assert classical_newton(f, j, np.array([0.5]), 1).iterates[1][0] == \
        pytest.approx(1.55, abs=1e-12)
    trace = classical_newton(f, j, np.array([5.0]), 6, tol=1e-10)
    assert len(trace.iterates) <= 7
    assert abs(trace.iterates[-1][0] - 4.0) <= 1e-10
    report(8, "Fig. 1 Newton steps reproduced")


def test_criterion_09_norm_bounds():
    """Appendix A (||gamma^{2p-1} J / sqrt(n)|| <= 1) and the value-vector
    bound on 100 canonically rescaled random instances."""
    rng = np.random.default_rng(909)
    for seed in range(100):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        system = random_system(n, p, 3, seed=seed)
        x = rng.normal(size=n)
        x *= 0.9 * float(rng.uniform(0.3, 1.0)) / np.linalg.norm(x)
        gamma = x[0]
        scaled = gamma ** (2 * p - 1) * jacobian(system, x) / np.sqrt(n)
        assert np.linalg.norm(scaled, 2) <= 1.0 + 1e-12
        bound = np.sqrt(n) * np.linalg.norm(x) ** (2 * p) * system.max_norm()
        assert np.linalg.norm(evaluate(system, x)) <= bound + 1e-12
    report(9, "Appendix A and value-vector norm bounds (100 seeds)")


def test_criterion_10_cost_model():
    """Halving sigma_floor at least doubles the inversion ledger term;
    incrementing T multiplies the dominant term by a stable per-step factor
    (Theorem-1 power structure)."""
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    x0 = lv_scaled_root(params) * 0.95
    charges = {}
    for floor in (2e-2, 1e-2):
        st, _ = newton_solve(ms, x0, 2, InversionConfig(floor, 1e-6),
                             gamma_reference="previous")
        charges[floor] = st.ledger.notes["inversion"]
    assert charges[1e-2] >= 2.0 * charges[2e-2]
    dominant = {}
    for t in (1, 2, 3):
        st, _ = newton_solve(ms, x0, t, InversionConfig(1e-2, 1e-6),
                             gamma_reference="previous")
        dominant[t] = st.be_xxT.cost
    r1 = dominant[2] / dominant[1]
    r2 = dominant[3] / dominant[2]
    assert r1 > 1e3 and r2 > 1e3          # strongly multiplicative growth
    assert 0.5 <= r2 / r1 <= 2.0          # stable per-step factor
    report(10, "cost-model scaling (1/sigma factor, power-in-T growth)")


PAPER_CUBIC = [
    [(2.0, (2, 1, 0)), (1.0, (1, 1, 1)), (1.0, (0, 0, 3))],
    [(1.0, (1, 2, 0)), (1.0, (3, 0, 0)), (1.0, (0, 3, 0))],
    [(1.0, (2, 0, 1)), (1.0, (0, 2, 1)), (1.0, (1, 0, 2))],
]


def planted_cubic(seed):
    """Random cubic system with a known nonzero root (rank-one correction)."""
    rng = np.random.default_rng(seed)
    xstar = rng.uniform(0.4, 0.9, 3)
    u = xstar / np.linalg.norm(xstar)
    denom = float(np.dot(xstar, u)) ** 3
    eqs = []
    for _ in range(3):
        mono = []
        for _ in range(4):
            powers = [0, 0, 0]
            for _ in range(3):
                powers[rng.integers(0, 3)] += 1
            mono.append((float(rng.uniform(-1, 1)), tuple(powers)))
        val = evaluate_monomials([mono], xstar)[0]
        corr = []
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    powers = [0, 0, 0]
                    powers[a] += 1
                    powers[b] += 1
                    powers[c] += 1
                    corr.append((-val * u[a] * u[b] * u[c] / denom,
                                 tuple(powers)))
        eqs.append(mono + corr)
    return eqs, xstar


def test_criterion_11_homogenization_roots():
    """Roots found for homogenized cubics on the nonzero-m branch satisfy
    the original cubic equations within 1e-8 (m = x_1)."""
    rng = np.random.default_rng(111)
    checked = 0
    for eqs, seeds in ((PAPER_CUBIC, 12), (planted_cubic(5)[0], 12)):
        hom = homogenize_odd(eqs)
        f = lambda y: evaluate(hom, y)
        j = lambda y: jacobian(hom, y)
        for _ in range(seeds):
            y0 = rng.uniform(-0.9, 0.9, 4)
            try:
                trace = classical_newton(f, j, y0, 80, tol=1e-12)
            except Exception:
                continue
            if trace.residuals[-1] > 1e-12:
                continue
            root = trace.iterates[-1]
            if abs(root[3]) <= 1e-6 or abs(root[3] - root[0]) > 1e-6:
                continue      # m = 0 plane or not the m = x_1 branch
            orig = np.linalg.norm(evaluate_monomials(eqs, root[:3]))
            assert orig <= 1e-8
            checked += 1
    # the planted system supplies genuinely nonzero-branch roots: seed near it
    eqs, xstar = planted_cubic(5)
    hom = homogenize_odd(eqs)
    y0 = np.concatenate([xstar, [xstar[0]]]) + 0.02 * rng.uniform(-1, 1, 4)
    trace = classical_newton(lambda y: evaluate(hom, y),
                             lambda y: jacobian(hom, y), y0, 80, tol=1e-12)
    root = trace.iterates[-1]
    assert abs(root[3]) > 1e-6
    assert np.linalg.norm(evaluate_monomials(eqs, root[:3])) <= 1e-8
    report(11, "homogenized roots project to cubic roots (m = x1 branch)")
