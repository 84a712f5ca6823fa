import numpy as np
import pytest

from qnls import (ClassicalTrace, NumericalFailure, SingularJacobianError,
                  classical_newton, residual)
from qnls.problems import (LvParams, lv_default_guess, lv_discretize,
                           lv_scaled_root)
from qnls.quantum_newton import system_evaluators


def quadratic():
    f = lambda x: np.array([0.5 * x[0] ** 2 - 3 * x[0] + 4])
    j = lambda x: np.array([[x[0] - 3.0]])
    return f, j


def test_fig1_first_step_from_5():
    f, j = quadratic()
    trace = classical_newton(f, j, np.array([5.0]), 1)
    assert trace.iterates[1][0] == pytest.approx(4.25, abs=1e-12)


def test_fig1_first_step_from_half():
    f, j = quadratic()
    trace = classical_newton(f, j, np.array([0.5]), 1)
    assert trace.iterates[1][0] == pytest.approx(1.55, abs=1e-12)


def test_fig1_converges_to_root_four():
    f, j = quadratic()
    trace = classical_newton(f, j, np.array([5.0]), 6, tol=1e-10)
    assert len(trace.iterates) <= 7
    assert abs(trace.iterates[-1][0] - 4.0) <= 1e-10
    assert trace.residuals[-1] <= 1e-10


def test_residual_values():
    f, _ = quadratic()
    assert residual(f, np.array([4.0])) == pytest.approx(0.0, abs=1e-14)
    assert residual(f, np.array([5.0])) == pytest.approx(1.5)
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 2, 1.1, 0.8)
    ms = lv_discretize(params)
    fe, _ = system_evaluators(ms)
    x = lv_default_guess(params)
    assert residual(fe, x) == pytest.approx(np.linalg.norm(fe(x)))


def test_quadratic_convergence_tail():
    params = LvParams(1.0, 1.0, 1.0, 1.0, 0.1, 3, 1.2, 0.9)
    ms = lv_discretize(params)
    f, j = system_evaluators(ms)
    x0 = lv_scaled_root(params) + 0.3 * np.array([1, -1, 1, -1, 1, -1]) / np.sqrt(6)
    trace = classical_newton(f, j, x0, 12, tol=1e-12)
    r = trace.residuals
    assert r[-1] <= 1e-12
    # quadratic tail over the last two recorded steps
    for k in (len(r) - 2, len(r) - 3):
        assert r[k + 1] <= 100.0 * r[k] ** 2


def test_determinism():
    params = LvParams(1.0, 2.0, 0.5, 1.5, 0.05, 3, 1.0, 0.7)
    ms = lv_discretize(params)
    f, j = system_evaluators(ms)
    x0 = lv_default_guess(params)
    t1 = classical_newton(f, j, x0, 6)
    t2 = classical_newton(f, j, x0, 6)
    assert all(np.array_equal(a, b) for a, b in zip(t1.iterates, t2.iterates))
    assert t1.residuals == t2.residuals


def test_singular_jacobian_partial_trace():
    f = lambda x: np.array([x[0] ** 2])
    j = lambda x: np.array([[0.0]])
    with pytest.raises(SingularJacobianError) as info:
        classical_newton(f, j, np.array([1.0]), 3)
    partial = info.value.partial
    assert isinstance(partial, ClassicalTrace)
    assert len(partial.iterates) == 1


@pytest.mark.parametrize("bad", ["value", "jacobian"])
def test_non_finite_value_or_jacobian_halts_with_partial_trace(bad):
    # Newton on x^2 halves x; at x = 0.5 the value or the Jacobian is not
    # finite, which lu_solve or lu_factor refused with a bare ValueError
    f = lambda x: np.array([np.nan if bad == "value" and x[0] <= 0.5
                            else x[0] ** 2])
    j = lambda x: np.array([[np.inf if bad == "jacobian" and x[0] <= 0.5
                             else 2.0 * x[0]]])
    with pytest.raises(NumericalFailure, match="not finite at iterate 1") as info:
        classical_newton(f, j, np.array([1.0]), 3)
    assert [x[0] for x in info.value.partial.iterates] == [1.0, 0.5]


def test_stops_early_at_tolerance():
    f, j = quadratic()
    trace = classical_newton(f, j, np.array([4.0]), 10, tol=1e-12)
    assert len(trace.iterates) == 1
