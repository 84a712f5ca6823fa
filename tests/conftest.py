import numpy as np
import pytest

from qnls import PolynomialSystem, SparseMatrix, evaluate

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def diag_system():
    """Canonical 2-variable quadratic system f_i = x_i^2 / 2."""
    a1 = SparseMatrix.from_dense(np.diag([1.0, 0.0]))
    a2 = SparseMatrix.from_dense(np.diag([0.0, 1.0]))
    return PolynomialSystem(2, 1, 1, (a1, a2))


def count_two_norms(monkeypatch) -> list:
    """Shapes of the matrices np.linalg.norm(., 2) runs on from here on."""
    shapes, real_norm = [], np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return real_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    return shapes


def fd_gradient(system, i, x, h=1e-5):
    """Central finite differences of f_i, the pre-build gradient oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (evaluate(system, x + e)[i] - evaluate(system, x - e)[i]) / (2 * h)
    return out

