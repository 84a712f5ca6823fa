import numpy as np
import pytest

from qnls import PolynomialSystem, SparseMatrix, evaluate
from qnls.poly_system import _swap_factor

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


def spy_dense_blocks(monkeypatch) -> list:
    """(call, shape) of each 2-D np.linalg.norm and np.zeros from here on;
    SparseMatrix.to_dense raises."""
    calls, real_norm, real_zeros = [], np.linalg.norm, np.zeros

    def spied_norm(x, *args, **kwargs):
        if np.ndim(x) == 2:
            calls.append(("norm", np.shape(x)))
        return real_norm(x, *args, **kwargs)

    def spied_zeros(shape, *args, **kwargs):
        if np.size(shape) == 2:
            calls.append(("zeros", tuple(shape)))
        return real_zeros(shape, *args, **kwargs)

    def refuse(self):
        raise AssertionError(f"densified a {self.dim_rows} x {self.dim_cols} matrix")

    monkeypatch.setattr(np.linalg, "norm", spied_norm)
    monkeypatch.setattr(np, "zeros", spied_zeros)
    monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
    return calls


def fd_gradient(system, i, x, h=1e-5):
    """Central finite differences of f_i, the pre-build gradient oracle."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (evaluate(system, x + e)[i] - evaluate(system, x - e)[i]) / (2 * h)
    return out


def swap_matrices(n, p):
    """Dense permutation matrices Q_1 .. Q_p of the tensor-factor swaps."""
    d = n ** p
    qs = []
    for j in range(1, p + 1):
        q = np.zeros((d, d))
        q[_swap_factor(np.arange(d), n, p, j), np.arange(d)] = 1.0
        qs.append(q)
    return qs


def merged_m_d(system, i):
    """M_D^i = sum_j Q_j A_i Q_j, merged on its own for equation i alone."""
    n, p, a = system.n, system.p, system.equations[i]
    swapped = lambda ix: np.concatenate(
        [_swap_factor(ix, n, p, j) for j in range(1, p + 1)])
    return SparseMatrix.summed(n ** p, n ** p, swapped(a.rows), swapped(a.cols),
                               np.tile(a.vals, p))


def blockdiag(blocks):
    """blockdiag(blocks[0] .. blocks[-1]) for equally sized square blocks."""
    d = blocks[0].dim_rows
    big = len(blocks) * d
    return SparseMatrix(big, big,
                        np.concatenate([b.rows + i * d for i, b in enumerate(blocks)]),
                        np.concatenate([b.cols + i * d for i, b in enumerate(blocks)]),
                        np.concatenate([b.vals for b in blocks]))
