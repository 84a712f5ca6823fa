"""Reference Newton solver used as the brute-force oracle."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, SingularJacobianError

_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class ClassicalTrace:
    """Newton iterates and their residual norms (equal length, x0 included)."""

    iterates: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]

    def __post_init__(self):
        if len(self.iterates) != len(self.residuals):
            raise InputError("iterates and residuals must have equal length")


def residual(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> float:
    """||F(x)||_2."""
    return float(np.linalg.norm(np.atleast_1d(np.asarray(f(x), dtype=np.float64))))


def classical_newton(f: Callable, jac: Callable, x0: np.ndarray, t: int,
                     tol: float = 0.0) -> ClassicalTrace:
    """Plain Newton iteration x <- x - J(x)^{-1} F(x), at most t steps.

    Stops early once the residual drops to tol.  A pivot below 1e-12 in the
    LU factorization raises SingularJacobianError carrying the partial trace.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
    if t < 0:
        raise InputError("iteration count must be non-negative")
    x = np.atleast_1d(np.asarray(x0, dtype=np.float64)).copy()
    iterates = [x.copy()]
    residuals = [residual(f, x)]
    for _ in range(t):
        if residuals[-1] <= tol:
            break
        j = np.atleast_2d(np.asarray(jac(x), dtype=np.float64))
        with warnings.catch_warnings():
            # singularity is detected by the pivot check below
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(j)
        if np.min(np.abs(np.diag(lu))) < _PIVOT_TOL:
            raise SingularJacobianError(
                "Jacobian pivot below 1e-12",
                partial=ClassicalTrace(tuple(iterates), tuple(residuals)))
        delta = lu_solve((lu, piv), np.atleast_1d(np.asarray(f(x), dtype=np.float64)))
        x = x - delta
        iterates.append(x.copy())
        residuals.append(residual(f, x))
    return ClassicalTrace(tuple(iterates), tuple(residuals))
