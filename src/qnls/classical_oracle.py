"""Reference Newton solver used as the brute-force oracle."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericalFailure, SingularJacobianError

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
    """||F(x)||_2, the package's one residual norm.  Only where the plain
    norm's sum of squares overflows on a finite F(x) is it taken of
    F(x)/max|F_i| and scaled back, so every finite plain norm is kept."""
    fx = np.atleast_1d(np.asarray(f(x), dtype=np.float64))
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(fx))
        if nrm == np.inf and np.isfinite(fx).all():
            top = np.max(np.abs(fx))
            nrm = float(top * np.linalg.norm(fx / top))
    return nrm


def classical_newton(f: Callable, jac: Callable, x0: np.ndarray, t: int,
                     tol: float = 0.0) -> ClassicalTrace:
    """Plain Newton iteration x <- x - J(x)^{-1} F(x), at most t steps.

    Stops early once the residual drops to tol.  A non-finite F(x) or J(x)
    raises NumericalFailure, and a pivot below 1e-12 in the LU factorization
    SingularJacobianError, each carrying the partial trace.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
    if t < 0:
        raise InputError("iteration count must be non-negative")
    x = np.atleast_1d(np.asarray(x0, dtype=np.float64)).copy()
    iterates, residuals = [], []
    with np.errstate(over="ignore", invalid="ignore"):   # inf and NaN halt below
        for k in range(t + 1):
            iterates.append(x)
            fx = np.atleast_1d(np.asarray(f(x), dtype=np.float64))
            residuals.append(residual(lambda _: fx, x))
            if k == t or residuals[-1] <= tol:
                break
            j = np.atleast_2d(np.asarray(jac(x), dtype=np.float64))
            partial = ClassicalTrace(tuple(iterates), tuple(residuals))
            if not (np.isfinite(fx).all() and np.isfinite(j).all()):
                raise NumericalFailure(f"F(x) or J(x) not finite at iterate {k}",
                                       partial=partial)
            with warnings.catch_warnings():
                # singularity is detected by the pivot check below
                warnings.simplefilter("ignore", LinAlgWarning)
                lu, piv = lu_factor(j)
            if np.min(np.abs(np.diag(lu))) < _PIVOT_TOL:
                raise SingularJacobianError("Jacobian pivot below 1e-12",
                                            partial=partial)
            x = x - lu_solve((lu, piv), fx)
    return ClassicalTrace(tuple(iterates), tuple(residuals))
