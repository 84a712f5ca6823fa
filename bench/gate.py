"""Oracle gate: a `qnls solve` trace must follow classical Newton.

The oracle is rebuilt from the problem file the solve loaded, canonicalized
the way `qnls solve` canonicalizes it, and started from the same guess file.
Each residual in the trace must lie within a tolerance of the oracle's
residual at the same iterate.
"""

from __future__ import annotations

import numpy as np

from qnls.classical_oracle import classical_newton
from qnls.errors import QnlsError
from qnls.poly_system import (MixedSystem, PolynomialSystem, canonicalize,
                              canonicalize_mixed)
from qnls.problem_io import parse_problem_file
from qnls.quantum_newton import TRACE_HEADER, system_evaluators


def trace_residuals(csv_text: str) -> list[float]:
    """Residual column of a trace CSV; iterations must run 0, 1, 2, ..."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("trace CSV does not start with the trace header")
    rows = [line.split(",") for line in lines[1:]]
    if [row[0] for row in rows] != [str(k) for k in range(len(rows))]:
        raise ValueError("trace iterations are not numbered 0, 1, 2, ...")
    return [float(row[1]) for row in rows]


def oracle_residuals(problem_path: str, x0_path: str, iters: int) -> list[float]:
    """Residuals of `iters` classical Newton steps on the canonical system."""
    problem = parse_problem_file(problem_path)
    if isinstance(problem, PolynomialSystem):
        problem, _ = canonicalize(problem)
    elif isinstance(problem, MixedSystem):
        problem, _ = canonicalize_mixed(problem)
    f_eval, j_eval = system_evaluators(problem)
    x0 = np.loadtxt(x0_path, ndmin=1)
    return list(classical_newton(f_eval, j_eval, x0, iters, tol=0.0).residuals)


def mismatches(trace: list[float], oracle: list[float], tol: float) -> list[str]:
    """One message per iterate where the trace leaves the oracle by > tol."""
    if len(trace) != len(oracle):
        return [f"trace has {len(trace)} iterates, the oracle {len(oracle)}"]
    return [f"iterate {k}: residual {a:.17g} vs oracle {b:.17g}"
            for k, (a, b) in enumerate(zip(trace, oracle))
            if not abs(a - b) <= tol]


def check(csv_text: str, problem_path: str, x0_path: str, iters: int,
          tol: float) -> list[str]:
    """All gate failures of one solve; empty when the trace passes."""
    try:
        trace = trace_residuals(csv_text)
        oracle = oracle_residuals(problem_path, x0_path, iters)
    except (OSError, ValueError, IndexError, QnlsError) as exc:
        return [f"cannot compare with the oracle: {exc}"]
    if len(trace) != iters + 1:
        return [f"trace has {len(trace)} iterates, expected {iters + 1}"]
    return mismatches(trace, oracle, tol)
