"""Span tracing of `qnls` from outside the package.

Run as a program, it executes one `qnls` command in this process with the
package's public functions wrapped, and writes the recorded spans to a JSON
file when the command ends:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json solve --problem ...

A wrapper only reads the clock and appends to a list.  It never inspects
arguments or results, so it reads no `BlockEncoding.unitary` and copies no
array, and the command's outputs stay byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  A span name may cover several functions.
# The modules import each other's functions by name, so a wrapper replaces
# every reference to the original function, not only its definition.
TARGETS = (
    ("block_encoding.from_sparse", "qnls.block_encoding", "be_from_sparse"),
    ("block_encoding.from_vector", "qnls.block_encoding", "be_from_vector"),
    ("block_encoding.outer", "qnls.block_encoding", "be_outer"),
    ("block_encoding.product", "qnls.block_encoding", "be_product"),
    ("block_encoding.tensor", "qnls.block_encoding", "be_tensor"),
    ("block_encoding.sum", "qnls.block_encoding", "be_sum"),
    ("block_encoding.amplify", "qnls.block_encoding", "be_amplify"),
    ("block_encoding.transpose", "qnls.block_encoding", "be_transpose"),
    ("block_encoding.rescale", "qnls.block_encoding", "be_rescale"),
    ("block_encoding.verify", "qnls.block_encoding", "BlockEncoding.verify"),
    ("quantum_newton.build_M", "qnls.quantum_newton", "build_M_blockdiag"),
    ("quantum_newton.build_A", "qnls.quantum_newton", "build_A_blockdiag"),
    ("quantum_newton.build_P", "qnls.quantum_newton", "build_P"),
    ("quantum_newton.gradient_sandwich", "qnls.quantum_newton",
     "jacobian_sandwich_be"),
    ("quantum_newton.jacobian", "qnls.quantum_newton", "jacobian_be"),
    ("quantum_newton.rhs_sandwich", "qnls.quantum_newton", "rhs_be"),
    ("quantum_newton.recover_vector", "qnls.quantum_newton", "recover_vector"),
    ("quantum_newton.norm_estimate", "qnls.quantum_newton", "norm_estimate"),
    ("quantum_newton.newton_step", "qnls.quantum_newton", "newton_step"),
    ("quantum_newton.newton_solve", "qnls.quantum_newton", "newton_solve"),
    ("svt.sv_invert", "qnls.svt", "sv_invert"),
    ("svt.inverse_poly", "qnls.svt", "backend_inverse_poly"),
    ("svt.lp_fit", "qnls.svt", "_minimax_fit"),
    ("svt.eigen", "qnls.svt", "max_eigenvalue"),
    ("svt.eigen", "qnls.svt", "min_eigenvalue"),
    ("svt.eigen", "qnls.svt", "min_singular_value"),
    ("problems.generate", "qnls.problems", "lv_discretize"),
    ("problems.generate", "qnls.problems", "lv_default_guess"),
    ("problems.generate", "qnls.problems", "gpe_discretize"),
    ("problems.generate", "qnls.problems", "gpe_default_guess"),
    ("problems.generate", "qnls.problems", "random_system"),
    ("problem_io.write", "qnls.problem_io", "write_problem_file"),
    ("problem_io.parse", "qnls.problem_io", "parse_problem_file"),
    ("poly_system.canonicalize", "qnls.poly_system", "canonicalize"),
    ("poly_system.canonicalize", "qnls.poly_system", "canonicalize_mixed"),
    ("poly_system.evaluate", "qnls.poly_system", "evaluate"),
    ("poly_system.evaluate", "qnls.poly_system", "mixed_evaluate"),
    ("cli.main", "qnls.cli", "main"),
)


class Recorder:
    """Spans as [name, parent index or -1, start, end], in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, open_[-1] if open_ else -1, clock(), None])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][3] = clock()

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every TARGETS function wherever a qnls module refers to it."""
    importlib.import_module("qnls.cli")     # loads every qnls module
    modules = [m for name, m in sys.modules.items()
               if name == "qnls" or name.startswith("qnls.")]
    for span, module_name, attr in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:                      # a method: patch the class
            owner = getattr(module, owner_name)
            setattr(owner, fn_name,
                    recorder.wrap(span, getattr(owner, fn_name)))
            continue
        original = getattr(module, fn_name)
        wrapped = recorder.wrap(span, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def summarize(spans) -> dict[str, dict]:
    """Per span name: summed self time, call count and each call's duration.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "durations": []})
    for (name, _, start, end), child_s in zip(spans, covered):
        entry = out[name]
        entry["self_s"] += (end - start) - child_s
        entry["calls"] += 1
        entry["durations"].append(end - start)
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path, qnls_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules["qnls.cli"]
    try:
        return cli.main(qnls_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
