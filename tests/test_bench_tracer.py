"""The benchmark's tracer must find every function it is told to wrap, and
its oracle gate must pass a solve."""

import importlib
import importlib.util
from pathlib import Path

from qnls.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"qnls_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_bench_module("tracer")
    missing = []
    for span, module_name, attr in tracer.TARGETS:
        obj = importlib.import_module(module_name)
        try:
            for part in attr.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(f"{span}: {module_name}.{attr}")
            continue
        assert callable(obj), f"{module_name}.{attr} is not callable"
    assert not missing, f"tracer targets not found: {missing}"


def test_gate_passes_a_two_step_lv_solve(tmp_path):
    gate = load_bench_module("gate")
    problem, trace = tmp_path / "lv.qnls", tmp_path / "trace.csv"
    assert main(["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1",
                 "--delta", "1", "--dt", "0.1", "--steps", "3", "--v0", "1.2",
                 "--p0", "0.9", "--out", str(problem)]) == 0
    assert main(["solve", "--problem", str(problem), "--x0", f"{problem}.x0",
                 "--iters", "2", "--trace", str(trace)]) == 0
    assert gate.check(trace.read_text(), str(problem), f"{problem}.x0", 2,
                      1e-6) == []
