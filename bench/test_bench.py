"""Tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import tracer  # noqa: E402
from qnls.cli import main as qnls_main  # noqa: E402

LV_GEN = ["gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta",
          "1", "--dt", "0.1", "--steps", "3", "--v0", "1.2", "--p0", "0.9"]


@pytest.fixture
def lv(tmp_path):
    problem = tmp_path / "lv.qnls"
    assert qnls_main(LV_GEN + ["--out", str(problem)]) == 0
    return problem, Path(f"{problem}.x0")


def solve_args(problem, x0, trace, iters=2):
    return ["solve", "--problem", str(problem), "--x0", str(x0),
            "--trace", str(trace), "--iters", str(iters)]


def test_gate_passes_a_solve_and_rejects_a_perturbed_trace(lv, tmp_path):
    problem, x0 = lv
    trace = tmp_path / "trace.csv"
    assert qnls_main(solve_args(problem, x0, trace)) == 0
    text = trace.read_text()
    assert gate.check(text, str(problem), str(x0), 2, 1e-6) == []

    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-5)
    lines[2] = ",".join(cells)
    failures = gate.check("\n".join(lines) + "\n", str(problem), str(x0), 2, 1e-6)
    assert len(failures) == 1 and failures[0].startswith("iterate 1:")


def test_gate_rejects_a_short_or_malformed_trace(lv, tmp_path):
    problem, x0 = lv
    trace = tmp_path / "trace.csv"
    assert qnls_main(solve_args(problem, x0, trace)) == 0
    short = "".join(trace.read_text().splitlines(keepends=True)[:-1])
    assert gate.check(short, str(problem), str(x0), 2, 1e-6)
    assert gate.check("", str(problem), str(x0), 2, 1e-6)


def test_self_time_subtracts_direct_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0],
             ["b", 0, 5.0, 6.0]]
    summary = tracer.summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert summary["b"]["calls"] == 2
    assert summary["c"]["durations"] == [1.0]


def test_traced_solve_writes_the_same_trace(lv, tmp_path):
    problem, x0 = lv
    env = dict(os.environ, PYTHONPATH=str(SRC))
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    spans_path = tmp_path / "spans.json"
    subprocess.run([sys.executable, "-m", "qnls.cli",
                    *solve_args(problem, x0, plain)], env=env, check=True)
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans_path),
                    *solve_args(problem, x0, traced)], env=env, check=True)
    assert traced.read_bytes() == plain.read_bytes()
    summary = tracer.summarize(json.loads(spans_path.read_text()))
    assert summary["cli.main"]["calls"] == 1
    assert summary["quantum_newton.newton_step"]["calls"] == 2
    # be_product is called from quantum_newton and svt, which import it by name
    assert summary["block_encoding.product"]["calls"] > 0
    assert summary["svt.eigen"]["calls"] > 0
