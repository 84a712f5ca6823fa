import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, marker", [
    ("lv_demo", "final ledger:"),
    ("gpe_demo", "Crank-Nicolson residual"),
], ids=["lv_demo", "gpe_demo"])
def test_demo_runs(demo, marker):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout


def test_artifact_digest_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QNLS_DEBUG", None)
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "artifact_digest.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    exits = [ln for ln in lines if ln.startswith("exit ")]
    digests = [ln for ln in lines if not ln.startswith("exit ")]
    # the one command whose guess has no overlap with e1 halts with exit 3
    halted = "exit 3  solve-degenerate-e1"
    assert halted in exits
    assert all(re.fullmatch(r"exit 0  [\w-]+", ln) for ln in exits if ln != halted)
    assert digests and all(re.fullmatch(r"[0-9a-f]{64}  [\w.-]+", ln)
                           for ln in digests)
    names = [ln.split("  ")[1] for ln in digests]
    assert len(names) == len(set(names))
    assert {"trace.csv", "report.txt", "gpe_e1.csv", "lv_x0.csv"} <= set(names)


def test_peak_rss_reports_one_cold_cli_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "lv.qnls"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "peak_rss.py"),
                           "gen-lv", "--alpha", "1", "--beta", "1", "--gamma", "1",
                           "--delta", "1", "--dt", "0.1", "--steps", "3",
                           "--v0", "1.2", "--p0", "0.9", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[-1]
    m = re.fullmatch(r"wall_s (\d+\.\d{3})  peak_rss_mb (\d+\.\d)  exit 0", line)
    assert m, line
    assert float(m[1]) > 0.0 and float(m[2]) > 0.0
    assert out.exists() and Path(str(out) + ".x0").exists()
    # a child that fails passes its exit code on
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "peak_rss.py"),
                           "solve", "--problem", str(tmp_path / "missing.qnls"),
                           "--iters", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.splitlines()[-1].endswith(f"exit {proc.returncode}")
    assert proc.returncode != 0


def _drift(tmp_path, old, new):
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_drift.py"),
                           str(tmp_path / "old.csv"), str(tmp_path / "new.csv")],
                          capture_output=True, text=True, timeout=60)


def test_trace_drift_prints_each_column(tmp_path):
    header = "iter,residual,x_norm_sq,sigma_k,gamma_k\n"
    old = header + "0,0.01,0.5,0.25,0.5\n1,1e-16,0.5,,\n"
    new = header + "0,0.01,0.5000001,0.25,0.5\n1,3e-16,0.5,,0.5\n"
    proc = _drift(tmp_path, old, new)
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split("  ") for line in proc.stdout.splitlines())
    assert list(got) == header.strip().split(",")
    assert float(got["iter"]) == 0.0 and float(got["sigma_k"]) == 0.0
    # a converged residual is scaled by the row-0 residual, not by itself
    assert float(got["residual"]) == pytest.approx(2e-14, rel=1e-2)
    assert float(got["x_norm_sq"]) == pytest.approx(2e-7, rel=1e-2)
    assert got["gamma_k"] == "inf"          # an empty cell became a number
    proc = _drift(tmp_path, old, header + "0,0.01,0.5,0.25,0.5\n")
    assert proc.returncode == 2 and "row count" in proc.stderr
