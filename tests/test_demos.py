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
    assert exits and all(re.fullmatch(r"exit 0  [\w-]+", ln) for ln in exits)
    assert digests and all(re.fullmatch(r"[0-9a-f]{64}  [\w.-]+", ln)
                           for ln in digests)
    names = [ln.split("  ")[1] for ln in digests]
    assert len(names) == len(set(names))
    assert {"trace.csv", "report.txt", "gpe_e1.csv", "lv_x0.csv"} <= set(names)
