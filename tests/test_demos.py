import os
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
