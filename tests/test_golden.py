"""Every artifact of `scripts/artifact_digest.py`'s commands against `tests/golden/`.

The commands run in-process. Exit codes, problem and guess files, stderr
and all text compare exactly. Trace columns compare within 1e-12 through
`trace_drift.drift` (residuals scaled by the row-0 residual), and every
other float, of a report or of stdout, within 1e-12 relative. So a
roundoff move passes without regeneration, and any budget change fails.
Regenerate with `artifact_digest.write_golden` (see the README).
"""

import importlib.util
import re
from pathlib import Path

import pytest

from qnls.quantum_newton import TRACE_HEADER

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
TOL = 1e-12
# a number, split off the text around it; the key names' digits split too
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _floats_differ(old: str, new: str) -> str | None:
    """Where old and new differ beyond the tolerance: the text and the
    integers exactly, any other number within TOL relative."""
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    if len(a) != len(b):
        return "different number of numeric fields"
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if i % 2 == 0 or (x.lstrip("+-").isdigit() and y.lstrip("+-").isdigit()):
            return f"{x!r} != {y!r}"
        if not abs(float(y) - float(x)) <= TOL * abs(float(x)):
            return f"{x} -> {y}"
    return None


def _mismatch(name: str, old: bytes, new: bytes, scratch: Path) -> str | None:
    if old == new:
        return None
    if name.endswith((".stderr", ".qnls", ".x0")):
        return "bytes differ"
    old_text, new_text = old.decode(), new.decode()
    if old_text.startswith(TRACE_HEADER + "\n"):
        (scratch / "old.csv").write_bytes(old)
        (scratch / "new.csv").write_bytes(new)
        try:
            drift = _script("trace_drift").drift(scratch / "old.csv",
                                                 scratch / "new.csv")
        except ValueError as exc:
            return str(exc)
        over = {col: v for col, v in drift.items() if not v <= TOL}
        return f"trace columns moved: {over}" if over else None
    return _floats_differ(old_text, new_text)


def test_every_artifact_matches_its_golden(monkeypatch, tmp_path):
    monkeypatch.delenv("QNLS_DEBUG", raising=False)
    exits, artifacts = _script("artifact_digest").run_commands(tmp_path / "run")
    golden_exits = (GOLDEN / "exit_codes.txt").read_text()
    assert "".join(f"exit {rc}  {name}\n" for name, rc in exits.items()) \
        == golden_exits
    golden = {p.name: p.read_bytes() for p in GOLDEN.iterdir()
              if p.name != "exit_codes.txt"}
    assert sorted(artifacts) == sorted(golden)
    bad = {name: why for name, data in artifacts.items()
           if (why := _mismatch(name, golden[name], data, tmp_path))}
    assert bad == {}


@pytest.mark.parametrize("old, new, same", [
    ("ledger.x = 1.0000000000000002\n", "ledger.x = 1\n", True),
    ("ledger.x = 1.5\n", "ledger.x = 1.5000000001\n", False),
    ("classical.n3 = 216\n", "classical.n3 = 217\n", False),
    ("note: a 0.5\n", "note: b 0.5\n", False),
    ("v = 0\n", "v = 1e-300\n", False),
])
def test_float_comparison(old, new, same):
    assert (_floats_differ(old, new) is None) == same
