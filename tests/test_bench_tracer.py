"""The benchmark's tracer must find every function it is told to wrap."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("qnls_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
