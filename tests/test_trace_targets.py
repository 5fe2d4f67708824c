"""The benchmark's span tracer patches program functions by name; every
name it looks up must still exist, or `benchmark/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("edgesim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_callable():
    patches = _load_tracing().PATCHES
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in patches
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"trace targets not found: {missing}"
