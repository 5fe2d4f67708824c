"""The benchmark's span tracer patches program functions by name; every
name it looks up must still exist, or `benchmark/run.py --trace 1` breaks,
and must still be called, or its per-layer metric silently reads 0."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from edgesim import cli, harness, prices
from edgesim.runio import load_config

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"

# A narrow grid whose two phases end within a few thousand ticks.
SHORT_CONFIG = """\
price: {grid_min: 9800, grid_max: 10200, stay_probability: 1/2}
strategy: {order_probability: 1/20}
dominance: {tau: 10, gamma: 10, queue_cap: 3, stage1_fill_count: 3}
run: {target_phases: 2}
"""


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


def _counted(fn, calls: list[int], k: int):
    def counted(*args, **kwargs):
        calls[k] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_trace_target_is_reached(tmp_path, monkeypatch):
    patches = _load_tracing().PATCHES
    calls = [0] * len(patches)
    for k, (owner, attr, _, _) in enumerate(patches):
        monkeypatch.setattr(owner, attr, _counted(getattr(owner, attr), calls, k))
    path = tmp_path / "short.yaml"
    path.write_text(SHORT_CONFIG)
    assert cli.main(["simulate", str(path), "--seed", "11",
                     "--out", str(tmp_path / "run")]) == 0
    config = load_config(path)
    harness.run_simulation(replace(config, run=replace(
        config.run, keep_orders=True, record_ticks=False)), 11, engine="scalar")
    prices.estimate_hitting_time(config.price, config.price.start_price, 10,
                                 prices.ABOVE, 2, 100_000, master_seed=1)
    missed = [f"{getattr(owner, '__name__', owner)}.{attr}"
              for (owner, attr, _, _), n in zip(patches, calls) if not n]
    assert not missed, f"trace targets never called: {missed}"
