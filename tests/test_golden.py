"""Golden digests: the determinism contract (config + seed -> the same
bytes) checked against SHA-256 digests stored in tests/golden.json, not
only against a second run of the same code.

The set-ups are the benchmark's workloads plus a spread-and-commission
run, on both engines where the scalar reference is fast enough.  The
mean-reverting runs also pin their kept order lists, as the
(id, time, sign, price, quantity) tuples of orders_s and orders_sstar.  The
digests also depend on numpy's generators and number formatting, so
golden.json records the numpy version that made it.  The test also
verifies each pinned run directory offline.

A change that alters these bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each digest it changed, added or removed, and lists each,
and why it changed, in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from edgesim.dominance import DominanceParams
from edgesim.harness import RunConfig, default_config, run_simulation
from edgesim.prices import (ABOVE, BELOW, MEAN_REVERTING_WALK,
                            REFLECTING_WALK, PriceProcessConfig,
                            estimate_hitting_time)
from edgesim.runio import SUMMARY_JSON, write_run_artifacts
from edgesim.verify import all_passed, verify_run

GOLDEN = Path(__file__).with_name("golden.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mean_reverting_audit(seed: int) -> RunConfig:
    cfg = default_config(master_seed=seed, target_phases=5, keep_orders=True,
                         half_spread=1, commission_per_unit=2)
    price = replace(cfg.price, kind=MEAN_REVERTING_WALK,
                    reversion_strength=Fraction(1, 2))
    return replace(cfg, price=price,
                   dominance=DominanceParams(min_distance=5))


def _file_setups():
    """(name, config, engines) of the runs whose four files are pinned."""
    for seed in (99, 584):
        yield f"desk_artifacts/seed{seed}", default_config(master_seed=seed), ("blocked",)
    for seed in (2, 3):
        yield (f"mean_reverting_audit/seed{seed}", _mean_reverting_audit(seed),
               ("scalar", "blocked"))
    yield ("spread_commission/seed7",
           default_config(master_seed=7, total_ticks=30_000, target_phases=None,
                          half_spread=2, commission_per_unit=1),
           ("scalar", "blocked"))


def _reflecting_hitting_setups():
    """(name, config, start, xi, direction, cap) of the reflecting hitting
    times pinned beside the recurrence set-up: the other direction, a lazy
    walk, a cap that leaves misses, a cap that is not a multiple of 64 on a
    short passage, and a threshold within 64 ticks of the start."""
    wide = PriceProcessConfig(kind=REFLECTING_WALK, start_price=10000,
                              stay_probability=Fraction(0))
    narrow = PriceProcessConfig(kind=REFLECTING_WALK, grid_min=0, grid_max=60,
                                start_price=30, stay_probability=Fraction(0))
    yield "below", wide, 10000, 100, BELOW, 10_000_000
    yield ("stay_half", replace(wide, stay_probability=Fraction(1, 2)), 10000,
           100, ABOVE, 10_000_000)
    yield "misses", wide, 10000, 100, ABOVE, 6_400
    yield "ragged_cap", narrow, 30, 8, ABOVE, 1_000
    yield "near_start", wide, 10000, 10, ABOVE, 10_000_000


def _orders_sha(orders) -> str:
    return _sha(repr([(o.id, o.time, o.sign, o.price, o.quantity)
                      for o in orders]).encode())


def compute_digests(tmp: Path) -> dict[str, str]:
    digests = {}
    for name, cfg, engines in _file_setups():
        for engine in engines:
            out = tmp / name / engine
            report = run_simulation(cfg, engine=engine)
            write_run_artifacts(report, out)
            for path in sorted(out.iterdir()):
                digests[f"{name}/{engine}/{path.name}"] = _sha(path.read_bytes())
            if cfg.run.keep_orders:
                digests[f"{name}/{engine}/orders_s"] = _orders_sha(report.orders_s)
                digests[f"{name}/{engine}/orders_sstar"] = _orders_sha(
                    report.orders_sstar)
    for seed in (1000, 1001, 1003):
        report = run_simulation(default_config(master_seed=seed, record_ticks=False))
        digests[f"desk_core/seed{seed}/RunReport"] = _sha(repr(report).encode())
    price = PriceProcessConfig(kind=REFLECTING_WALK, start_price=10000,
                               stay_probability=Fraction(0))
    for seed in (1, 2, 3, 4):
        summary = estimate_hitting_time(price, 10000, 100, ABOVE, 25, 10_000_000,
                                        master_seed=seed)
        digests[f"recurrence/seed{seed}/HittingTimeSummary"] = _sha(repr(summary).encode())
    for name, price, start, xi, direction, cap in _reflecting_hitting_setups():
        for seed in (1, 2):
            summary = estimate_hitting_time(price, start, xi, direction, 25, cap,
                                            master_seed=seed)
            digests[f"reflecting_walk/{name}/seed{seed}/HittingTimeSummary"] = _sha(
                repr(summary).encode())
    # The mean-reverting walk's hitting times, through its windows of
    # thresholds and its moves resolved one at a time.
    price = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=0, grid_max=30,
                               start_price=15, stay_probability=Fraction(1, 3),
                               reversion_strength=Fraction(1, 4))
    for seed in (1, 2):
        summary = estimate_hitting_time(price, 15, 10, ABOVE, 25, 10_000_000,
                                        master_seed=seed)
        digests[f"mean_reverting_walk/seed{seed}/HittingTimeSummary"] = _sha(
            repr(summary).encode())
    return digests


def test_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = compute_digests(tmp_path)
    changed = sorted(k for k in golden["digests"].keys() | digests.keys()
                     if golden["digests"].get(k) != digests.get(k))
    assert not changed, (
        f"digests changed for {changed}; golden.json was made with numpy "
        f"{golden['numpy']}, this is numpy {np.__version__}")
    # The auditor passes every pinned run directory.
    run_dirs = [path.parent for path in sorted(tmp_path.rglob(SUMMARY_JSON))]
    assert len(run_dirs) == 8
    for run_dir in run_dirs:
        assert all_passed(verify_run(run_dir)), run_dir


if __name__ == "__main__":
    old = (json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
           if GOLDEN.exists() else {})
    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, "digests": compute_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    new = record["digests"]
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            status = ("added" if key not in old else "removed" if key not in new
                      else "changed")
            print(f"{status}: {key}", file=sys.stderr)
    print(f"wrote {len(new)} digests to {GOLDEN}", file=sys.stderr)
