"""Span tracer for the benchmark's traced run.

The tracer patches the program's public functions at the names their
callers look up (harness imports walk_block, intent_block, ... by name; cli
imports write_run_artifacts and verify_run by name) and records one span
per call: name, start, end and parent.  Spans stay in compact in-memory
arrays until the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous and single
threaded, so children nest inside their parent and the self times of all
spans add up exactly to the duration of the root spans (one per
benchmark operation, named bench.op).

Exact counts (enqueues, releases, rows, bytes, ...) are taken from the
same calls' arguments and results, per operation.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from edgesim import cli, dominance, harness, prices, verify

ROOT = "bench.op"

# Per-layer metrics in the order they are reported: (name, unit).
LAYER_METRICS = [
    ("prices.walk_block.self_s", "s"),
    ("prices.walk_block.calls", "count"),
    ("prices.next_price.self_s", "s"),
    ("prices.next_price.calls", "count"),
    ("prices.estimate_hitting_time.s", "s"),
    ("prices.hitting.steps", "count"),
    ("strategies.intent_block.self_s", "s"),
    ("strategies.intents", "count"),
    ("strategies.baseline_on_tick.self_s", "s"),
    ("dominance.on_base_fill.self_s", "s"),
    ("dominance.on_base_fill.calls", "count"),
    ("dominance.enqueues", "count"),
    ("dominance.enqueue_ratio", "ratio"),
    ("dominance.on_tick.self_s", "s"),
    ("dominance.on_tick.calls", "count"),
    ("dominance.releases", "count"),
    ("dominance.on_tick.release_ratio", "ratio"),
    ("dominance.current_release_bounds.self_s", "s"),
    ("dominance.current_release_bounds.calls", "count"),
    ("dominance.phase_pnl_diff_check.self_s", "s"),
    ("accounting.pnl_direct.self_s", "s"),
    ("accounting.orders_scanned", "count"),
    ("harness.self_s", "s"),
    ("harness.phases", "count"),
    ("harness.tick_recording.self_s", "s"),
    ("harness.tick_rows", "count"),
    ("runio.write_run_artifacts.self_s", "s"),
    ("runio.bytes_written", "B"),
    ("runio.read_ticks.self_s", "s"),
    ("runio.load_config.s", "s"),
    ("verify.verify_run.self_s", "s"),
    ("verify.verdicts", "count"),
    ("setup.import_s", "s"),
    ("bench.op.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

# Span name -> the metric its summed self time is reported under.
SELF_METRIC = {
    "prices.walk_block": "prices.walk_block.self_s",
    "prices.next_price": "prices.next_price.self_s",
    "prices.estimate_hitting_time": "prices.estimate_hitting_time.s",
    "strategies.intent_block": "strategies.intent_block.self_s",
    "strategies.baseline_on_tick": "strategies.baseline_on_tick.self_s",
    "dominance.on_base_fill": "dominance.on_base_fill.self_s",
    "dominance.on_tick": "dominance.on_tick.self_s",
    "dominance.current_release_bounds": "dominance.current_release_bounds.self_s",
    "dominance.phase_pnl_diff_check": "dominance.phase_pnl_diff_check.self_s",
    "accounting.pnl_direct": "accounting.pnl_direct.self_s",
    "harness": "harness.self_s",
    "harness.tick_recording": "harness.tick_recording.self_s",
    "runio.write_run_artifacts": "runio.write_run_artifacts.self_s",
    "runio.read_ticks": "runio.read_ticks.self_s",
    "verify.verify_run": "verify.verify_run.self_s",
    ROOT: "bench.op.self_s",
}

Counts = dict[str, int]


def _count_phases(c: Counts, args, report) -> None:
    c["harness.phases"] += len(report.phases)


def _count_steps(c: Counts, args, summary) -> None:
    # The summary's mean is a float over integer times whose sum stays far
    # below 2**53, so mean * count rounds back to the exact sum.
    if summary.count_finite:
        c["prices.hitting.steps"] += round(summary.mean * summary.count_finite)


def _count_block_intents(c: Counts, args, result) -> None:
    c["strategies.intents"] += len(result[0])


def _count_tick_intent(c: Counts, args, intent) -> None:
    c["strategies.intents"] += intent is not None


def _count_enqueue(c: Counts, args, action) -> None:
    c["dominance.enqueues"] += action == dominance.ENQUEUE


def _count_releases(c: Counts, args, result) -> None:
    records = result[0]
    c["dominance.releases"] += len(records)
    c["dominance.on_tick.releasing_calls"] += bool(records)


def _count_orders(c: Counts, args, result) -> None:
    c["accounting.orders_scanned"] += len(args[0])


def _count_rows(c: Counts, args, series) -> None:
    if series is not None:
        c["harness.tick_rows"] += len(series)


def _count_bytes(c: Counts, args, out_dir: Path) -> None:
    c["runio.bytes_written"] += sum(f.stat().st_size for f in out_dir.iterdir()
                                    if f.is_file())


def _count_verdicts(c: Counts, args, verdicts) -> None:
    c["verify.verdicts"] += len(verdicts)


# (owner, attribute, span name, count hook).  Each function is patched where
# its caller looks it up.
PATCHES: list[tuple[Any, str, str, Callable | None]] = [
    (harness, "run_simulation", "harness", _count_phases),
    (cli, "run_simulation", "harness", _count_phases),
    (harness, "walk_block", "prices.walk_block", None),
    (harness, "next_price", "prices.next_price", None),
    (prices, "estimate_hitting_time", "prices.estimate_hitting_time", _count_steps),
    (harness, "intent_block", "strategies.intent_block", _count_block_intents),
    (harness, "baseline_on_tick", "strategies.baseline_on_tick", _count_tick_intent),
    (dominance.DominanceEngine, "on_base_fill", "dominance.on_base_fill",
     _count_enqueue),
    (dominance.DominanceEngine, "on_tick", "dominance.on_tick", _count_releases),
    (dominance.DominanceEngine, "current_release_bounds",
     "dominance.current_release_bounds", None),
    (harness, "phase_pnl_diff_check", "dominance.phase_pnl_diff_check", None),
    (dominance, "pnl_direct", "accounting.pnl_direct", _count_orders),
    (harness._RunState, "emit_initial_row", "harness.tick_recording", None),
    (harness._RunState, "emit_rows", "harness.tick_recording", None),
    (harness._RunState, "emit_row", "harness.tick_recording", None),
    (harness._RunState, "tick_series", "harness.tick_recording", _count_rows),
    (cli, "write_run_artifacts", "runio.write_run_artifacts", _count_bytes),
    (verify, "read_ticks", "runio.read_ticks", None),
    (cli, "verify_run", "verify.verify_run", _count_verdicts),
]


class Tracer:
    """In-memory span recorder with per-operation counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._counts: Counts = defaultdict(int)
        self.op_counts: list[tuple[str, Counts]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             hook: Callable | None = None) -> Callable:
        nid = self._id(name)
        names, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self._counts, time.perf_counter_ns
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            counts[calls_key] += 1
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, hook in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call_op(self, label: str, fn: Callable, *args):
        """Run one benchmark operation under a root span; keep its counts."""
        self._counts.clear()
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            counts = dict(self._counts)
            counts.pop(ROOT + ".calls", None)
            self.op_counts.append((label, counts))

    # -- results ---------------------------------------------------------

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        return name_id, parent, dur

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        name_id, parent, dur = self._arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        own = np.bincount(name_id, weights=dur - covered,
                          minlength=len(self.names))
        return {n: float(own[i]) / 1e9 for i, n in enumerate(self.names)}

    def root_seconds(self) -> float:
        _, parent, dur = self._arrays()
        return float(dur[parent < 0].sum()) / 1e9

    def save(self, path: Path) -> None:
        """Write every span and the per-operation counts to one .npz file."""
        name_id, parent, _ = self._arrays()
        labels = [label for label, _ in self.op_counts]
        keys = sorted({k for _, c in self.op_counts for k in c})
        table = np.array([[c.get(k, 0) for k in keys] for _, c in self.op_counts],
                         dtype=np.int64).reshape(len(labels), len(keys))
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 op_labels=np.array(labels), count_keys=np.array(keys),
                 op_counts=table)


def layer_metrics(tracer: Tracer, rounds: int, ops_per_round: int,
                  untraced_round_s: float, import_s: float,
                  load_config_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics for one traced round (times averaged over the
    traced rounds, counts checked equal in every round)."""
    errors: list[str] = []
    per_round: list[Counts] = []
    for r in range(rounds):
        total: Counts = defaultdict(int)
        for _, counts in tracer.op_counts[r * ops_per_round:(r + 1) * ops_per_round]:
            for k, v in counts.items():
                total[k] += v
        per_round.append(dict(total))
    if any(c != per_round[0] for c in per_round[1:]):
        errors.append("traced counts differ between rounds of the same operations")
    counts = defaultdict(int, per_round[0])

    values = {name: 0 for name, _ in LAYER_METRICS}
    for span, seconds in tracer.self_seconds().items():
        values[SELF_METRIC[span]] += seconds / rounds
    for key, count in counts.items():   # <span>.calls and the hook counts
        if key in values:
            values[key] = count
    fills = counts["dominance.on_base_fill.calls"]
    ticks = counts["dominance.on_tick.calls"]
    values["dominance.enqueue_ratio"] = counts["dominance.enqueues"] / fills if fills else 0.0
    values["dominance.on_tick.release_ratio"] = (
        counts["dominance.on_tick.releasing_calls"] / ticks if ticks else 0.0)
    values["setup.import_s"] = import_s
    values["runio.load_config.s"] = load_config_s
    wall = tracer.root_seconds() / rounds
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_round_s

    self_sum = sum(values[m] for m in SELF_METRIC.values())
    if abs(self_sum - wall) > 1e-6 * max(wall, 1e-9):
        errors.append(f"self times sum to {self_sum:.9f} s, traced wall is "
                      f"{wall:.9f} s")
    return values, errors
