"""edgesim benchmark: fixed-work workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke

Run from the root of a source checkout; the program is imported from
src/.  One run measures one workload in this process, in whole rounds
(every operation of the workload once) until --seconds is used up, and
checks every operation's output.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`:

  --trace 0  ticks_per_s (from each operation's median time over the
             rounds), peak_rss_mb (this process), setup_s (median over
             fresh interpreters); both times at the nominal machine speed
             of benchmark/reference.py
  --trace 1  the per-layer metrics of benchmark/tracing.py, from traced
             rounds that alternate with untraced ones

--smoke runs every workload with tiny sizes in both modes and exits
nonzero if any check fails.  Progress and a readable summary go to
standard error; run files, traces and results go under .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE.parent / ".bench_runs"

SETUP_STARTS = 9
SMOKE_SETUP_STARTS = 1
SETUP_REFERENCE = ("python",)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def probe_setup(workload, starts: int) -> list[dict]:
    """Time `starts` fresh interpreters from their start to the first
    simulated tick, after one start that is not counted (it may compile
    the bytecode cache).  Each time is also scaled to the nominal machine
    speed by the Python reference job run around it (imports are
    interpreted Python)."""
    records = []
    before = reference.measure(SETUP_REFERENCE)
    for i in range(starts + 1):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(workload.config_path),
             workload.probe_kind],
            capture_output=True, text=True, timeout=120, check=True)
        record = json.loads(done.stdout.splitlines()[-1])
        after = reference.measure(SETUP_REFERENCE)
        record["wall_s"] = record["first_tick"] - t0
        record["setup_s"] = record["wall_s"] / reference.slowdown(before, after)
        before = after
        if i:
            records.append(record)
    return records


class Round:
    """One pass over every operation of a workload.

    Reference jobs run before the first operation and after each one; an
    operation's wall time divided by the machine slowdown measured around
    it is its time at the nominal machine speed."""

    def __init__(self, workload, order, tracer=None):
        self.ops: dict[int, tuple[int, float, float]] = {}  # seed -> ticks, wall, nominal
        self.failed = 0
        self.errors: list[str] = []
        before = reference.measure(workload.reference)
        for seed in order:
            t0 = time.perf_counter()
            try:
                try:
                    if tracer is None:
                        result = workload.run(seed)
                    else:
                        result = tracer.call_op(str(seed), workload.run, seed)
                finally:
                    wall = time.perf_counter() - t0
                after = reference.measure(workload.reference)
                self.ops[seed] = (workload.ticks(result), wall,
                                  wall / reference.slowdown(before, after))
                before = after
                problems = workload.check(result)
            except Exception:  # a raising operation or check is a failure
                problems = [f"seed {seed}: {traceback.format_exc()}"]
            if problems:
                self.failed += 1
                self.errors.extend(problems)
        self.attempted = len(order)
        self.wall_s = sum(w for _, w, _ in self.ops.values())


def throughput(rounds: list[Round]) -> tuple[float, float]:
    """Ticks per second at the nominal machine speed, from each
    operation's median nominal time over the rounds, and the same by
    wall time."""
    seeds = set.intersection(*(set(r.ops) for r in rounds))
    if not seeds:
        return 0.0, 0.0
    ticks = sum(rounds[0].ops[s][0] for s in seeds)
    wall = sum(statistics.median(r.ops[s][1] for r in rounds) for s in seeds)
    nominal = sum(statistics.median(r.ops[s][2] for r in rounds) for s in seeds)
    return ticks / nominal, ticks / wall


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    run_dir = RUNS / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](smoke, run_dir)
        order = list(workload.seeds)
        random.Random(seed).shuffle(order)
        log(f"{name}: operations {order}, {seconds:g} s, trace {int(trace)}")
        setup = probe_setup(workload, SMOKE_SETUP_STARTS if smoke else SETUP_STARTS)

        untraced: list[Round] = []
        traced: list[Round] = []
        tracer = Tracer() if trace else None
        t0 = time.perf_counter()
        while True:
            untraced.append(Round(workload, order))
            log(f"  round {len(untraced)}: " + ", ".join(
                f"{s}: {t} ticks {w:.3f} s ({n:.3f} s nominal)"
                for s, (t, w, n) in untraced[-1].ops.items()))
            if trace:
                tracer.install()
                try:
                    traced.append(Round(workload, order, tracer))
                finally:
                    tracer.uninstall()
                log(f"  traced round {len(traced)}: {traced[-1].wall_s:.3f} s")
            elapsed = time.perf_counter() - t0
            # Start another round only if it can end within --seconds.
            if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = untraced + traced
    errors = [e for r in rounds for e in r.errors]
    if trace:
        values, trace_errors = layer_metrics(
            tracer, len(traced), len(order),
            statistics.fmean(r.wall_s for r in untraced),
            statistics.median(p["import_s"] for p in setup),
            statistics.median(p["load_config_s"] for p in setup))
        errors += trace_errors
        for label, counts in tracer.op_counts[:len(order)]:
            log(f"  counts, seed {label}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(counts.items())))
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in LAYER_METRICS}
        tracer.save(RUNS / f"trace-{name}.npz")
    else:
        rate, wall_rate = throughput(untraced)
        log(f"  by wall time: {wall_rate:.6g} ticks/s, set-up "
            f"{statistics.median(p['wall_s'] for p in setup):.4f} s")
        metrics = {
            "ticks_per_s": {"value": rate, "unit": "ticks/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "unit": "MB"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setup),
                        "unit": "s"},
        }
    for e in errors:
        log(f"  FAILED CHECK: {e}")
    for m, v in metrics.items():
        log(f"  {m} = {v['value']:.6g} {v['unit']}")
    return {"correct": not errors,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics}


def smoke() -> int:
    """Every workload, tiny sizes, untraced then traced."""
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, seed=1, seconds=0, trace=trace, smoke=True)
            ok = ok and result["correct"] and result["failed"] == 0
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, in seconds")
    args = parser.parse_args()

    if not (SRC / "edgesim" / "__init__.py").is_file():
        log(f"error: no edgesim sources at {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
