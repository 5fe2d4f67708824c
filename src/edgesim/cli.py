"""Command line entry points.

    edgesim simulate <config.yaml> [--seed N] [--out DIR]
    edgesim verify <run-dir>
    edgesim sweep <config.yaml> --grid "tau=10,25;gamma=25" [--out FILE] [--seed N]
    edgesim recurrence <config.yaml> --xi 100 --samples 10000 [--cap N]
                       [--direction above|below] [--start P] [--seed N]

--seed N sets run.master_seed for simulate, sweep and recurrence.

Exit status is 0 only when every check passes; simulation aborts
(invariant violations, stranded orders, bad configs) exit nonzero with a
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from .dominance import SimulationError
from .harness import RunConfig, replication_seed, run_simulation, sweep
from .prices import ABOVE, BELOW, estimate_hitting_time
from .runio import (load_config, parse_field, write_run_artifacts,
                    write_sweep_csv)
from .verify import all_passed, verify_run


def _parse_grid(spec: str) -> dict[str, list]:
    """name=v1,v2;... with each value read as YAML and parsed as the
    dominance field it names; sweep() refuses names it cannot sweep."""
    grid: dict[str, list] = {}
    for part in filter(None, (p.strip() for p in spec.split(";"))):
        name, eq, values = part.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"bad grid entry {part!r}; expected name=v1,v2,...")
        if name in grid:
            raise ValueError(f"grid key {name!r} given twice")
        grid[name] = [parse_field("dominance", name, yaml.safe_load(v))
                      for v in values.split(",")]
    if not grid:
        raise ValueError("empty grid spec")
    return grid


def _load(args: argparse.Namespace) -> RunConfig:
    """The config file with --seed, if given, as its run.master_seed."""
    config = load_config(args.config)
    if args.seed is None:
        return config
    return replace(config, run=replace(config.run, master_seed=args.seed))


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    out_base = Path(args.out or config.run.out_dir or "edgesim_run")

    reps = config.run.replications
    ok = True
    for rep in range(reps):
        rep_seed = replication_seed(config.run.master_seed, rep)
        report = run_simulation(config, master_seed=rep_seed)
        out = out_base if reps == 1 else out_base / f"rep_{rep:03d}"
        write_run_artifacts(report, out)
        print(f"run seed={rep_seed}: {report.phases_completed} phases, "
              f"{len(report.records)} delayed orders, "
              f"final diff {report.final_diff} quanta -> {out}")
        for p in report.phases:
            print(f"  phase {p.phase_index:3d} end={p.end_time:>10d} "
                  f"diff={p.pnl_diff:>8d} bound={p.lower_bound:>8d} "
                  f"n_delayed={p.n_delayed}")
        verdicts = verify_run(out)
        for v in verdicts:
            print(f"  {v}")
        ok = ok and all_passed(verdicts)
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    verdicts = verify_run(args.run_dir)
    for v in verdicts:
        print(v)
    return 0 if all_passed(verdicts) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    grid = _parse_grid(args.grid)
    rows = sweep(config, grid)
    out = Path(args.out or "sweep.csv")
    write_sweep_csv(rows, out)
    for row in rows:
        cell = " ".join(f"{k}={v}" for k, v in row.cell.items())
        if row.status == "ok":
            print(f"{cell} rep={row.replication}: diff={row.final_diff} "
                  f"phases={row.phases_completed} q_delayed={row.q_delayed}")
        else:
            print(f"{cell} rep={row.replication}: skipped ({row.note})")
    print(f"wrote {out}")
    return 0


def _cmd_recurrence(args: argparse.Namespace) -> int:
    config = _load(args)
    price = config.price
    start = args.start if args.start is not None else price.start_price
    summary = estimate_hitting_time(
        price, start, args.xi, args.direction, args.samples, args.cap,
        master_seed=config.run.master_seed)
    print(f"threshold {args.direction} {args.xi} ticks from {start}: "
          f"{summary.count_finite}/{summary.samples} hit within cap "
          f"{summary.cap}")
    print(f"mean hitting time {summary.mean:.1f} ticks, max {summary.max}")
    return 0 if summary.count_finite == summary.samples else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="edgesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation and write artifacts")
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="re-audit a run directory offline")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="grid sweep over dominance parameters")
    p.add_argument("config")
    p.add_argument("--grid", required=True,
                   help='e.g. "tau=10,25;gamma=25,50;queue_cap=1,3"')
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("recurrence",
                       help="empirical hitting-time check for the price process")
    p.add_argument("config")
    p.add_argument("--xi", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--direction", choices=[ABOVE, BELOW], default=ABOVE)
    p.add_argument("--start", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_recurrence)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, ValueError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
