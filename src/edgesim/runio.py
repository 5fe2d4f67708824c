"""Config files and run artifacts.

Config is YAML with five sections (instrument, price, strategy, dominance,
run); every key has a default, and the price grid defaults to the
instrument grid.  Exact rationals may be written as "1/2" strings, ints,
or decimal floats (floats are parsed through their decimal string so
0.02 means 1/50, not its binary approximation).

A run directory contains:

  ticks.csv           time,price_ticks,pnl_s_quanta,pnl_sstar_quanta,diff_quanta
  phases.csv          phase,end_time,q_delayed,diff_quanta,lower_bound_quanta,n_delayed
  delayed_orders.csv  order_id,sign,qty,t_delay,p_delay_ticks,t_exec,p_exec_ticks,gap_ticks
  summary.json        config echo, results (ticks and currency), verdicts

q_delayed and diff_quanta in phases.csv are cumulative from the start of
the run; n_delayed counts the phase's own delayed orders.  Prices in the
delayed-order file are the side-adjusted fill prices.  All files are
written deterministically: same config and seed, same bytes.

ticks.csv is derived data: the run keeps its price path and one aggregate
mark per fill or release, derives the five columns from them in one pass,
and writes them in blocks of rows.  read_ticks streams the file back in
chunks of rows, so verify checks it in bounded memory.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np
import yaml

from .dominance import DominanceParams
from .harness import RunConfig, RunReport, RunSettings, SweepRow, default_config
from .market import Instrument, quanta_to_currency
from .prices import PriceProcessConfig
from .strategies import BaselineConfig

TICKS_CSV = "ticks.csv"
PHASES_CSV = "phases.csv"
DELAYED_CSV = "delayed_orders.csv"
SUMMARY_JSON = "summary.json"

TICKS_HEADER = "time,price_ticks,pnl_s_quanta,pnl_sstar_quanta,diff_quanta"
PHASES_HEADER = ["phase", "end_time", "q_delayed", "diff_quanta",
                 "lower_bound_quanta", "n_delayed"]
DELAYED_HEADER = ["order_id", "sign", "qty", "t_delay", "p_delay_ticks",
                  "t_exec", "p_exec_ticks", "gap_ticks"]

# ticks.csv is formatted and read back _CHUNK_ROWS rows (about 230 kB of
# text) at a time: per-chunk overhead stays negligible, and no temporary
# comes near the size of the series.
_ROW_FORMAT = "%d,%d,%d,%d,%d\n"
_CHUNK_ROWS = 8192


def parse_fraction(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"cannot parse {value!r} as an exact rational")


def parse_decimal(value: Any) -> Decimal:
    if isinstance(value, Decimal):
        return value
    return Decimal(str(value))


def _section(data: Mapping | None, name: str) -> dict:
    section = (data or {}).get(name) or {}
    if not isinstance(section, Mapping):
        raise ValueError(f"config section {name!r} must be a mapping")
    return dict(section)


def config_from_dict(data: Mapping | None) -> RunConfig:
    base = default_config()
    inst = _section(data, "instrument")
    instrument = Instrument(
        symbol=str(inst.get("symbol", base.instrument.symbol)),
        multiplier=int(inst.get("multiplier", base.instrument.multiplier)),
        tick_size=parse_decimal(inst.get("tick_size", base.instrument.tick_size)),
        grid_min=int(inst.get("grid_min", base.instrument.grid_min)),
        grid_max=int(inst.get("grid_max", base.instrument.grid_max)))

    pr = _section(data, "price")
    price = PriceProcessConfig(
        kind=str(pr.get("kind", base.price.kind)),
        grid_min=int(pr.get("grid_min", instrument.grid_min)),
        grid_max=int(pr.get("grid_max", instrument.grid_max)),
        start_price=int(pr.get("start_price", base.price.start_price)),
        stay_probability=parse_fraction(
            pr.get("stay_probability", base.price.stay_probability)),
        reversion_strength=parse_fraction(
            pr.get("reversion_strength", base.price.reversion_strength)),
        seed=int(pr.get("seed", base.price.seed)))

    st = _section(data, "strategy")
    strategy = BaselineConfig(
        kind=str(st.get("kind", base.strategy.kind)),
        order_probability=parse_fraction(
            st.get("order_probability", base.strategy.order_probability)),
        period=int(st.get("period", base.strategy.period)),
        quantity=int(st.get("quantity", base.strategy.quantity)))

    dom = _section(data, "dominance")
    dominance = DominanceParams(
        tau=int(dom.get("tau", base.dominance.tau)),
        gamma=int(dom.get("gamma", base.dominance.gamma)),
        delay_probability=parse_fraction(
            dom.get("delay_probability", base.dominance.delay_probability)),
        queue_cap=int(dom.get("queue_cap", base.dominance.queue_cap)),
        min_distance=int(dom.get("min_distance", base.dominance.min_distance)),
        stage1_fill_count=int(dom.get("stage1_fill_count",
                                      base.dominance.stage1_fill_count)),
        max_phase_ticks=int(dom.get("max_phase_ticks",
                                    base.dominance.max_phase_ticks)))

    rn = _section(data, "run")
    total_ticks = rn.get("total_ticks")
    target_phases = rn.get("target_phases")
    if total_ticks is None and target_phases is None:
        target_phases = base.run.target_phases
    run = RunSettings(
        total_ticks=None if total_ticks is None else int(total_ticks),
        target_phases=None if target_phases is None else int(target_phases),
        master_seed=int(rn.get("master_seed", base.run.master_seed)),
        half_spread=int(rn.get("half_spread", base.run.half_spread)),
        commission_per_unit=int(rn.get("commission_per_unit",
                                       base.run.commission_per_unit)),
        replications=int(rn.get("replications", base.run.replications)),
        record_ticks=bool(rn.get("record_ticks", base.run.record_ticks)),
        keep_orders=bool(rn.get("keep_orders", base.run.keep_orders)),
        disable_delays=bool(rn.get("disable_delays", base.run.disable_delays)),
        out_dir=rn.get("out_dir"))

    return RunConfig(instrument, price, strategy, dominance, run)


def load_config(path: str | Path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is not None and not isinstance(data, Mapping):
        raise ValueError(f"{path}: config root must be a mapping")
    return config_from_dict(data)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, Mapping):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def config_to_dict(config: RunConfig) -> dict:
    return {
        "instrument": _jsonable(asdict(config.instrument)),
        "price": _jsonable(asdict(config.price)),
        "strategy": _jsonable(asdict(config.strategy)),
        "dominance": _jsonable(asdict(config.dominance)),
        "run": _jsonable(asdict(config.run)),
    }


def save_config(config: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


def summary_dict(report: RunReport) -> dict:
    instrument = report.config.instrument
    mean_gap = report.mean_order_gap
    summary = {
        "schema": "edgesim-run-summary/1",
        "seed": report.master_seed,
        "config": config_to_dict(report.config),
        "results": {
            "final_time": report.final_time,
            "final_price_ticks": report.final_price,
            "final_price_currency": str(
                report.final_price * instrument.tick_size),
            "final_diff_quanta": report.final_diff,
            "final_diff_currency": str(
                quanta_to_currency(report.final_diff, instrument)),
            "phases_completed": report.phases_completed,
            "q_delayed_total": report.q_delayed_total,
            "n_delayed_orders": len(report.records),
            "mean_order_gap_ticks": None if mean_gap is None else str(mean_gap),
            "max_drawdown_s_quanta": report.max_drawdown_s,
            "max_drawdown_sstar_quanta": report.max_drawdown_sstar,
            "drawdown_exact": report.drawdown_exact,
            "commissions_s_quanta": report.commissions_s,
            "commissions_sstar_quanta": report.commissions_sstar,
            "stop_reason": report.stop_reason,
        },
        "verdicts": report.verdicts,
    }
    return summary


def write_run_artifacts(report: RunReport, out_dir: str | Path) -> Path:
    """Write phases.csv, delayed_orders.csv, summary.json, and (when the
    run recorded its tick series) ticks.csv into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / PHASES_CSV, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PHASES_HEADER)
        for p in report.phases:
            w.writerow([p.phase_index, p.end_time, p.delayed_quantity,
                        p.pnl_diff, p.lower_bound, p.n_delayed])

    with open(out / DELAYED_CSV, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(DELAYED_HEADER)
        for r in report.records:
            w.writerow([r.order_id, r.sign, r.quantity, r.delay_time,
                        r.base_fill_price, r.execution_time,
                        r.execution_price, r.gap])

    if report.ticks is not None:
        t = report.ticks
        cols = (t.time, t.price, t.pnl_s, t.pnl_sstar, t.diff)
        with open(out / TICKS_CSV, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TICKS_HEADER + "\n")
            for lo in range(0, len(t), _CHUNK_ROWS):
                chunk = np.column_stack([c[lo:lo + _CHUNK_ROWS] for c in cols])
                fh.write(_ROW_FORMAT * len(chunk) % tuple(chunk.ravel().tolist()))

    with open(out / SUMMARY_JSON, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def read_phases(run_dir: str | Path) -> list[dict]:
    with open(Path(run_dir) / PHASES_CSV, "r", encoding="utf-8") as fh:
        return [{k: int(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def read_delayed(run_dir: str | Path) -> list[dict]:
    with open(Path(run_dir) / DELAYED_CSV, "r", encoding="utf-8") as fh:
        return [{k: int(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def read_ticks(run_dir: str | Path) -> Iterator[np.ndarray] | None:
    """The rows of ticks.csv as consecutive int64 chunks of up to
    _CHUNK_ROWS rows, or None when the run recorded no tick series."""
    path = Path(run_dir) / TICKS_CSV
    if not path.exists():
        return None
    return _tick_chunks(path)


def _tick_chunks(path: Path) -> Iterator[np.ndarray]:
    with open(path, "rb") as fh:
        fh.readline()
        while fh.peek(1):
            yield np.loadtxt(itertools.islice(fh, _CHUNK_ROWS), dtype=np.int64,
                             delimiter=",", ndmin=2)


def read_summary(run_dir: str | Path) -> dict:
    with open(Path(run_dir) / SUMMARY_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    keys: list[str] = []
    for row in rows:
        for k in row.cell:
            if k not in keys:
                keys.append(k)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(keys + ["replication", "seed", "status", "final_diff_quanta",
                           "phases_completed", "q_delayed", "n_delayed",
                           "mean_gap_ticks", "note"])
        for row in rows:
            mean_gap = "" if row.mean_gap is None else f"{float(row.mean_gap):.6f}"
            w.writerow([str(row.cell.get(k, "")) for k in keys]
                       + [row.replication, row.seed, row.status, row.final_diff,
                          row.phases_completed, row.q_delayed, row.n_delayed,
                          mean_gap, row.note])
