"""Offline re-audit of a completed run from its artifacts alone.

verify_run re-derives every provable clause from phases.csv,
delayed_orders.csv, summary.json and (when present) ticks.csv, without
trusting any in-run bookkeeping.  Each clause yields one verdict; a
violation names the first offending phase index or order id.  ticks.csv
is streamed in chunks, so its check runs in bounded memory however long
the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dominance import (CLAUSE_LOWER_BOUND, CLAUSE_MONOTONICITY,
                        CLAUSE_PER_ORDER_GAP, CLAUSE_PHASE_IDENTITY,
                        CLAUSE_POSITIVITY, CLAUSE_QUEUE_CAP,
                        CLAUSE_TICK_CONSISTENCY)
from .runio import (DELAYED_CSV, PHASES_CSV, read_int_csv, read_summary,
                    read_ticks)


@dataclass(frozen=True)
class Verdict:
    clause: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"{status}  {self.clause}{tail}"


def _check_per_order_gap(records: list[dict], gamma: int, tau: int) -> Verdict:
    threshold = gamma + tau
    for r in records:
        gap = r["sign"] * (r["p_exec_ticks"] - r["p_delay_ticks"])
        if gap != r["gap_ticks"]:
            return Verdict(CLAUSE_PER_ORDER_GAP, False,
                           f"order {r['order_id']}: recorded gap "
                           f"{r['gap_ticks']} != sign*(p_exec-p_delay) = {gap}")
        if gap <= threshold:
            return Verdict(CLAUSE_PER_ORDER_GAP, False,
                           f"order {r['order_id']}: gap {gap} ticks does not "
                           f"exceed gamma + tau = {threshold}")
    return Verdict(CLAUSE_PER_ORDER_GAP, True, f"{len(records)} orders")


def _check_phase_identity(phases: list[dict], records: list[dict],
                          multiplier: int) -> Verdict:
    events = sorted(records, key=lambda r: (r["t_exec"], r["order_id"]))
    idx = 0
    telescoping = 0
    for p in phases:
        while idx < len(events) and events[idx]["t_exec"] <= p["end_time"]:
            r = events[idx]
            telescoping += r["gap_ticks"] * r["qty"]
            idx += 1
        if p["diff_quanta"] != multiplier * telescoping:
            return Verdict(CLAUSE_PHASE_IDENTITY, False,
                           f"phase {p['phase']}: diff {p['diff_quanta']} != "
                           f"telescoping sum {multiplier * telescoping}")
    if idx != len(events):
        return Verdict(CLAUSE_PHASE_IDENTITY, False,
                       f"{len(events) - idx} delayed orders executed after "
                       f"the last phase end")
    return Verdict(CLAUSE_PHASE_IDENTITY, True, f"{len(phases)} phases")


def _check_lower_bound(phases: list[dict], multiplier: int, gamma: int,
                       tau: int) -> Verdict:
    for p in phases:
        expected = multiplier * p["q_delayed"] * (gamma + tau)
        if p["lower_bound_quanta"] != expected:
            return Verdict(CLAUSE_LOWER_BOUND, False,
                           f"phase {p['phase']}: recorded bound "
                           f"{p['lower_bound_quanta']} != m*Q_D*(gamma+tau) "
                           f"= {expected}")
        if p["diff_quanta"] < expected:
            return Verdict(CLAUSE_LOWER_BOUND, False,
                           f"phase {p['phase']}: diff {p['diff_quanta']} "
                           f"below bound {expected}")
    return Verdict(CLAUSE_LOWER_BOUND, True, f"{len(phases)} phases")


def _check_positivity(phases: list[dict]) -> Verdict:
    for p in phases:
        if p["q_delayed"] >= 1 and p["diff_quanta"] <= 0:
            return Verdict(CLAUSE_POSITIVITY, False,
                           f"phase {p['phase']}: diff {p['diff_quanta']} "
                           f"not strictly positive with Q_D = {p['q_delayed']}")
    return Verdict(CLAUSE_POSITIVITY, True, f"{len(phases)} phases")


def _check_monotonicity(phases: list[dict]) -> Verdict:
    prev = 0
    for p in phases:
        if p["diff_quanta"] < prev:
            return Verdict(CLAUSE_MONOTONICITY, False,
                           f"phase {p['phase']}: diff {p['diff_quanta']} "
                           f"decreased from {prev}")
        if p["n_delayed"] >= 1 and p["diff_quanta"] <= prev:
            return Verdict(CLAUSE_MONOTONICITY, False,
                           f"phase {p['phase']}: diff {p['diff_quanta']} not "
                           f"strictly above {prev} despite {p['n_delayed']} "
                           f"delayed orders")
        prev = p["diff_quanta"]
    return Verdict(CLAUSE_MONOTONICITY, True, f"{len(phases)} phases")


def _check_queue_cap(records: list[dict], cap: int) -> Verdict:
    # An entry occupies a slot from its delay tick through its execution
    # tick inclusive: a same-tick enqueue precedes the queue scan.
    events: list[tuple[int, int, int]] = []
    for r in records:
        events.append((r["t_delay"], 1, r["order_id"]))
        events.append((r["t_exec"] + 1, -1, r["order_id"]))
    events.sort()
    occupancy = 0
    for time, delta, order_id in events:
        occupancy += delta
        if occupancy > cap:
            return Verdict(CLAUSE_QUEUE_CAP, False,
                           f"at t={time} queue occupancy {occupancy} exceeds "
                           f"cap {cap} (order {order_id})")
    return Verdict(CLAUSE_QUEUE_CAP, True, f"{len(records)} orders")


def _check_tick_consistency(run_dir: Path, phases: list[dict],
                            final_time: int) -> Verdict | None:
    """Stream ticks.csv: five integer columns, rows t = 0 .. final_time in
    order, pnl_sstar = pnl_s + diff on every row, and each phase end's diff
    as in phases.csv.  An unreadable file fails the clause."""
    chunks = read_ticks(run_dir)
    if chunks is None:
        return None
    ends = np.array([p["end_time"] for p in phases], dtype=np.int64)
    n_rows = 0
    while True:
        try:
            rows = next(chunks, None)
        except ValueError as exc:
            return Verdict(CLAUSE_TICK_CONSISTENCY, False,
                           f"ticks.csv unreadable after {n_rows} rows: {exc}")
        if rows is None:
            break
        if rows.shape[1] != 5:
            return Verdict(CLAUSE_TICK_CONSISTENCY, False,
                           f"ticks.csv rows have {rows.shape[1]} columns, "
                           f"expected 5")
        times, pnl_s, pnl_star, diff = rows[:, [0, 2, 3, 4]].T
        bad = np.flatnonzero(times != np.arange(n_rows, n_rows + len(rows)))
        if len(bad):
            return Verdict(CLAUSE_TICK_CONSISTENCY, False,
                           f"ticks.csv row {n_rows + bad[0]} has t="
                           f"{times[bad[0]]}; rows must run t = 0, 1, ...")
        total = pnl_s + diff
        # int64 addition wraps; a wrapped sum is never a match.
        wrapped = ((pnl_s ^ total) & (diff ^ total)) < 0
        bad = np.flatnonzero((pnl_star != total) | wrapped)
        if len(bad):
            return Verdict(CLAUSE_TICK_CONSISTENCY, False,
                           f"t={times[bad[0]]}: diff column inconsistent "
                           f"with the two PnL columns")
        inside = np.flatnonzero((ends >= n_rows) & (ends < n_rows + len(rows)))
        for k in inside:
            got = int(diff[ends[k] - n_rows])
            if got != phases[k]["diff_quanta"]:
                return Verdict(CLAUSE_TICK_CONSISTENCY, False,
                               f"phase {phases[k]['phase']}: ticks.csv diff "
                               f"{got} != phases.csv diff "
                               f"{phases[k]['diff_quanta']}")
        n_rows += len(rows)
    for p in phases:
        if not 0 <= p["end_time"] < n_rows:
            return Verdict(CLAUSE_TICK_CONSISTENCY, False,
                           f"phase {p['phase']}: end tick {p['end_time']} "
                           f"missing from ticks.csv")
    if n_rows != final_time + 1:
        return Verdict(CLAUSE_TICK_CONSISTENCY, False,
                       f"ticks.csv has {n_rows} rows, summary.json's "
                       f"final_time + 1 is {final_time + 1}")
    return Verdict(CLAUSE_TICK_CONSISTENCY, True,
                   f"{n_rows} ticks, {len(phases)} phase ends")


def verify_run(run_dir: str | Path) -> list[Verdict]:
    """Re-check every provable invariant of a recorded run offline."""
    run_dir = Path(run_dir)
    summary = read_summary(run_dir)
    dominance = summary["config"]["dominance"]
    gamma = int(dominance["gamma"])
    tau = int(dominance["tau"])
    cap = int(dominance["queue_cap"])
    multiplier = int(summary["config"]["instrument"]["multiplier"])
    phases = read_int_csv(run_dir, PHASES_CSV)
    records = read_int_csv(run_dir, DELAYED_CSV)

    verdicts = [
        _check_per_order_gap(records, gamma, tau),
        _check_phase_identity(phases, records, multiplier),
        _check_lower_bound(phases, multiplier, gamma, tau),
        _check_positivity(phases),
        _check_monotonicity(phases),
        _check_queue_cap(records, cap),
    ]
    tick_verdict = _check_tick_consistency(run_dir, phases,
                                           int(summary["results"]["final_time"]))
    if tick_verdict is not None:
        verdicts.append(tick_verdict)
    return verdicts


def all_passed(verdicts: list[Verdict]) -> bool:
    return all(v.passed for v in verdicts)
