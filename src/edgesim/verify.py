"""Offline re-audit of a completed run from its artifacts alone.

verify_run replays the run's delay queue from delayed_orders.csv, without
trusting any in-run bookkeeping.  Events run in (tick, kind, id) order: a
tick's delays enter the queue (the queue-cap check runs on each), then
its executions leave it (each checks its gap and adds to the running Q_D,
the telescoping sum and the phase's n_delayed), then a phase of
phases.csv that ends at the tick closes.  A phase ends at the release
that empties the queue: at its last execution, with none queued.  Its
q_delayed and n_delayed must be the derived ones, and
dominance.phase_clause_failures, the run's own phase-end judge, judges
its diff and bound against the derived telescoping sum, Q_D and
n_delayed.  Executions after the last phase end are accepted only in a
total_ticks run, as the run itself accepts them.  The same sweep writes
the tape: per delay and execution, the price it pins (fill price plus
sign * half_spread) and S*'s PnL less S's after it: executed delays'
telescoping sum plus queued ones' open discrepancy.  ticks.csv exists
exactly when the config echo says run.record_ticks; its check streams it
in blocks, with the grammar format_rows writes (see runio), in bounded
memory, and holds each row's diff up to the last phase end (the per-tick
identity), and the price at each record's t_delay and t_exec, to the tape.
Every summary.json result but the commissions is compared with one table
derived from the replay (the record totals; the final time, and the
final diff of a target_phases stop), from ticks.csv when recorded (the
final time, price and diff, both drawdowns) and from the config echo
(stop_reason, null drawdowns without ticks, and the currency strings
quanta_to_currency makes of the tick and quanta results).  Each clause
yields one verdict; a violation names the first offending phase, order,
tick or result.  Phase numbers, order ids, and summary.json keys, schema, seed
or verdicts (clauses, passes and counts) that simulate could not have
written are refused by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dominance import (CLAUSE_LOWER_BOUND, CLAUSE_MONOTONICITY,
                        CLAUSE_PER_ORDER_GAP, CLAUSE_PHASE_IDENTITY,
                        CLAUSE_POSITIVITY, CLAUSE_QUEUE_CAP,
                        CLAUSE_TICK_CONSISTENCY, phase_clause_failures)
from .harness import ORACLE_CHECK, VERDICT_CLAUSES, RunConfig
from .market import quanta_to_currency
from .runio import (DELAYED_CSV, DELAYED_HEADER, PHASES_CSV, PHASES_HEADER,
                    SUMMARY_JSON, SUMMARY_SCHEMA, TICKS_CSV, TICKS_HEADER,
                    config_from_dict, config_to_dict, read_int_csv, read_summary,
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


def _replay(config: RunConfig, phases: list[dict], records: list[dict], fail) -> tuple:
    """fail(clause, detail) each violated clause at its first offender;
    return the summary.json results that the records derive and the tape,
    (tick, pinned price, order id, m·A, m·B) per delay and execution: S*'s
    PnL less S's at price P after it is m·A + m·B·P.  Phases not numbered
    1..n, or order ids not rising from 1 with t_delay (one fill a tick),
    raise ValueError naming the file and line."""
    margin, m = config.dominance.gamma + config.dominance.tau, config.instrument.multiplier
    cap, half = config.dominance.queue_cap, config.run.half_spread
    events = sorted([(r["t_delay"], 0, r["order_id"], r) for r in records]
                    + [(r["t_exec"], 1, r["order_id"], r) for r in records]
                    + [(p["end_time"], 2, k, p) for k, p in enumerate(phases)],
                    key=lambda e: e[:3])
    queued = q_delayed = telescoping = gap_sum = n_phase = end = prev = last_id = 0
    tape, m_a, m_b, last_t, last_exec = [], 0, 0, None, None
    for t, kind, key, row in events:
        if kind < 2:    # S books the fill at its delay, S* at its execution
            sign, p = row["sign"], row[("p_delay_ticks", "p_exec_ticks")[kind]]
            turn = (1 - 2 * kind) * sign * m * row["qty"]
            m_a, m_b = m_a - turn * p, m_b + turn
            tape.append((t, p + sign * half, key, m_a, m_b))
        if kind == 0:
            if key <= last_id or t == last_t:
                raise ValueError(f"{DELAYED_CSV} line {records.index(row) + 2}: order "
                                 f"{key} delayed at t={t}, but ids rise from 1 with "
                                 f"t_delay, one a tick")
            queued, last_id, last_t = queued + 1, key, t
            if queued > cap:
                fail(CLAUSE_QUEUE_CAP, f"at t={t} queue occupancy {queued} "
                     f"exceeds cap {cap} (order {row['order_id']})")
        elif kind == 1:
            queued -= 1
            gap = row["sign"] * (row["p_exec_ticks"] - row["p_delay_ticks"])
            if gap != row["gap_ticks"] or gap <= margin or t <= row["t_delay"]:
                fail(CLAUSE_PER_ORDER_GAP,
                     f"order {row['order_id']}: delayed at t={row['t_delay']}, "
                     f"executed at t={t} with gap sign*(p_exec-p_delay) = "
                     f"{gap} (recorded {row['gap_ticks']}); it must come "
                     f"later and exceed gamma + tau = {margin}")
            q_delayed += row["qty"]
            telescoping += gap * row["qty"]
            gap_sum += gap
            n_phase, last_exec = n_phase + 1, t
        else:
            if row["phase"] != key + 1:
                raise ValueError(f"{PHASES_CSV} line {key + 2}: phase {row['phase']}, "
                                 f"but phases run 1, 2, ...")
            phase, diff = f"phase {row['phase']}", row["diff_quanta"]
            _compare(fail, CLAUSE_PHASE_IDENTITY, phase, row,
                     {"q_delayed": q_delayed, "n_delayed": n_phase}, "the records")
            if queued or t != last_exec:
                fail(CLAUSE_PHASE_IDENTITY, f"{phase}: ends at t={t}, not at the "
                     f"release that empties the queue ({queued} delayed orders "
                     f"queued, the last execution at t={last_exec})")
            derived, bound = m * telescoping, row["lower_bound_quanta"]
            for clause in phase_clause_failures(diff, (derived,), q_delayed, n_phase,
                                                bound, prev, m, config.dominance):
                fail(clause, f"{phase}: diff {diff}, {derived} from the records, "
                     f"Q_D {q_delayed}, recorded bound {bound}, previous diff "
                     f"{prev}, n_delayed {n_phase}")
            n_phase, end, prev = 0, t, diff
    if config.run.total_ticks is not None:
        stop = {"final_time": config.run.total_ticks}
    else:
        stop = {"final_time": end, "final_diff_quanta": prev}
        if n_phase:
            fail(CLAUSE_PHASE_IDENTITY, f"{n_phase} delayed orders executed "
                 f"after the last phase end")
    mean_gap = str(Fraction(gap_sum, len(records))) if records else None
    return {**stop, "phases_completed": len(phases),
            "n_delayed_orders": len(records), "q_delayed_total": q_delayed,
            "mean_order_gap_ticks": mean_gap}, tape


def _compare(fail, clause: str, where: str, row: dict, derived: dict, source: str):
    """Fail clause on each value of row that differs from the one derived
    from source, in value or in type (JSON's true and 1.0 equal 1)."""
    for key, value in derived.items():
        if (got := row.get(key)) != value or type(got) is not type(value):
            fail(clause, f"{where}: {key} {got} != {value} from {source}")


def _check_tick_consistency(run_dir: Path, phases: list[dict], tape: list[tuple],
                            config: RunConfig, fail) -> dict:
    """Stream ticks.csv: rows t = 0, 1, ... in order, a price path from
    start_price moving at most one tick a row inside the grid, pnl_sstar =
    pnl_s + diff on every row, each PnL falling where the price holds only
    by whole fills (none rising), no PnL at t = 0, the last phase end a
    row, the tape's price pins and, up to the last phase end, where every
    queued order is a record, its diff m·A + m·B·price after each row.
    fail(detail) fails the clause, as does a file that read_ticks refuses.
    Returns the results the rows derive: the final time, price and diff
    and both max drawdowns."""
    lo, hi, half = config.price.grid_min, config.price.grid_max, config.run.half_spread
    # What a fill or release books at a held price; none books 2**63 or more.
    unit = config.instrument.multiplier * half * config.strategy.quantity
    end = phases[-1]["end_time"] if phases else -1
    # m·A, m·B after each tick's last event to end; clamped ticks sort as before.
    sums = {-1: (0, 0)} | {min(max(t, -1), 2 ** 63 - 1): (a, b)
                           for t, _, _, a, b in tape if t <= end}
    # |m·A + m·B·price| <= |m·A| + max(-lo, hi)·|m·B|: below 2**63, int64 is exact.
    if exact := max(abs(a) + max(-lo, hi) * abs(b) for a, b in sums.values()) < 2 ** 63:
        at, m_a, m_b = np.array([(t, *ab) for t, ab in sums.items()], np.int64).T
    # Each PnL column's running peak and max drawdown; peak - pnl is in [0, 2**64).
    peaks, drawdowns = [np.iinfo(np.int64).min] * 2, [0, 0]
    # the rows and tape entries read; the last row, at first the one t = 0 must be
    n_rows, k, last = 0, 0, np.array([0, config.price.start_price, 0, 0, 0], np.int64)
    try:
        for rows in read_ticks(run_dir):
            times, price, pnl_s, pnl_star, diff = rows.T
            if times[0] != n_rows or not (np.diff(times) == 1).all():
                bad = np.flatnonzero(times != np.arange(n_rows, n_rows + len(rows)))
                fail(f"ticks.csv row {n_rows + bad[0]} has t={times[bad[0]]}; "
                     f"rows must run t = 0, 1, ...")
            # An int64 step wraps into {-1, 0, 1} only from -2**63, which
            # read_ticks refuses.
            step = (np.diff(price, prepend=last[1]) + 1).view(np.uint64)
            if price.min() < lo or price.max() > hi or step.max() > 2:
                bad = np.flatnonzero((price < lo) | (price > hi) | (step > 2))
                fail(f"t={times[bad[0]]}: price {price[bad[0]]} is outside "
                     f"[{lo}, {hi}] or more than one tick from the last")
            total = pnl_s + diff
            # int64 addition wraps, to the sign of neither term: never a match.
            wrap = (pnl_s ^ total) & (diff ^ total)
            if not np.array_equal(pnl_star, total) or wrap.min() < 0:
                bad = np.flatnonzero((pnl_star != total) | (wrap < 0))
                fail(f"t={times[bad[0]]}: diff column inconsistent with the "
                     f"two PnL columns")
            for c in (2, 3):        # the PnL moves at a held price, row i - 1 to i
                col = np.concatenate((last[c:c + 1], rows[:, c]))
                i = np.flatnonzero((step == 1) & (col[1:] != col[:-1]))
                fall = col[i].view(np.uint64) - col[i + 1].view(np.uint64)
                odd = fall % np.uint64(unit) if 0 < unit < 2 ** 63 else fall
                bad = i[(col[i + 1] > col[i]) | (odd != 0)]
                if bad.size:
                    fail(f"t={times[bad[0]]}: {TICKS_HEADER.split(',')[c]} {col[bad[0]]} "
                         f"-> {col[bad[0] + 1]} at a held price, not whole fills of -{unit}")
            if not n_rows and (got := rows[0].tolist()) != last.tolist():
                fail(f"the start: ticks.csv row {got}, not {last.tolist()}: "
                     f"start_price and no fills")
            while k < len(tape) and 0 <= tape[k][0] < n_rows + len(rows):
                t, value, order = tape[k][:3]
                if (got := int(price[t - n_rows])) != value:
                    fail(f"order {order}: ticks.csv price at t={t} is {got}, "
                         f"but {DELAYED_CSV} gives {value}")
                k += 1
            if not exact:
                fail(f"{DELAYED_CSV}: m·A + m·B·price of its orders reaches 2**63")
            elif (n := min(len(rows), end + 1 - n_rows)) > 0:
                # sums i..j hold over the rows, each from its tick on
                i, j = np.searchsorted(at, (n_rows, n_rows + n - 1), side="right") - 1
                runs = np.diff(at[i + 1:j + 1], prepend=n_rows, append=n_rows + n)
                want = m_b[i:j + 1].repeat(runs) * price[:n] + m_a[i:j + 1].repeat(runs)
                for r in np.flatnonzero(diff[:n] != want)[:1]:     # the first, if any
                    fail(f"t={times[r]}: diff {diff[r]}, but the orders of "
                         f"{DELAYED_CSV} give {want[r]} at price {price[r]}")
            for c, pnl in enumerate((pnl_s, pnl_star)):
                peak = np.maximum.accumulate(pnl)
                np.maximum(peak, peaks[c], out=peak)
                peaks[c], drop = peak[-1], np.subtract(peak, pnl, out=peak).view(np.uint64)
                drawdowns[c] = max(drawdowns[c], int(drop.max()))
            n_rows, last = n_rows + len(rows), rows[-1]
    except ValueError as exc:
        fail(f"ticks.csv {exc}")
    for t, _, order, *_ in tape[k:]:
        fail(f"order {order}: tick {t} missing from ticks.csv")
    if phases and not 0 <= end < n_rows:
        fail(f"phase {phases[-1]['phase']}: tick {end} missing from ticks.csv")
    return {"final_time": n_rows - 1, "final_price_ticks": int(last[1]),
            "final_diff_quanta": int(last[4]),
            "max_drawdown_s_quanta": int(drawdowns[0]),
            "max_drawdown_sstar_quanta": int(drawdowns[1])}


# The results that no check derives in every set-up: each must be an int.
_INT_RESULTS = ("final_price_ticks", "final_diff_quanta", "commissions_s_quanta",
                "commissions_sstar_quanta")


def _unwritten(summary: dict, config: RunConfig, phases: list[dict],
               n_records: int) -> list[str]:
    """What simulate could not have written in summary.json beside these
    files; a config key the echo leaves out would take its default."""
    echo, results, run = summary["config"], summary["results"], config.run
    bad = [f"config key {section}.{key}"
           for section, fields in config_to_dict(config).items()
           for key, value in fields.items()
           if (echo.get(section) or {}).get(key, ...) != value]
    bad += [f"key {key}" for key in sorted(summary.keys() - {
        "schema", "seed", "config", "results", "verdicts"})]
    bad += [f"result {key}" for key in _INT_RESULTS if type(results.get(key)) is not int]
    if summary.get("schema") != SUMMARY_SCHEMA:
        bad.append("schema")
    seed = summary.get("seed")
    if (type(seed) is not int or seed < 0
            or (run.replications == 1 and seed != run.master_seed)):
        bad.append("seed")
    # Each enqueue and release checks the gap, each phase end every phase clause.
    n, cap = len(phases), (config.dominance.queue_cap if run.total_ticks else 0)
    try:
        rows = summary.get("verdicts")
        enqueues = {v["clause"]: v["checked"] for v in rows}[CLAUSE_QUEUE_CAP]
        counts = {**dict.fromkeys(VERDICT_CLAUSES, n), CLAUSE_QUEUE_CAP: enqueues,
                  CLAUSE_PER_ORDER_GAP: enqueues + n_records,
                  ORACLE_CHECK: n if run.keep_orders else 0}
        written = (rows == [{"clause": clause, "passed": True, "checked": counts[clause]}
                            for clause in VERDICT_CLAUSES]
                   and all(v["passed"] is True and type(v["checked"]) is int
                           for v in rows)
                   and 0 <= enqueues - n_records <= cap)
    except (TypeError, KeyError):
        written = False
    return bad if written else bad + ["verdicts"]


def verify_run(run_dir: str | Path) -> list[Verdict]:
    """Re-check every provable invariant of a recorded run offline; files
    that simulate could not have written raise ValueError naming them."""
    run_dir = Path(run_dir)
    summary = read_summary(run_dir)
    try:
        config = config_from_dict(summary["config"])
    except ValueError as exc:
        raise ValueError(f"{SUMMARY_JSON}: {exc}") from None
    recorded = config.run.record_ticks
    if (run_dir / TICKS_CSV).exists() != recorded:
        raise ValueError(f"{TICKS_CSV}: {'missing' if recorded else 'present'}, "
                         f"but run.record_ticks is {str(recorded).lower()}")
    phases = read_int_csv(run_dir, PHASES_CSV, PHASES_HEADER)
    records = read_int_csv(run_dir, DELAYED_CSV, DELAYED_HEADER)
    if bad := _unwritten(summary, config, phases, len(records)):
        raise ValueError(f"{SUMMARY_JSON}: {bad[0]} is missing or not as "
                         f"simulate writes it")
    results = summary["results"]
    fails: dict[str, str] = {}
    fail = fails.setdefault
    def currency(value: int) -> str:
        return str(quanta_to_currency(value, config.instrument))
    echoed = {"stop_reason": config.run.stop_reason,
              "final_price_currency": currency(results["final_price_ticks"]),
              "final_diff_currency": currency(results["final_diff_quanta"])}
    if not recorded:
        echoed.update(max_drawdown_s_quanta=None, max_drawdown_sstar_quanta=None)
    derived, tape = _replay(config, phases, records, fail)
    # (clause, source, results): the derived results summary.json must hold.
    table = [(CLAUSE_PHASE_IDENTITY, "the records", derived),
             (CLAUSE_PHASE_IDENTITY, "the config echo", echoed)]
    orders, phase_ends = f"{len(records)} orders", f"{len(phases)} phases"
    passed = {CLAUSE_PER_ORDER_GAP: orders, CLAUSE_PHASE_IDENTITY: phase_ends,
              CLAUSE_LOWER_BOUND: phase_ends, CLAUSE_POSITIVITY: phase_ends,
              CLAUSE_MONOTONICITY: phase_ends, CLAUSE_QUEUE_CAP: orders}
    if recorded:
        ticks = _check_tick_consistency(
            run_dir, phases, tape, config,
            lambda detail: fail(CLAUSE_TICK_CONSISTENCY, detail))
        table.append((CLAUSE_TICK_CONSISTENCY, TICKS_CSV, ticks))
        passed[CLAUSE_TICK_CONSISTENCY] = (f"{ticks['final_time'] + 1} ticks, "
                                           f"{len(phases)} phase ends")
    # The writer's results are the derived ones and _INT_RESULTS.
    keys = {key for *_, derived in table for key in derived}.union(_INT_RESULTS)
    if odd := sorted(results.keys() ^ keys):
        raise ValueError(f"{SUMMARY_JSON}: result {odd[0]} is missing or not as "
                         f"simulate writes it")
    for clause, source, derived in table:
        _compare(fail, clause, SUMMARY_JSON, results, derived, source)
    return [Verdict(clause, clause not in fails, fails.get(clause, detail))
            for clause, detail in passed.items()]


def all_passed(verdicts: list[Verdict]) -> bool:
    return all(v.passed for v in verdicts)
