import csv
import io
import json
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import cli
from edgesim.dominance import (CLAUSE_MONOTONICITY, CLAUSE_PER_ORDER_GAP,
                               CLAUSE_PHASE_IDENTITY, CLAUSE_QUEUE_CAP,
                               CLAUSE_TICK_CONSISTENCY)
from edgesim.harness import RunConfig, default_config, run_simulation
from edgesim.runio import (_BLOCK_BYTES, DELAYED_CSV, DELAYED_HEADER, PHASES_CSV,
                           PHASES_HEADER, SUMMARY_JSON, TICKS_CSV, TICKS_HEADER,
                           format_rows, load_config, parse_rows, read_int_csv,
                           read_summary, read_ticks, save_config,
                           write_run_artifacts)
from edgesim.verify import all_passed, verify_run


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = default_config(master_seed=63, target_phases=3)
    report = run_simulation(cfg)
    write_run_artifacts(report, out)
    return out


def _rewrite_csv(path: Path, mutate):
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    mutate(body)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(body)


def _copy(run_dir: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "mutated"
    shutil.copytree(run_dir, dst)
    return dst


def failed_clauses(verdicts):
    return {v.clause for v in verdicts if not v.passed}


def test_untampered_run_passes(run_dir):
    verdicts = verify_run(run_dir)
    assert all_passed(verdicts)
    clauses = {v.clause for v in verdicts}
    assert CLAUSE_PER_ORDER_GAP in clauses
    assert CLAUSE_TICK_CONSISTENCY in clauses


def test_perturbed_execution_price_fails_gap_clause(run_dir, tmp_path):
    dst = _copy(run_dir, tmp_path)
    summary_gap = 50  # gamma + tau of the default profile

    def mutate(body):
        # move one execution price back by gamma + tau, keeping the
        # recorded gap column consistent with the prices
        row = body[0]
        sign = int(row[1])
        row[6] = str(int(row[6]) - sign * summary_gap)
        row[7] = str(int(row[7]) - summary_gap)

    _rewrite_csv(dst / DELAYED_CSV, mutate)
    assert CLAUSE_PER_ORDER_GAP in failed_clauses(verify_run(dst))


def test_decreasing_phase_diffs_fail_monotonicity(run_dir, tmp_path):
    dst = _copy(run_dir, tmp_path)

    def mutate(body):
        body[-1][3] = str(int(body[0][3]) - 1)  # final diff below the first

    _rewrite_csv(dst / PHASES_CSV, mutate)
    assert CLAUSE_MONOTONICITY in failed_clauses(verify_run(dst))


def test_queue_cap_breach_fails_queue_clause(run_dir, tmp_path):
    dst = _copy(run_dir, tmp_path)
    records = read_int_csv(dst, DELAYED_CSV, DELAYED_HEADER)
    assert len(records) >= 4, "need at least cap+1 records for this mutation"

    def mutate(body):
        # stretch the first four entries into one overlapping window:
        # delayed at consecutive early ticks in order-id order (ids rise
        # with the delay tick), all executed late together
        latest = max(int(r[5]) for r in body)
        for k, row in enumerate(sorted(body[:4], key=lambda r: int(r[0]))):
            row[3] = str(k + 1)          # t_delay
            row[5] = str(latest + 10)    # t_exec
    _rewrite_csv(dst / DELAYED_CSV, mutate)
    assert CLAUSE_QUEUE_CAP in failed_clauses(verify_run(dst))


# phases.csv columns: phase, end_time, q_delayed, diff_quanta,
# lower_bound_quanta, n_delayed.  Each mutation below keeps every other
# file as written, so only the replay's derived values can catch it.
def _zero_q_delayed_and_bound(body):
    body[1][2] = body[1][4] = "0"


def _edit_n_delayed(body):
    body[2][5] = str(int(body[2][5]) - 1)


@pytest.mark.parametrize("mutate", [_zero_q_delayed_and_bound, _edit_n_delayed])
def test_phase_row_disagreeing_with_the_records_fails_identity(run_dir, tmp_path,
                                                               mutate):
    dst = _copy(run_dir, tmp_path)
    _rewrite_csv(dst / PHASES_CSV, mutate)
    assert CLAUSE_PHASE_IDENTITY in failed_clauses(verify_run(dst))


# delayed_orders.csv column 5 is t_exec.
def _first_order_past_first_phase_end(body, phases):
    body[0][5] = str(phases[0]["end_time"] + 1)


def _last_order_past_last_phase_end(body, phases):
    body[-1][5] = str(phases[-1]["end_time"] + 1)


@pytest.mark.parametrize("mutate", [_first_order_past_first_phase_end,
                                    _last_order_past_last_phase_end])
def test_execution_moved_past_its_phase_end_fails_identity(run_dir, tmp_path,
                                                           mutate):
    # the queue is not empty at that phase end; after the last one, a
    # target_phases run has no execution to accept
    dst = _copy(run_dir, tmp_path)
    phases = read_int_csv(dst, PHASES_CSV, PHASES_HEADER)
    _rewrite_csv(dst / DELAYED_CSV, lambda body: mutate(body, phases))
    assert CLAUSE_PHASE_IDENTITY in failed_clauses(verify_run(dst))


@pytest.mark.parametrize("phase", [0, 1, 2])
def test_phase_end_after_its_last_execution_fails_identity(run_dir, tmp_path, phase):
    # a phase ends only at the release that empties the queue
    dst = _copy(run_dir, tmp_path)
    end = read_int_csv(dst, PHASES_CSV, PHASES_HEADER)[phase]["end_time"]

    def mutate(body):
        body[phase][1] = str(end + 1)

    _rewrite_csv(dst / PHASES_CSV, mutate)
    detail = {v.clause: v.detail for v in verify_run(dst) if not v.passed}
    assert detail[CLAUSE_PHASE_IDENTITY] == (
        f"phase {phase + 1}: ends at t={end + 1}, not at the release that "
        f"empties the queue (0 delayed orders queued, the last execution at "
        f"t={end})")


# delayed_orders.csv columns: order_id, sign, qty, t_delay, p_delay_ticks,
# t_exec, p_exec_ticks, gap_ticks.  Each edit of the first order keeps its
# gap, so only the prices ticks.csv holds at its two ticks can catch it.
def _both_prices_up_7(row):
    row[4], row[6] = str(int(row[4]) + 7), str(int(row[6]) + 7)


def _both_times_back_50(row):
    row[3], row[5] = str(int(row[3]) - 50), str(int(row[5]) - 50)


def _sign_flipped_prices_swapped(row):
    row[1], row[4], row[6] = str(-int(row[1])), row[6], row[4]


def _delay_a_tick_late(row):
    row[3] = str(int(row[3]) + 1)


def _execution_a_tick_early(row):
    row[5] = str(int(row[5]) - 1)


@pytest.mark.parametrize("edit", [_both_prices_up_7, _both_times_back_50,
                                  _sign_flipped_prices_swapped, _delay_a_tick_late,
                                  _execution_a_tick_early])
def test_order_off_its_price_path_fails_consistency(run_dir, tmp_path, edit):
    dst = _copy(run_dir, tmp_path)
    order = read_int_csv(dst, DELAYED_CSV, DELAYED_HEADER)[0]["order_id"]
    _rewrite_csv(dst / DELAYED_CSV, lambda body: edit(body[0]))
    detail = {v.clause: v.detail for v in verify_run(dst) if not v.passed}
    assert list(detail) == [CLAUSE_TICK_CONSISTENCY]
    assert detail[CLAUSE_TICK_CONSISTENCY].startswith(f"order {order}: ")


def test_execution_a_tick_late_where_the_price_held_verifies(run_dir, tmp_path):
    # ticks.csv pins the price at t_exec alone; the first order's price is
    # the same a tick later, so moving its execution there is not caught
    dst = _copy(run_dir, tmp_path)
    t_exec = read_int_csv(dst, DELAYED_CSV, DELAYED_HEADER)[0]["t_exec"]
    prices = np.concatenate(list(read_ticks(dst)))[:, 1]
    assert prices[t_exec + 1] == prices[t_exec]
    _rewrite_csv(dst / DELAYED_CSV, lambda body: body[0].__setitem__(
        5, str(t_exec + 1)))
    assert all_passed(verify_run(dst))


def _edit_summary(run_dir: Path, edit) -> None:
    """Rewrite summary.json after edit changes it in place."""
    summary = read_summary(run_dir)
    edit(summary)
    (run_dir / SUMMARY_JSON).write_text(json.dumps(summary))


def _edit_line(path: Path, line: int, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("".join(lines))


def test_cli_verify_passes_an_untampered_run(run_dir, capsys):
    assert cli.main(["verify", str(run_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(line.startswith("pass  ") for line in lines)


def _dominance(summary):
    return summary["config"]["dominance"]


def _cut_after(path: Path, line: int) -> None:
    """Keep lines 1 .. line of path, the last without its newline."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:line])[:-1])


def _order_id(run_dir: Path, line: int) -> int:
    return int((run_dir / DELAYED_CSV).read_text().splitlines()[line - 1].split(",")[0])


def _set_order_id(run_dir: Path, line: int, order_id: int) -> None:
    _edit_line(run_dir / DELAYED_CSV, line,
               lambda row: f"{order_id}," + row.split(",", 1)[1])


def _writer_never_writes():
    """Integer files whose first field on one row int() reads but the
    writer never writes, each refused with its file and line."""
    edits = {"plus_sign": "+".__add__, "space": " ".__add__,
             "leading_zero": "0".__add__,
             "minus_zero": lambda row: "-0," + row.split(",", 1)[1],
             "underscore": lambda row: row.replace(",", "_0,", 1),
             "crlf": lambda row: row[:-1] + "\r\n"}
    for name, line, n in ((PHASES_CSV, 2, 6), (DELAYED_CSV, 3, 8)):
        message = f"{name} line {line}: not {n} integer fields"
        stem = name.split(".")[0]
        for form, edit in edits.items():
            yield pytest.param(lambda d, name=name, line=line, edit=edit:
                               _edit_line(d / name, line, edit),
                               message, id=f"{stem}_{form}")
        yield pytest.param(lambda d, name=name, line=line: _cut_after(d / name, line),
                           message, id=f"{stem}_no_final_newline")


# Malformed run directories: each is refused by name (exit 2), not a traceback.
@pytest.mark.parametrize("tamper,message", [
    pytest.param(lambda d: _edit_summary(d, lambda s: s.pop("results")),
                 "summary.json: not an object with config and results objects",
                 id="no_results"),
    pytest.param(lambda d: (d / SUMMARY_JSON).write_text("[]"),
                 "summary.json: not an object with config and results objects",
                 id="summary_is_a_list"),
    pytest.param(lambda d: (d / SUMMARY_JSON).write_text('{"config": '),
                 "summary.json: not valid JSON: Expecting value",
                 id="summary_cut_short"),
    pytest.param(lambda d: (d / SUMMARY_JSON).write_bytes(b"\xff{}"),
                 "summary.json: not valid JSON: 'utf-8' codec can't decode "
                 "byte 0xff in position 0", id="summary_not_utf8"),
    pytest.param(lambda d: _edit_summary(d, lambda s: _dominance(s).pop("gamma")),
                 "summary.json: config key dominance.gamma is missing", id="no_gamma"),
    pytest.param(lambda d: _edit_summary(d, lambda s: _dominance(s).update(gamma="x")),
                 "summary.json: config key dominance.gamma must be an integer",
                 id="bad_gamma"),
    pytest.param(lambda d: _edit_line(d / PHASES_CSV, 2,
                                      lambda row: row.rsplit(",", 1)[0] + "\n"),
                 "phases.csv line 2: not 6 integer fields", id="short_phase_row"),
    pytest.param(lambda d: _edit_line(d / PHASES_CSV, 1,
                                      lambda row: row.replace(",n_delayed", "")),
                 "phases.csv line 1: the header is not", id="phase_header"),
    pytest.param(lambda d: _edit_line(d / PHASES_CSV, 2, lambda row: row[:-1] + ",0\n"),
                 "phases.csv line 2: not 6 integer fields", id="long_phase_row"),
    pytest.param(lambda d: _edit_line(d / DELAYED_CSV, 3,
                                      lambda row: row.replace(",", ",x", 1)),
                 "delayed_orders.csv line 3: not 8 integer fields",
                 id="not_an_integer"),
    *_writer_never_writes(),
    # run.record_ticks alone says whether the run holds ticks.csv.
    pytest.param(lambda d: (d / TICKS_CSV).unlink(),
                 "ticks.csv: missing, but run.record_ticks is true",
                 id="recorded_without_ticks"),
    pytest.param(lambda d: _edit_summary(
                     d, lambda s: s["config"]["run"].update(record_ticks=False)),
                 "ticks.csv: present, but run.record_ticks is false",
                 id="unrecorded_with_ticks"),
    pytest.param(lambda d: _edit_result(d, "final_price_ticks", str),
                 "summary.json: result final_price_ticks is missing or not as "
                 "simulate writes it", id="final_price_not_an_int"),
    # The rest of summary.json is as simulate writes it, too.
    *(pytest.param(lambda d, edit=edit: _edit_summary(d, edit),
                   f"summary.json: {key} is missing or not as simulate writes it",
                   id=name)
      for name, key, edit in (
          ("schema", "schema", lambda s: s.update(schema="edgesim-run-summary/9")),
          ("seed", "seed", lambda s: s.update(seed=s["seed"] + 1)),
          ("no_verdicts", "verdicts", lambda s: s.update(verdicts=[])),
          ("verdict_count", "verdicts",
           lambda s: s["verdicts"][3].update(checked=s["verdicts"][3]["checked"] + 1)),
          ("extra_result", "result extra",
           lambda s: s["results"].update(extra=0)),
          ("no_commissions", "result commissions_s_quanta",
           lambda s: s["results"].pop("commissions_s_quanta")))),
    # Phases run 1..n, and order ids start at 1 and rise with the delay
    # tick (line 2 holds an order delayed after line 3's).
    pytest.param(lambda d: _edit_line(d / PHASES_CSV, 3, lambda row: "7" + row[1:]),
                 "phases.csv line 3: phase 7, but phases run 1, 2, ...",
                 id="phase_renumbered"),
    pytest.param(lambda d: _set_order_id(d, 2, _order_id(d, 3)),
                 "delayed_orders.csv line 2: order 65 delayed at t=3832",
                 id="order_id_shared"),
    pytest.param(lambda d: _set_order_id(d, 3, -5),
                 "delayed_orders.csv line 3: order -5 delayed at t=3505",
                 id="order_id_negative"),
    # int() reads no more digits than str() writes.
    *(pytest.param(lambda d, name=name, line=line: _edit_line(
                       d / name, line, lambda row: "1" + "0" * 5000 + row),
                   f"{name} line {line}: Exceeds the limit (4300 digits)",
                   id=f"{name.split('.')[0]}_5001_digits")
      for name, line in ((PHASES_CSV, 2), (DELAYED_CSV, 3))),
])
def test_cli_verify_refuses_a_malformed_run_dir(run_dir, tmp_path, capsys,
                                                tamper, message):
    dst = _copy(run_dir, tmp_path)
    tamper(dst)
    assert cli.main(["verify", str(dst)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("first,second", [(True, False), (False, True)],
                         ids=["recorded_then_not", "unrecorded_then_recorded"])
def test_simulate_into_a_reused_out_dir_verifies(tmp_path, capsys, first, second):
    # the second run's files alone are left, so its own verify passes
    out = tmp_path / "run"
    for record_ticks in (first, second):
        path = tmp_path / "short.yaml"
        path.write_text(
            "price: {grid_min: 9800, grid_max: 10200, stay_probability: 1/2}\n"
            "strategy: {order_probability: 1/20}\n"
            "dominance: {tau: 10, gamma: 10, queue_cap: 3, stage1_fill_count: 3}\n"
            f"run: {{target_phases: 2, record_ticks: {str(record_ticks).lower()}}}\n")
        assert cli.main(["simulate", str(path), "--seed", "11",
                         "--out", str(out)]) == 0, capsys.readouterr().err
    assert (out / TICKS_CSV).exists() == second
    assert cli.main(["verify", str(out)]) == 0


@pytest.mark.parametrize("summary", [None, b"{}", b'{"schema": "notes/1"}', b"[1]"],
                         ids=["none", "no_schema", "other_schema", "not_an_object"])
def test_simulate_refuses_an_out_dir_that_holds_no_run(tmp_path, capsys, summary):
    # a user's files, and no summary.json of an edgesim run: nothing is
    # written or deleted
    out = tmp_path / "mine"
    out.mkdir()
    files = {TICKS_CSV: b"my ticks\n", PHASES_CSV: b"my phases\n"}
    if summary is not None:
        files[SUMMARY_JSON] = summary
    for name, data in files.items():
        (out / name).write_bytes(data)
    path = tmp_path / "short.yaml"
    path.write_text("price: {grid_min: 9800, grid_max: 10200}\n"
                    "run: {target_phases: 1, record_ticks: false}\n")
    assert cli.main(["simulate", str(path), "--seed", "11", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


def _edit_result(run_dir: Path, key: str, edit) -> None:
    summary = read_summary(run_dir)
    summary["results"][key] = edit(summary["results"][key])
    (run_dir / SUMMARY_JSON).write_text(json.dumps(summary))


@pytest.mark.parametrize("key,edit", [
    ("phases_completed", lambda v: v + 1),
    ("n_delayed_orders", lambda v: v - 1),
    ("q_delayed_total", lambda v: v + 1),
    ("mean_order_gap_ticks", lambda v: v + "1"),
    ("final_time", lambda v: v + 1),
    ("final_diff_quanta", lambda v: v - 1),
])
def test_summary_total_disagreeing_with_the_records_fails_identity(
        run_dir, tmp_path, key, edit):
    dst = _copy(run_dir, tmp_path)
    _edit_result(dst, key, edit)
    assert CLAUSE_PHASE_IDENTITY in failed_clauses(verify_run(dst))


@pytest.mark.parametrize("key", ["phases_completed", "final_time"])
def test_summary_integer_written_as_a_float_fails_identity(run_dir, tmp_path, key):
    dst = _copy(run_dir, tmp_path)
    _edit_result(dst, key, float)
    assert CLAUSE_PHASE_IDENTITY in failed_clauses(verify_run(dst))


def test_total_ticks_final_time_is_checked(tmp_path):
    cfg = default_config(master_seed=3, total_ticks=20_000, target_phases=None,
                         record_ticks=False)
    write_run_artifacts(run_simulation(cfg), tmp_path)
    assert all_passed(verify_run(tmp_path))
    _edit_result(tmp_path, "final_time", lambda v: v - 1)
    assert CLAUSE_PHASE_IDENTITY in failed_clauses(verify_run(tmp_path))


@pytest.mark.parametrize("seed", [4, 14, 15])
def test_total_ticks_run_stopped_mid_phase_verifies(tmp_path, capsys, seed):
    # Each of these seeds stops with delayed orders executed after the
    # last phase end, which the run itself accepts.
    path = tmp_path / "cfg.yaml"
    path.write_text("run:\n  total_ticks: 300000\n")
    out = tmp_path / "run"
    status = cli.main(["simulate", str(path), "--seed", str(seed),
                       "--out", str(out)])
    assert status == 0, capsys.readouterr().out
    phases = read_int_csv(out, PHASES_CSV, PHASES_HEADER)
    last_end = phases[-1]["end_time"] if phases else 0
    records = read_int_csv(out, DELAYED_CSV, DELAYED_HEADER)
    assert any(r["t_exec"] > last_end for r in records)


@pytest.fixture(scope="module")
def total_ticks_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("total_ticks_run")
    cfg = default_config(master_seed=4, total_ticks=20_000, target_phases=None)
    write_run_artifacts(run_simulation(cfg), out)
    return out


# Only ticks.csv holds these: its last row (price, diff) and its PnL
# columns (the drawdowns).
@pytest.mark.parametrize("key", ["final_price_ticks", "final_diff_quanta",
                                 "max_drawdown_s_quanta",
                                 "max_drawdown_sstar_quanta"])
@pytest.mark.parametrize("stop", ["run_dir", "total_ticks_run_dir"])
def test_summary_result_disagreeing_with_ticks_fails_consistency(
        request, tmp_path, stop, key):
    dst = _copy(request.getfixturevalue(stop), tmp_path)
    assert all_passed(verify_run(dst))
    _edit_result(dst, key, lambda v: v + 1)
    assert CLAUSE_TICK_CONSISTENCY in failed_clauses(verify_run(dst))


def test_tampered_tick_diff_fails_consistency(run_dir, tmp_path):
    dst = _copy(run_dir, tmp_path)
    phases = read_int_csv(dst, PHASES_CSV, PHASES_HEADER)
    end = phases[0]["end_time"]
    path = dst / TICKS_CSV
    lines = path.read_text().splitlines()
    # row i corresponds to tick i-1 in the file (header first)
    parts = lines[end + 1].split(",")
    parts[4] = str(int(parts[4]) + 1)
    lines[end + 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert CLAUSE_TICK_CONSISTENCY in failed_clauses(verify_run(dst))


def _append_next_row(lines):
    # one more row after the final tick, consistent in itself
    t, price, pnl_s, pnl_star, diff = map(int, lines[-1].split(","))
    return lines + [f"{t + 1},{price},{pnl_s},{pnl_star},{diff}\n"]


def _set_row(lines, t, **values):
    cols = dict(zip(TICKS_HEADER.split(","), map(int, lines[t + 1].split(","))))
    cols.update(values)
    return (lines[:t + 1] + [",".join(map(str, cols.values())) + "\n"]
            + lines[t + 2:])


def _edit_field(lines, t, col, edit):
    fields = lines[t + 1].rstrip("\n").split(",")
    fields[col] = edit(fields[col])
    return lines[:t + 1] + [",".join(fields) + "\n"] + lines[t + 2:]


def _shift_row_diff(lines, t):
    # pnl_sstar and diff moved together, so the row stays consistent
    cols = [int(v) for v in lines[t + 1].split(",")]
    return _set_row(lines, t, pnl_sstar_quanta=cols[3] + 1,
                    diff_quanta=cols[4] + 1)


def _raise_both_pnls_at_a_held_price(lines, end):
    # The row stays consistent, but no fill at a held price raises a PnL.
    t = next(t for t in range(100, len(lines) - 1)
             if lines[t].split(",")[1] == lines[t + 1].split(",")[1])
    cols = [int(v) for v in lines[t + 1].split(",")]
    return _set_row(lines, t, pnl_s_quanta=cols[2] + 1, pnl_sstar_quanta=cols[3] + 1)


# Line 0 of ticks.csv is the header; line k + 1 holds tick k.
@pytest.mark.parametrize("edit", [
    pytest.param(lambda lines, end: lines[:100] + lines[101:], id="deleted"),
    pytest.param(lambda lines, end: lines[:100] + [lines[99]] + lines[100:],
                 id="duplicated"),
    pytest.param(lambda lines, end: (lines[:100] + [lines[101], lines[100]]
                                     + lines[102:]), id="swapped"),
    pytest.param(lambda lines, end: lines[:end + 1],
                 id="truncated_before_last_phase_end"),
    pytest.param(lambda lines, end: _append_next_row(lines),
                 id="row_after_final_time"),
    pytest.param(_shift_row_diff, id="phase_end_diff"),
    pytest.param(lambda lines, end: _set_row(lines, 100, pnl_sstar_quanta=1),
                 id="pnl_sstar"),
    # pnl_s + diff wraps around in int64 to exactly pnl_sstar
    pytest.param(lambda lines, end: _set_row(lines, 100, pnl_s_quanta=2**62,
                                             diff_quanta=2**62 + 1,
                                             pnl_sstar_quanta=-2**63 + 1),
                 id="int64_wrap"),
    pytest.param(_raise_both_pnls_at_a_held_price, id="paired_pnl"),
    # a run starts flat: both PnL levels, or pnl_sstar and diff, moved at t = 0
    pytest.param(lambda lines, end: _set_row(lines, 0, pnl_s_quanta=-1,
                                             pnl_sstar_quanta=-1),
                 id="start_pnl"),
    pytest.param(lambda lines, end: _shift_row_diff(lines, 0), id="start_diff"),
    pytest.param(lambda lines, end: (lines[:1] + [line[:-1] + ",0\n"
                                                  for line in lines[1:]]),
                 id="sixth_column"),
    pytest.param(lambda lines, end: lines[:100] + ["99,x,0,0,0\n"] + lines[101:],
                 id="not_an_integer"),
    # Bytes that format_rows never writes, though they read as the same
    # integers.
    pytest.param(lambda lines, end: ["time,price,a,b,c\n"] + lines[1:],
                 id="header"),
    pytest.param(lambda lines, end: _edit_field(lines, 99, 0, "+".__add__),
                 id="plus_sign"),
    pytest.param(lambda lines, end: _edit_field(lines, 99, 0, " ".__add__),
                 id="space"),
    pytest.param(lambda lines, end: (lines[:100] + [lines[100][:-1] + "\r\n"]
                                     + lines[101:]), id="crlf"),
    pytest.param(lambda lines, end: _edit_field(lines, 99, 0, "0".__add__),
                 id="leading_zero"),
    pytest.param(lambda lines, end: _edit_field(lines, 0, 0, lambda v: "-0"),
                 id="minus_zero"),
    pytest.param(lambda lines, end: lines[:-1] + [lines[-1][:-1]],
                 id="no_final_newline"),
    pytest.param(lambda lines, end: _edit_field(lines, 99, 2,
                                                lambda v: str(2 ** 63)),
                 id="two_to_the_63"),
    pytest.param(lambda lines, end: _edit_field(lines, 99, 2,
                                                lambda v: "1" + "0" * 19),
                 id="twenty_digits"),
])
def test_tick_row_mutation_fails_consistency(run_dir, tmp_path, edit, request):
    dst = _copy(run_dir, tmp_path)
    path = dst / TICKS_CSV
    lines = path.read_text().splitlines(keepends=True)
    last_end = read_int_csv(dst, PHASES_CSV, PHASES_HEADER)[-1]["end_time"]
    path.write_text("".join(edit(lines, last_end)))
    verdict = {v.clause: v for v in verify_run(dst)}[CLAUSE_TICK_CONSISTENCY]
    assert not verdict.passed
    # The wrapped row also moves both drawdowns, which the summary.json
    # comparison catches; the row check must catch it first.
    if request.node.callspec.id == "int64_wrap":
        assert "diff column inconsistent" in verdict.detail


def test_pnl_falling_by_part_of_a_fill_at_a_held_price_fails_consistency(tmp_path):
    # half_spread 2: a fill at a held price books -2, so a fall of 1 is no
    # fill; the next row moves, so only the held-price rule can see it
    write_run_artifacts(run_simulation(default_config(
        master_seed=41, total_ticks=20_000, target_phases=None, half_spread=2)), tmp_path)
    lines = (tmp_path / TICKS_CSV).read_text().splitlines(keepends=True)
    price = [line.split(",")[1] for line in lines]
    t = next(t for t in range(100, len(lines) - 2)
             if price[t] == price[t + 1] != price[t + 2])
    cols = [int(v) for v in lines[t + 1].split(",")]
    (tmp_path / TICKS_CSV).write_text("".join(_set_row(
        lines, t, pnl_s_quanta=cols[2] - 1, pnl_sstar_quanta=cols[3] - 1)))
    detail = {v.clause: v.detail for v in verify_run(tmp_path) if not v.passed}
    assert detail[CLAUSE_TICK_CONSISTENCY] == (
        f"t={t}: pnl_s_quanta {cols[2]} -> {cols[2] - 1} at a held price, not "
        f"whole fills of -2")


def _rewrite_prices(run_dir: Path, t: int, step: int) -> None:
    # The path steps by `step` into tick t (from start_price at t = 0) and
    # then moves as before; the final price follows.
    rows = np.concatenate(list(read_ticks(run_dir)))
    start = read_summary(run_dir)["config"]["price"]["start_price"]
    before = rows[t - 1, 1] if t else start
    by = step - int(rows[t, 1] - before)
    rows[t:, 1] += by
    (run_dir / TICKS_CSV).write_bytes((TICKS_HEADER + "\n").encode()
                                      + format_rows(rows))
    _edit_result(run_dir, "final_price_ticks", lambda v: v + by)


def _first_tick_of_second_block(run_dir: Path) -> int:
    head = (run_dir / TICKS_CSV).read_bytes()[:len(TICKS_HEADER) + 1 + _BLOCK_BYTES]
    return head.count(b"\n") - 1


def test_price_path_not_from_start_price_fails_consistency(run_dir, tmp_path):
    dst = _copy(run_dir, tmp_path)
    _rewrite_prices(dst, 0, 1)
    assert CLAUSE_TICK_CONSISTENCY in failed_clauses(verify_run(dst))


@pytest.mark.parametrize("offset", [0, 1000], ids=["block_boundary", "mid_block"])
def test_price_jump_fails_consistency(run_dir, tmp_path, offset):
    dst = _copy(run_dir, tmp_path)
    t = _first_tick_of_second_block(dst) + offset
    _rewrite_prices(dst, t, 2)
    # the rows before the jump are unchanged, so the second block still
    # starts at the same tick
    assert len(next(read_ticks(dst))) == _first_tick_of_second_block(dst)
    assert _consistency_detail(dst).startswith(f"t={t}: price ")


def _consistency_detail(run_dir):
    """The detail of the failed tick-consistency verdict: its first offender."""
    [verdict] = [v for v in verify_run(run_dir) if v.clause == CLAUSE_TICK_CONSISTENCY]
    assert not verdict.passed
    return verdict.detail


def test_a_wrapped_pnl_sum_is_named_at_its_row(run_dir, tmp_path):
    # pnl_s + diff wraps around in int64 to exactly pnl_sstar at t = 100,
    # and every field is one read_ticks accepts
    dst = _copy(run_dir, tmp_path)
    path = dst / TICKS_CSV
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(_set_row(lines, 100, pnl_s_quanta=2 ** 62,
                                     diff_quanta=2 ** 62 + 1,
                                     pnl_sstar_quanta=-2 ** 63 + 1)))
    assert _consistency_detail(dst) == ("t=100: diff column inconsistent with "
                                        "the two PnL columns")


@pytest.mark.parametrize("key", ["grid_min", "grid_max"])
def test_price_outside_the_grid_fails_consistency(run_dir, tmp_path, key):
    dst = _copy(run_dir, tmp_path)
    prices = np.concatenate(list(read_ticks(dst)))[:, 1]
    summary = read_summary(dst)
    summary["config"]["price"][key] = (int(prices.min()) + 1 if key == "grid_min"
                                       else int(prices.max()) - 1)
    (dst / SUMMARY_JSON).write_text(json.dumps(summary))
    assert CLAUSE_TICK_CONSISTENCY in failed_clauses(verify_run(dst))


def test_phase_end_past_the_last_tick_fails_consistency(run_dir, tmp_path):
    dst = _copy(run_dir, tmp_path)

    def mutate(body):
        body[-1][1] = str(int(body[-1][1]) + 7)    # end_time

    _rewrite_csv(dst / PHASES_CSV, mutate)
    assert CLAUSE_TICK_CONSISTENCY in failed_clauses(verify_run(dst))


def test_ticks_csv_equals_savetxt_of_the_series(tmp_path):
    # More rows than one write chunk, with negative PnL columns.
    cfg = default_config(master_seed=41, total_ticks=150_000,
                         target_phases=None, half_spread=2)
    report = run_simulation(cfg)
    _, _, pnl_s, pnl_sstar, _ = report.ticks.T
    assert pnl_s.min() < 0 and pnl_sstar.min() < 0
    write_run_artifacts(report, tmp_path)
    expected = io.BytesIO()
    expected.write((TICKS_HEADER + "\n").encode())
    np.savetxt(expected, report.ticks, fmt="%d", delimiter=",")
    assert (tmp_path / TICKS_CSV).read_bytes() == expected.getvalue()
    assert all_passed(verify_run(tmp_path))
    # read back in several blocks, as np.loadtxt reads the whole file
    chunks = list(read_ticks(tmp_path))
    assert len(chunks) > 1
    assert np.array_equal(np.concatenate(chunks),
                          np.loadtxt(tmp_path / TICKS_CSV, dtype=np.int64,
                                     delimiter=",", skiprows=1))


_EDGES = [0, 1, 9, 10, 2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1] + [
    10 ** k + e for k in range(1, 19) for e in (-1, 1)]
_EDGES += [-v for v in _EDGES if v]


def _percent_format(rows):
    return ("%d,%d,%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist())).encode()


def test_format_rows_edge_values():
    # each edge first in its row and beside short values, then all together
    for v in _EDGES:
        rows = np.array([[v, 0, v, -7, v]], dtype=np.int64)
        assert format_rows(rows) == _percent_format(rows)
    values = _EDGES + _EDGES[::-1]
    rows = np.array(values + [0] * (-len(values) % 5), dtype=np.int64)
    assert format_rows(rows.reshape(-1, 5)) == _percent_format(rows.reshape(-1, 5))


def _random_rows(n, digits, seed):
    # up to `digits` digits, mixed signs, edge values sprinkled in
    rng = np.random.default_rng(seed)
    top = min(10 ** digits, 2 ** 63 - 1)
    rows = rng.integers(-top, top, size=(n, 5), dtype=np.int64, endpoint=True)
    rows.ravel()[rng.integers(0, rows.size, size=min(rows.size, 25))] = (
        rng.choice(_EDGES, size=min(rows.size, 25)))
    return rows


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8193), digits=st.integers(1, 19),
       seed=st.integers(0, 2 ** 32 - 1))
def test_format_rows_matches_percent_format(n, digits, seed):
    rows = _random_rows(n, digits, seed)
    assert format_rows(rows) == _percent_format(rows)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8193), digits=st.integers(1, 19),
       seed=st.integers(0, 2 ** 32 - 1))
def test_parse_rows_inverts_format_rows(n, digits, seed):
    rows = _random_rows(n, digits, seed)
    assert np.array_equal(parse_rows(format_rows(rows)), rows)


def test_parse_rows_edge_values():
    values = _EDGES + _EDGES[::-1]
    rows = np.array(values + [0] * (-len(values) % 5), dtype=np.int64).reshape(-1, 5)
    assert np.array_equal(parse_rows(format_rows(rows)), rows)
    assert parse_rows(b"").shape == (0, 5)


_GOOD_ROW = "1,-22,333,-4444,0\n"


# Each bad row sits between two good ones, on line 2 of the block.
@pytest.mark.parametrize("row", [
    "1,2,3,4\n", "1,2,3,4,5,6\n", "1,,3,4,5\n", "1,2,-,4,5\n",
    "1,2,--1,4,5\n", "1,2,1-2,4,5\n", "1,2,4.5,4,5\n", "1,2, 3,4,5\n",
    "1,2,3,4,5\r\n", "1,2,+3,4,5\n", "1,2,03,4,5\n", "1,2,-0,4,5\n",
    "\n", f"1,2,{2 ** 63},4,5\n", f"1,2,{-2 ** 63},4,5\n",
    f"1,2,{10 ** 19},4,5\n", "1,2,3,4,5x\n", "1,2,3,4,\u00e9\n",
    f"1,2,{-2 ** 63 - 1},4,5\n",
], ids=["four_fields", "six_fields", "empty_field", "lone_minus",
        "double_minus", "inner_minus", "decimal_point", "space", "cr",
        "plus_sign", "leading_zero", "minus_zero", "blank_line",
        "two_to_the_63", "minus_two_to_the_63", "twenty_digits", "letter",
        "non_ascii", "below_minus_two_to_the_63"])
def test_parse_rows_refuses_what_format_rows_never_writes(row):
    with pytest.raises(ValueError, match="^line 2: "):
        parse_rows((_GOOD_ROW + row + _GOOD_ROW).encode())


@pytest.mark.parametrize("data,line", [
    ("1,2,3,4,5", 1), (_GOOD_ROW + "1,2,3,4,5", 2), ("\n" + _GOOD_ROW, 1)],
    ids=["no_final_newline", "last_row_no_final_newline", "leading_blank_line"])
def test_parse_rows_names_the_line(data, line):
    with pytest.raises(ValueError, match=f"^line {line + 10}: "):
        parse_rows(data.encode(), 11)


def test_format_rows_refuses_int64_min():
    # |-2**63| does not fit int64; the range check keeps runs from it.
    with pytest.raises(AssertionError):
        format_rows(np.array([[0, 1, -2 ** 63, 3, 4]], dtype=np.int64))


@pytest.fixture(scope="module")
def stop_run_dirs(run_dir, total_ticks_run_dir, tmp_path_factory):
    """Run directories by (stop_reason, record_ticks)."""
    dirs = {("target_phases", True): run_dir,
            ("total_ticks", True): total_ticks_run_dir}
    for stop, cfg in (
            ("target_phases", default_config(master_seed=63, target_phases=3)),
            ("total_ticks", default_config(master_seed=4, total_ticks=20_000,
                                           target_phases=None))):
        out = tmp_path_factory.mktemp(f"{stop}_without_ticks")
        write_run_artifacts(run_simulation(
            replace(cfg, run=replace(cfg.run, record_ticks=False))), out)
        dirs[stop, False] = out
    return dirs


def test_verify_without_ticks_file(stop_run_dirs):
    dst = stop_run_dirs["target_phases", False]
    assert not (dst / TICKS_CSV).exists()
    verdicts = verify_run(dst)
    assert all_passed(verdicts)
    assert CLAUSE_TICK_CONSISTENCY not in {v.clause for v in verdicts}


def test_integer_files_hold_values_beyond_int64(tmp_path):
    # A multiplier of 10**17 without ticks writes diffs beyond int64.
    cfg = default_config(master_seed=1, target_phases=3, record_ticks=False)
    write_run_artifacts(run_simulation(replace(cfg, instrument=replace(
        cfg.instrument, multiplier=10 ** 17))), tmp_path)
    phases = read_int_csv(tmp_path, PHASES_CSV, PHASES_HEADER)
    assert phases[-1]["diff_quanta"] > 2 ** 63
    assert all_passed(verify_run(tmp_path))


def _one_more(value):
    """A number plus 1, a string with one more digit, and null as 1."""
    if value is None:
        return 1
    return value + "1" if isinstance(value, str) else value + 1


@pytest.mark.parametrize("record_ticks", [True, False], ids=["ticks", "no_ticks"])
@pytest.mark.parametrize("stop", ["target_phases", "total_ticks"])
def test_every_summary_result_is_checked(stop_run_dirs, tmp_path, stop,
                                         record_ticks):
    # The results no check derives yet (ROADMAP item 2), with the set-ups
    # (stop_reason, record_ticks) they are unchecked in and why.
    anywhere = {(s, t) for s in ("target_phases", "total_ticks")
                for t in (True, False)}
    unchecked = [
        ("commissions_s_quanta", anywhere, "no file holds the number of fills"),
        ("commissions_sstar_quanta", anywhere,
         "no file holds the orders still queued at the end"),
        ("final_price_ticks", {("target_phases", False), ("total_ticks", False)},
         "only ticks.csv holds the price path; held to its currency string"),
        ("final_diff_quanta", {("total_ticks", False)},
         "the open orders' share of a mid-phase diff is in no file; held to "
         "its currency string"),
    ]
    skip = {key for key, setups, _ in unchecked if (stop, record_ticks) in setups}
    src = stop_run_dirs[stop, record_ticks]
    assert all_passed(verify_run(src))
    results = read_summary(src)["results"]
    assert len(results) == 14
    missed = []
    for key in sorted(results.keys() - skip):
        dst = tmp_path / key
        shutil.copytree(src, dst)
        _edit_result(dst, key, _one_more)
        try:
            if all_passed(verify_run(dst)):
                missed.append(key)
        except ValueError:
            pass        # refused by name
    assert not missed


# -- config round trip ---------------------------------------------------------

def test_config_yaml_round_trip(tmp_path):
    cfg = default_config(master_seed=99, half_spread=1)
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_default_yaml_states_every_default():
    # configs/default.yaml documents the defaults: it must load to
    # default_config() and name every field of every section
    path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
    cfg = load_config(path)
    assert cfg == default_config()
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    assert set(data) == {f.name for f in fields(RunConfig)}
    for name, section in data.items():
        assert set(section) == {f.name for f in fields(getattr(cfg, name))}, name


def test_config_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == default_config()


@pytest.mark.parametrize("text,message", [
    ("model:\n  tau: 10\n", "unknown config section 'model'"),
    ("dominance:\n  tua: 10\n", "unknown config key dominance.tua"),
    ("price:\n  seed: 3\n", "unknown config key price.seed"),
    ("instrument:\n  grid_min: 0\n", "unknown config key instrument.grid_min"),
    ("run:\n  disable_delays: true\n", "unknown config key run.disable_delays"),
    ("dominance:\n  tau: true\n", "dominance.tau must be an integer"),
    ("dominance:\n  gamma: 25.9\n", "dominance.gamma must be an integer"),
    ("run:\n  master_seed: \"7\"\n", "run.master_seed must be an integer"),
    ("run:\n  record_ticks: \"false\"\n", "run.record_ticks must be true or false"),
    ("run:\n  keep_orders: 1\n", "run.keep_orders must be true or false"),
    ("run:\n  master_seed: -3\n", "run.master_seed must be >= 0, got -3"),
    ("run:\n  target_phases: null\n",
     "exactly one of total_ticks/target_phases must be set"),
    ("dominance:\n  delay_probability: true\n",
     "dominance.delay_probability: cannot parse True as Fraction"),
    ("dominance:\n  delay_probability: [1, 2]\n",
     "dominance.delay_probability: cannot parse "),  # "[1, 2]" reads as a regex
    *((f"instrument:\n  tick_size: \"{tick}\"\n",
       f"tick_size must be finite and > 0, got {tick}")
      for tick in ("NaN", "sNaN", "Infinity")),
    ("price:\n  grid_min: 100000000000000000000\n"
     "  grid_max: 100000000000000010000\n  start_price: 100000000000000005000\n",
     "grid_max 100000000000000010000 is beyond the int64-safe grid"),
    ("price:\n  grid_min: -2305843009213693953\n  grid_max: 0\n"
     "  start_price: 0\n",
     "grid_min -2305843009213693953 is beyond the int64-safe grid"),
], ids=["unknown_section", "unknown_key", "stale_price_seed",
        "stale_instrument_grid", "stale_disable_delays", "int_given_bool",
        "int_given_float", "int_given_string", "bool_given_string",
        "bool_given_int", "negative_seed", "explicit_null_target_phases",
        "fraction_given_bool", "fraction_given_list", "tick_size_nan",
        "tick_size_snan", "tick_size_infinity", "grid_beyond_int64",
        "grid_below_int64"])
def test_config_rejects_bad_keys_and_types(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_config(path)
    status = cli.main(["simulate", str(path), "--out", str(tmp_path / "run")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


def test_config_file_not_utf8_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_bytes(b"\xffrun:\n  target_phases: 1\n")
    message = f"{path}: 'utf-8' codec can't decode byte 0xff in position 0"
    with pytest.raises(ValueError) as refusal:
        load_config(path)
    assert str(refusal.value).startswith(message)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "run").exists()


def test_config_fraction_forms(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "price:\n  stay_probability: \"1/2\"\n"
        "strategy:\n  order_probability: 0.02\n"
        "dominance:\n  delay_probability: \"1/2\"\n"
        "instrument:\n  tick_size: 0.05\n")
    cfg = load_config(path)
    from fractions import Fraction
    assert cfg.price.stay_probability == Fraction(1, 2)
    assert cfg.strategy.order_probability == Fraction(1, 50)
    assert cfg.dominance.delay_probability == Fraction(1, 2)
    # a float tick size is read digit for digit, a string as written
    assert str(cfg.instrument.tick_size) == "0.05"
    path.write_text("instrument:\n  tick_size: \"0.010\"\n")
    assert str(load_config(path).instrument.tick_size) == "0.010"
