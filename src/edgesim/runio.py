"""Config files and run artifacts.

Config is YAML with five sections (instrument, price, strategy, dominance,
run) holding the fields of the matching config classes; every key has a
default, and configs/default.yaml lists them all.  The tick grid is
price.grid_min/grid_max.  An unknown section or key, an integer field
given anything but an integer, and a bool field given anything but
true/false are errors.  Any other field reads its value's string, so an
exact rational may be written as "1/2", an int or a decimal float (0.02
means 1/50, not its binary approximation).

A run directory contains (ticks.csv exactly when run.record_ticks):

  ticks.csv           time,price_ticks,pnl_s_quanta,pnl_sstar_quanta,diff_quanta
  phases.csv          phase,end_time,q_delayed,diff_quanta,lower_bound_quanta,n_delayed
  delayed_orders.csv  order_id,sign,qty,t_delay,p_delay_ticks,t_exec,p_exec_ticks,gap_ticks
  summary.json        schema, seed, config echo, results (ticks and
                      currency), verdicts

q_delayed and diff_quanta in phases.csv are cumulative from the start of
the run (lower_bound_quanta = multiplier * q_delayed * (gamma + tau));
n_delayed counts the phase's own delayed orders.  verify judges each row
with dominance.phase_clause_failures, the function the run judges its
phase ends with.  Prices in the delayed-order file are the side-adjusted
fill prices; the half-spread cancels inside gap_ticks.  A quantum is the value of one tick on one unit
of quantity, multiplier included; multiply by tick_size for currency.
In summary.json (schema edgesim-run-summary/3) the max_drawdown_*
results are null when the run recorded no tick series, and the verdicts
name each in-run check and how many times it ran; a failed check aborts
the run, so a written summary always reads passed.
phase_pnl_diff_check counts the phase ends at which the PnL difference
was re-summed from the two kept order logs by accounting.pnl_direct
(0 unless run.keep_orders).  All files are written
deterministically: same config and seed, same bytes.  Every CSV file is
read back with the writer's grammar: the header line, then rows of fields
0 or -?[1-9][0-9]* joined by ',', every line ended by '\n'.  Values in
phases.csv and delayed_orders.csv are ints of any size (a large
multiplier without ticks writes diffs beyond int64) that str() writes:
4300 digits at most, by default.

ticks.csv has one row per tick, t = 0 .. final_time, and is derived data:
the run keeps its price path and one aggregate mark (the signed cash and
position sums of S and S*, int64) per fill or release; the rows follow
from the two, the last event at a tick winning.  RunReport.ticks holds
them in the file's layout, an (n, 5) int64 array, and format_rows writes
blocks of them as "%d,%d,%d,%d,%d\n" would, in numpy passes.  Recording
ticks needs every PnL to fit in a signed 64-bit integer: a run stops at
the first mark that could exceed it, naming the multiplier and quantity
(set run.record_ticks: false for such runs).  read_ticks streams the file
back in blocks and accepts only what format_rows writes: five fields a
row, int64 values other than -2**63, so verify checks it in bounded
memory (see edgesim.verify).
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Mapping, get_args, get_type_hints

import numpy as np
import yaml

from .dominance import DominanceParams
from .harness import RunConfig, RunReport, RunSettings, SweepRow
from .market import Instrument, quanta_to_currency
from .prices import PriceProcessConfig
from .strategies import BaselineConfig

TICKS_CSV = "ticks.csv"
PHASES_CSV = "phases.csv"
DELAYED_CSV = "delayed_orders.csv"
SUMMARY_JSON = "summary.json"
SUMMARY_SCHEMA = "edgesim-run-summary/3"

TICKS_HEADER = "time,price_ticks,pnl_s_quanta,pnl_sstar_quanta,diff_quanta"
PHASES_HEADER = ["phase", "end_time", "q_delayed", "diff_quanta",
                 "lower_bound_quanta", "n_delayed"]
DELAYED_HEADER = ["order_id", "sign", "qty", "t_delay", "p_delay_ticks",
                  "t_exec", "p_exec_ticks", "gap_ticks"]

# ticks.csv is formatted _CHUNK_ROWS rows (about 230 kB of text) and read
# back _BLOCK_BYTES bytes at a time: per-chunk overhead stays negligible,
# and no temporary comes near the size of the series.
_CHUNK_ROWS = 8192
_BLOCK_BYTES = 1 << 17
_SEPARATORS = np.frombuffer(b",,,,\n", np.uint8)
# _NIBBLES[k] keeps the digits of the last k bytes (up to 8) of a
# little-endian word; _LEAST[k] is the least value written with k digits.
_NIBBLES = np.array([0x0F0F0F0F0F0F0F0F << 8 * max(8 - k, 0) & 2 ** 64 - 1
                     for k in range(20)], np.uint64)
_LEAST = np.array([0, 0] + [10 ** (k - 1) for k in range(2, 20)], np.int64)


_SECTIONS = {"instrument": Instrument, "price": PriceProcessConfig,
             "strategy": BaselineConfig, "dominance": DominanceParams,
             "run": RunSettings}
_FIELD_TYPES = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}


def _parse_value(where: str, kind: Any, value: Any) -> Any:
    """One config value of a field's type.  An int field takes only an
    integer and a bool field only true or false, so a typo cannot turn
    25.9 into 25 or "false" into True; any other kind reads str(value)."""
    if type(None) in get_args(kind):
        if value is None:
            return None
        kind = next(k for k in get_args(kind) if k is not type(None))
    if kind is int or kind is bool:
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, int):
            expected = "true or false" if kind is bool else "an integer"
            raise ValueError(f"config key {where} must be {expected}, "
                             f"got {value!r}")
        return value
    try:
        return kind(str(value))
    except (ValueError, ArithmeticError):
        raise ValueError(f"config key {where}: cannot parse {value!r} "
                         f"as {kind.__name__}") from None


def parse_field(section: str, key: str, value: Any) -> Any:
    """One value of config key section.key, of the field's type; an
    unknown key is an error."""
    kinds = _FIELD_TYPES[section]
    if key not in kinds:
        raise ValueError(f"unknown config key {section}.{key}")
    return _parse_value(f"{section}.{key}", kinds[key], value)


def _section(data: Mapping, name: str) -> dict:
    section = data.get(name) or {}
    if not isinstance(section, Mapping):
        raise ValueError(f"config section {name!r} must be a mapping")
    return {key: parse_field(name, key, value) for key, value in section.items()}


def config_from_dict(data: Mapping | None) -> RunConfig:
    """A RunConfig from parsed YAML; omitted keys take their config
    class's defaults (default_config()), and an unknown section or key is
    an error."""
    data = data or {}
    for name in data:
        if name not in _SECTIONS:
            raise ValueError(f"unknown config section {name!r}")
    sections = {name: _section(data, name) for name in _SECTIONS}
    run = sections["run"]
    if run.get("total_ticks") is not None:
        run.setdefault("target_phases", None)
    return RunConfig(*(cls(**sections[name]) for name, cls in _SECTIONS.items()))


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if data is not None and not isinstance(data, Mapping):
        raise ValueError(f"{path}: config root must be a mapping")
    return config_from_dict(data)


def config_to_dict(config: RunConfig) -> dict:
    """The sections' fields, a Fraction or Decimal as the string that
    _parse_value reads back."""
    return {name: {key: str(v) if isinstance(v, (Fraction, Decimal)) else v
                   for key, v in asdict(getattr(config, name)).items()}
            for name in _SECTIONS}


def save_config(config: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


def summary_dict(report: RunReport) -> dict:
    instrument = report.config.instrument
    mean_gap = report.mean_order_gap
    return {
        "schema": SUMMARY_SCHEMA,
        "seed": report.master_seed,
        "config": config_to_dict(report.config),
        "results": {
            "final_time": report.final_time,
            "final_price_ticks": report.final_price,
            "final_price_currency": str(quanta_to_currency(report.final_price, instrument)),
            "final_diff_quanta": report.final_diff,
            "final_diff_currency": str(quanta_to_currency(report.final_diff, instrument)),
            "phases_completed": report.phases_completed,
            "q_delayed_total": report.q_delayed_total,
            "n_delayed_orders": len(report.records),
            "mean_order_gap_ticks": None if mean_gap is None else str(mean_gap),
            "max_drawdown_s_quanta": report.max_drawdown_s,
            "max_drawdown_sstar_quanta": report.max_drawdown_sstar,
            "commissions_s_quanta": report.commissions_s,
            "commissions_sstar_quanta": report.commissions_sstar,
            "stop_reason": report.stop_reason,
        },
        "verdicts": report.verdicts,
    }


def format_rows(rows: np.ndarray) -> bytes:
    """The bytes of "%d,%d,%d,%d,%d\n" % row for each row of an (n, 5) int64
    array with no -2**63 (the int64 range check keeps runs far from it).
    Digit d goes d bytes before its field's last digit, most significant
    pass first, so a short value's extra '0's land in earlier fields, whose
    later passes overwrite them.  Then a '-' goes before every value's
    digits, and the separators over those of the values >= 0."""
    values = rows.ravel()
    assert values.min() > np.iinfo(np.int64).min
    q = np.abs(values)
    top = int(q.max())
    q = q.astype(np.int32) if top < 2 ** 31 else q     # 3x faster division
    width = len(str(top))
    digits = np.empty((width, len(q)), np.uint8)
    n_digits = np.ones(len(q), np.uint8)
    for d in range(width):
        quotient = q // 10
        np.subtract(q, quotient * 10, out=digits[d], casting="unsafe")
        q = quotient
        n_digits += q != 0
    digits += ord("0")
    n_digits = n_digits.astype(np.int64)
    last = np.cumsum(n_digits + 1 + (values < 0)) - 2   # each field's last digit
    buf = np.empty(width + int(last[-1]) + 2, np.uint8)  # `width` bytes for strays
    for d in range(width - 1, -1, -1):
        buf[width - d:][last] = digits[d]
    buf[width:][last - n_digits] = ord("-")
    buf[width + 1:][last] = np.tile(_SEPARATORS, len(rows))
    return buf[width:].tobytes()


def _eight_digits(v: np.ndarray, nibbles: np.ndarray) -> np.ndarray:
    """The numbers written by the digits that nibbles keeps of the words v
    (overwritten), first digit lowest, joined by SWAR in pairs, fours, eights."""
    for mask, shift in ((nibbles, 8), (0x00FF00FF00FF00FF, 16),
                        (0x0000FFFF0000FFFF, 32)):
        v &= mask
        v *= 10 ** (shift // 8) << shift | 1
        v >>= shift
    return v


def parse_rows(data: bytes, line: int = 1) -> np.ndarray:
    """The (n, 5) int64 rows of data, the exact inverse of format_rows:
    rows of five fields joined by ',' and ended by '\n', each field 0 or
    -?[1-9][0-9]* in int64 but not -2**63; otherwise ValueError names the
    line, counting data's first row as line `line`.  A field's last eight
    digits are one unaligned word; 9 to 19 digits take two or three."""
    buf = np.concatenate((np.zeros(8, np.uint8), np.frombuffer(data, np.uint8)))
    raw = buf[8:]                               # 8 zero bytes before the first word
    sep = np.flatnonzero(raw <= 44)             # ',', '\n' and any other byte below '-'
    pattern = np.tile(_SEPARATORS, len(sep) // 5 + 1)[:len(sep)]
    bad = np.flatnonzero(raw.take(sep) != pattern)
    if len(bad) or (raw[-1:] != 10).any():
        k = bad[0] if len(bad) else len(sep)    # else the last row lacks its '\n'
        raise ValueError(f"line {line + k // 5}: not five comma-separated fields "
                         f"ending in a newline")
    start = np.concatenate(([-1], sep))[:-1] + 1
    neg = raw.take(start) == 45
    ndig = sep - start - neg
    bad = (ndig - 1).view(np.uint64) > 18       # 1 to 19 digits
    digits = (raw - np.uint8(48)) < 10
    if np.count_nonzero(digits) != ndig.sum():  # a byte that no field may hold
        bad |= np.diff(np.cumsum(digits)[sep], prepend=0) != ndig
    if not bad.any():
        # words[i] is raw[i-8:i]; take copies it whole, fancy indexing does not.
        words = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))
        value = _eight_digits(words.take(sep), _NIBBLES[ndig])
        long, lane = np.flatnonzero(ndig > 8), 1
        while len(long):                        # digits 9-16, then 17-19, from the end
            value[long] += 10 ** (8 * lane) * _eight_digits(
                words[sep[long] - 8 * lane], _NIBBLES[ndig[long] - 8 * lane])
            long, lane = long[ndig[long] > 8 * lane + 8], lane + 1
        # A leading zero, -0 and (negative as int64) 2**63 and up each fall
        # below the least value of their digits and sign.
        value = value.view(np.int64)
        bad = value < np.maximum(_LEAST[ndig], neg)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"line {line + k // 5}: field {k % 5 + 1} is not 0 or "
                         f"-?[1-9][0-9]* within int64")
    value *= 1 - 2 * neg.view(np.int8)
    return value.reshape(-1, 5)


def check_out_dir(out_dir: str | Path) -> Path:
    """Path(out_dir), refused by name unless new, empty or an earlier run's."""
    out = Path(out_dir)
    if bad := next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None):
        raise ValueError(f"{bad} is not a directory; refusing to write a run into {out}")
    try:    # a run directory's summary.json names its schema
        schema = str(json.loads((out / SUMMARY_JSON).read_bytes())["schema"])
    except (OSError, ValueError, LookupError, TypeError):
        schema = ""
    if (out.is_dir() and any(out.iterdir())
            and schema.rpartition("/")[0] != SUMMARY_SCHEMA.rpartition("/")[0]):
        raise ValueError(f"{out} is not empty and holds no edgesim run "
                         f"({SUMMARY_JSON}); refusing to write into it")
    return out


def write_run_artifacts(report: RunReport, out_dir: str | Path) -> Path:
    """Write phases.csv, delayed_orders.csv, summary.json, and ticks.csv (exactly
    when the run recorded its tick series) into a new, empty or earlier run's out_dir."""
    out = check_out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    phases = [(p.phase_index, p.end_time, p.delayed_quantity, p.pnl_diff,
               p.lower_bound, p.n_delayed) for p in report.phases]
    records = [(r.order_id, r.sign, r.quantity, r.delay_time, r.base_fill_price,
                r.execution_time, r.execution_price, r.gap) for r in report.records]
    # In the grammar read_int_csv reads: the header, then rows of ints.
    for name, header, rows in ((PHASES_CSV, PHASES_HEADER, phases),
                               (DELAYED_CSV, DELAYED_HEADER, records)):
        (out / name).write_bytes("".join(",".join(map(str, row)) + "\n"
                                         for row in (header, *rows)).encode())

    (out / TICKS_CSV).unlink(missing_ok=True)       # an earlier run's
    if report.ticks is not None:
        with open(out / TICKS_CSV, "wb") as fh:
            fh.write(TICKS_HEADER.encode() + b"\n")
            for lo in range(0, len(report.ticks), _CHUNK_ROWS):
                fh.write(format_rows(report.ticks[lo:lo + _CHUNK_ROWS]))

    with open(out / SUMMARY_JSON, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def read_int_csv(run_dir: str | Path, name: str, header: list[str]) -> list[dict]:
    """The rows of an all-integer run file (PHASES_CSV, DELAYED_CSV) as
    dicts keyed by its header, read with the writer's grammar: the header
    line, then rows of fields 0 or -?[1-9][0-9]* (ints of any size) joined
    by ',', every line ended by '\n'.  Anything else raises ValueError
    naming the line."""
    lines = (Path(run_dir) / name).read_bytes().splitlines(keepends=True)
    if lines[:1] != [",".join(header).encode() + b"\n"]:
        raise ValueError(f"{name} line 1: the header is not {','.join(header)}")
    row = re.compile(b",".join([rb"(?:0|-?[1-9][0-9]*)"] * len(header)) + b"\n")
    rows = []
    for k, line in enumerate(lines[1:], 2):
        try:    # int() also refuses more digits than str() writes (4300 by default)
            if not row.fullmatch(line):
                raise ValueError(f"not {len(header)} integer fields 0 or "
                                 f"-?[1-9][0-9]* ending in a newline")
            rows.append(dict(zip(header, map(int, line[:-1].split(b",")))))
        except ValueError as exc:
            raise ValueError(f"{name} line {k}: {exc}") from None
    return rows


def read_ticks(run_dir: str | Path) -> Iterator[np.ndarray]:
    """The rows of ticks.csv as consecutive (n, 5) int64 chunks.  A first
    line other than TICKS_HEADER, or rows parse_rows refuses, raise
    ValueError."""
    with open(Path(run_dir) / TICKS_CSV, "rb") as fh:
        if fh.readline(len(TICKS_HEADER) + 1) != TICKS_HEADER.encode() + b"\n":
            raise ValueError(f"line 1: the header is not {TICKS_HEADER}")
        line, tail = 2, b""
        while block := fh.read(_BLOCK_BYTES):
            data = tail + block
            cut = data.rfind(b"\n") + 1 or len(data)    # no newline: refused whole
            rows = parse_rows(memoryview(data)[:cut], line)
            line, tail = line + len(rows), data[cut:]
            yield rows
        parse_rows(tail, line)      # refuses a last row with no newline


def read_summary(run_dir: str | Path) -> dict:
    """summary.json, refused unless an object with config and results objects."""
    with open(Path(run_dir) / SUMMARY_JSON, "r", encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{SUMMARY_JSON}: not valid JSON: {exc}") from exc
    if not (isinstance(summary, dict) and isinstance(summary.get("config"), dict)
            and isinstance(summary.get("results"), dict)):
        raise ValueError(f"{SUMMARY_JSON}: not an object with config and "
                         f"results objects")
    return summary


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    keys = list(dict.fromkeys(k for row in rows for k in row.cell))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(keys + ["replication", "seed", "status", "final_diff_quanta",
                           "phases_completed", "q_delayed", "n_delayed",
                           "mean_gap_ticks", "note"])
        for row in rows:
            mean_gap = "" if row.mean_gap is None else str(row.mean_gap)
            w.writerow([str(row.cell.get(k, "")) for k in keys]
                       + [row.replication, row.seed, row.status, row.final_diff,
                          row.phases_completed, row.q_delayed, row.n_delayed,
                          mean_gap, row.note])
