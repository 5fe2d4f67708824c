"""The benchmark's four workloads and their independent output checks.

A workload is a fixed list of operations, one per simulation seed.  A
round runs each operation once, back to back in one thread (a closed
loop); the benchmark's --seed only shuffles the order of the operations
in a round.  The operations themselves never change, so every run does
the same work: the simulation seed fixes a run's length (1.3 M to 42.8 M
ticks over seeds 1000-1011 of the default profile) and its mix of fills,
blocks and releases, and with them the throughput.

Every operation goes through a public entry point (run_simulation,
`edgesim simulate` via cli.main, estimate_hitting_time), looked up on its
module at call time so the traced run can wrap it.  Each check recomputes
what the program claims from the raw outputs with the benchmark's own
arithmetic, or tests a property the method must have; none compares with
a stored copy of earlier output.  A check returns a list of problems;
an empty list means the operation passed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import replace
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import yaml

from edgesim import cli, harness, prices
from edgesim.runio import load_config

CONFIGS = Path(__file__).resolve().parent / "configs"

SMOKE_PHASES = 2
TICKS_HEADER = "time,price_ticks,pnl_s_quanta,pnl_sstar_quanta,diff_quanta"
_CHUNK_BYTES = 8 << 20


class Workload:
    name = ""
    seeds: tuple[int, ...] = ()
    probe_kind = "simulation"
    # Reference jobs that resemble where the operation's time goes; see
    # reference.py.
    reference = ("python", "numpy")

    def __init__(self, smoke: bool, run_dir: Path):
        self.config_path = CONFIGS / f"{self.name}.yaml"
        self.config = load_config(self.config_path)
        if smoke:
            self.config = replace(self.config, run=replace(
                self.config.run, target_phases=SMOKE_PHASES))
        self.run_dir = run_dir

    def run(self, seed: int):
        """The timed operation."""
        return harness.run_simulation(self.config, master_seed=seed)

    def ticks(self, result) -> int:
        return result.final_time

    def check(self, result) -> list[str]:
        return check_phase_proof(result, self.config.run.target_phases)


class DeskCore(Workload):
    name = "desk_core"
    seeds = (1000, 1001, 1003)


class MeanRevertingAudit(Workload):
    name = "mean_reverting_audit"
    seeds = (2, 3, 5)

    def check(self, result) -> list[str]:
        return (check_phase_proof(result, self.config.run.target_phases)
                + check_order_lists(result))


class DeskArtifacts(Workload):
    name = "desk_artifacts"
    # The two shortest 20-phase runs among seeds 1-599 (342,847 and
    # 318,667 ticks): the tick series of seed 1000 alone needs 3.4 GB.
    seeds = (99, 584)

    def __init__(self, smoke: bool, run_dir: Path):
        super().__init__(smoke, run_dir)
        if smoke:
            # `edgesim simulate` reads its config from a file.
            with open(self.config_path, encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
            data["run"]["target_phases"] = SMOKE_PHASES
            self.config_path = run_dir / f"{self.name}.smoke.yaml"
            with open(self.config_path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(data, fh)

    def run(self, seed: int):
        out = self.run_dir / f"seed{seed}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(["simulate", str(self.config_path),
                               "--seed", str(seed), "--out", str(out)])
        return status, stdout.getvalue(), out

    def ticks(self, result) -> int:
        return _read_summary(result[2])["results"]["final_time"]

    def check(self, result) -> list[str]:
        status, stdout, out = result
        return check_artifacts(out, status, stdout, self.config.run.target_phases)


class Recurrence(Workload):
    name = "recurrence"
    seeds = (1, 2, 3, 4)
    probe_kind = "hitting"
    reference = ("numpy",)
    XI = 100
    CAP = 10_000_000
    SAMPLES = 250
    SMOKE_SAMPLES = 5
    # Half-width of the acceptance band for the sample mean, in standard
    # errors.  The seeds are fixed, so a pass or a fail repeats exactly.
    Z = 4

    def __init__(self, smoke: bool, run_dir: Path):
        super().__init__(smoke, run_dir)
        self.samples = self.SMOKE_SAMPLES if smoke else self.SAMPLES

    def run(self, seed: int):
        price = self.config.price
        return prices.estimate_hitting_time(
            price, price.start_price, self.XI, prices.ABOVE, self.samples,
            self.CAP, master_seed=seed)

    def ticks(self, result) -> int:
        # mean is a float over integer times whose sum stays far below
        # 2**53, so mean * count rounds back to the exact sum of steps.
        return round(result.mean * result.count_finite)

    def check(self, result) -> list[str]:
        price = self.config.price
        return check_hitting(result, price, price.start_price,
                             price.start_price + self.XI + 1, self.samples,
                             self.CAP, self.Z)


WORKLOADS = {w.name: w for w in (DeskCore, DeskArtifacts, MeanRevertingAudit,
                                 Recurrence)}


# -- checks ---------------------------------------------------------------


def check_phase_proof(report, target_phases: int) -> list[str]:
    """Recompute every phase-end clause from the report's own numbers."""
    m = report.config.instrument.multiplier
    dom = report.config.dominance
    margin = dom.gamma + dom.tau
    where = f"seed {report.master_seed}"
    errors = []
    if report.phases_completed != target_phases:
        errors.append(f"{where}: {report.phases_completed} phases, "
                      f"expected {target_phases}")
    q_delayed = 0
    telescoping = 0
    n_records = 0
    prev = 0
    for phase in report.phases:
        at = f"{where} phase {phase.phase_index}"
        for r in phase.records:
            gap = r.sign * (r.execution_price - r.base_fill_price)
            if gap <= margin:
                errors.append(f"{at}: order {r.order_id} gap {gap} <= {margin}")
            q_delayed += r.quantity
            telescoping += gap * r.quantity
        n_records += len(phase.records)
        diff = phase.pnl_diff
        bound = m * q_delayed * margin
        if phase.delayed_quantity != q_delayed:
            errors.append(f"{at}: Q_D {phase.delayed_quantity} != {q_delayed}")
        if phase.lower_bound != bound:
            errors.append(f"{at}: bound {phase.lower_bound} != {bound}")
        if diff != m * telescoping:
            errors.append(f"{at}: diff {diff} != m*sum(gap*qty) {m * telescoping}")
        if diff < bound:
            errors.append(f"{at}: diff {diff} below the bound {bound}")
        if q_delayed >= 1 and diff <= 0:
            errors.append(f"{at}: diff {diff} not positive")
        if diff < prev or (phase.records and diff <= prev):
            errors.append(f"{at}: diff {diff} not above the previous {prev}")
        prev = diff
    if n_records != len(report.records):
        errors.append(f"{where}: phases hold {n_records} records, "
                      f"the run {len(report.records)}")
    if report.final_diff != m * telescoping:
        errors.append(f"{where}: final_diff {report.final_diff} != "
                      f"m*sum(gap*qty) {m * telescoping}")
    return errors


def _marked_pnl(orders, price: int, multiplier: int) -> int:
    """Cash from sells minus cash for buys, plus the open position marked
    at price (sign +1 is a sell)."""
    sold = bought = position = 0
    for o in orders:
        if o.sign > 0:
            sold += o.price * o.quantity
            position -= o.quantity
        else:
            bought += o.price * o.quantity
            position += o.quantity
    return multiplier * (sold - bought + position * price)


def check_order_lists(report) -> list[str]:
    """PnL(S*) - PnL(S) from the kept order lists, their ids and
    quantities, and the commissions."""
    where = f"seed {report.master_seed}"
    s, star = report.orders_s, report.orders_sstar
    if not s or not star:
        return [f"{where}: order lists were not kept"]
    errors = []
    m = report.config.instrument.multiplier
    diff = (_marked_pnl(star, report.final_price, m)
            - _marked_pnl(s, report.final_price, m))
    if diff != report.final_diff:
        errors.append(f"{where}: PnL(S*) - PnL(S) = {diff} from the order "
                      f"lists, report says {report.final_diff}")
    if (sorted((o.id, o.quantity) for o in s)
            != sorted((o.id, o.quantity) for o in star)):
        errors.append(f"{where}: S and S* order ids or quantities differ")
    rate = report.config.run.commission_per_unit
    for label, orders, paid in (("S", s, report.commissions_s),
                                ("S*", star, report.commissions_sstar)):
        expected = rate * sum(o.quantity for o in orders)
        if paid != expected:
            errors.append(f"{where}: {label} commissions {paid} != {expected}")
    return errors


def _read_summary(out: Path) -> dict:
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def _read_int_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: int(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_artifacts(out: Path, status: int, stdout: str,
                    target_phases: int) -> list[str]:
    """Re-derive a run directory's claims from its files, streaming
    ticks.csv in bounded memory."""
    errors = []
    if status != 0:
        errors.append(f"{out.name}: edgesim simulate exited {status}")
    verdicts = [line.split()[0] for line in stdout.splitlines()
                if line.startswith(("  pass", "  FAIL"))]
    if not verdicts or "FAIL" in verdicts:
        errors.append(f"{out.name}: verify_run verdicts {verdicts}")

    summary = _read_summary(out)
    results = summary["results"]
    cfg = summary["config"]
    m = int(cfg["instrument"]["multiplier"])
    margin = int(cfg["dominance"]["gamma"]) + int(cfg["dominance"]["tau"])
    phases = _read_int_csv(out / "phases.csv")
    delayed = sorted(_read_int_csv(out / "delayed_orders.csv"),
                     key=lambda r: r["t_exec"])
    if len(phases) != target_phases:
        errors.append(f"{out.name}: {len(phases)} phases, expected {target_phases}")

    idx = q_delayed = telescoping = 0
    for p in phases:
        while idx < len(delayed) and delayed[idx]["t_exec"] <= p["end_time"]:
            r = delayed[idx]
            gap = r["sign"] * (r["p_exec_ticks"] - r["p_delay_ticks"])
            if gap != r["gap_ticks"] or gap <= margin:
                errors.append(f"{out.name}: order {r['order_id']} gap {gap}, "
                              f"recorded {r['gap_ticks']}")
            q_delayed += r["qty"]
            telescoping += gap * r["qty"]
            idx += 1
        if (p["diff_quanta"] != m * telescoping or p["q_delayed"] != q_delayed
                or p["lower_bound_quanta"] != m * q_delayed * margin):
            errors.append(f"{out.name}: phase {p['phase']} row {p} != telescoping "
                          f"{m * telescoping}, Q_D {q_delayed}")
    if idx != len(delayed):
        errors.append(f"{out.name}: {len(delayed) - idx} orders executed after "
                      f"the last phase end")
    if results["final_diff_quanta"] != m * telescoping:
        errors.append(f"{out.name}: final diff {results['final_diff_quanta']} "
                      f"!= {m * telescoping}")

    end_diff = {p["end_time"]: p["diff_quanta"] for p in phases}
    seen: dict[int, int] = {}
    next_time = 0
    peak = [None, None]
    drawdown = [0, 0]
    with open(out / "ticks.csv", encoding="utf-8") as fh:
        if fh.readline().strip() != TICKS_HEADER:
            errors.append(f"{out.name}: unexpected ticks.csv header")
        while lines := fh.readlines(_CHUNK_BYTES):
            rows = np.loadtxt(lines, dtype=np.int64, delimiter=",", ndmin=2)
            times = rows[:, 0]
            if not np.array_equal(times, np.arange(next_time, next_time + len(rows))):
                errors.append(f"{out.name}: ticks.csv rows are not consecutive "
                              f"from t={next_time}")
                break
            if np.any(rows[:, 4] != rows[:, 3] - rows[:, 2]):
                errors.append(f"{out.name}: diff != pnl_sstar - pnl_s near "
                              f"t={next_time}")
            for k, col in enumerate((2, 3)):
                pnl = rows[:, col]
                running = np.maximum.accumulate(pnl)
                if peak[k] is not None:
                    running = np.maximum(running, peak[k])
                drawdown[k] = max(drawdown[k], int((running - pnl).max()))
                peak[k] = int(running[-1])
            for t in end_diff:
                if next_time <= t < next_time + len(rows):
                    seen[t] = int(rows[t - next_time, 4])
            next_time += len(rows)
    if next_time != results["final_time"] + 1:
        errors.append(f"{out.name}: {next_time} tick rows, expected "
                      f"final_time + 1 = {results['final_time'] + 1}")
    if seen != end_diff:
        errors.append(f"{out.name}: phase-end rows of ticks.csv do not match "
                      f"phases.csv")
    if drawdown != [results["max_drawdown_s_quanta"],
                    results["max_drawdown_sstar_quanta"]]:
        errors.append(f"{out.name}: max drawdowns {drawdown} from ticks.csv, "
                      f"summary says {results['max_drawdown_s_quanta']}, "
                      f"{results['max_drawdown_sstar_quanta']}")
    return errors


def exit_time_moments(price, start: int, target: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the first time the walk, reflected at
    grid_min, reaches target > start (stay probability s).

    Folding at the boundary turns it into a simple symmetric walk leaving
    (-a, a) from x, with a = target - grid_min and x = start - grid_min;
    on (0, L) from k (L = 2a, k = x + a) its move count N has mean k(L-k)
    and variance k(L-k)((L-k)^2 + k^2 - 2)/3 (gambler's ruin; Feller
    vol. 1, XIV.3).  Each move waits a Geometric(1-s) number of ticks.
    """
    s = Fraction(price.stay_probability)
    a = target - price.grid_min
    x = start - price.grid_min
    length, k = 2 * a, x + a
    n_mean = Fraction(k * (length - k))
    n_var = Fraction(k * (length - k) * ((length - k) ** 2 + k ** 2 - 2), 3)
    g_mean = 1 / (1 - s)
    g_var = s / (1 - s) ** 2
    return n_mean * g_mean, n_mean * g_var + n_var * g_mean ** 2


def check_hitting(summary, price, start: int, target: int, samples: int,
                  cap: int, z: float) -> list[str]:
    """Every sample hits within the cap, and the sample mean lies inside a
    CLT band of z standard errors around the exact expected time."""
    errors = []
    if summary.samples != samples or summary.count_finite != samples:
        errors.append(f"{summary.count_finite}/{summary.samples} samples hit "
                      f"within the cap")
    if summary.max > cap:
        errors.append(f"max hitting time {summary.max} above the cap {cap}")
    mean, var = exit_time_moments(price, start, target)
    half_width = z * sqrt(var / samples)
    if abs(summary.mean - float(mean)) > half_width:
        errors.append(f"mean hitting time {summary.mean:.1f} outside "
                      f"{float(mean):.1f} +/- {half_width:.1f}")
    return errors
