"""Tests of the benchmark itself:

    python3 -m pytest benchmark/test_smoke.py

The smoke run exercises every workload, its checks and the traced run at
tiny sizes; the other tests show that each check rejects a corrupted
output.
"""

import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

from edgesim.harness import default_config, run_simulation  # noqa: E402
from edgesim.prices import HittingTimeSummary  # noqa: E402
from edgesim.runio import write_run_artifacts  # noqa: E402
from workloads import (Recurrence, check_artifacts, check_hitting,  # noqa: E402
                       check_order_lists, check_phase_proof,
                       exit_time_moments)


def test_smoke_mode_reports_every_metric_and_passes_every_check():
    done = subprocess.run([sys.executable, "benchmark/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    results = [json.loads(line) for line in done.stdout.splitlines()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in results) == \
        sorted((n, t) for n in names for t in (0, 1))
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, r
        expected = spec["end_to_end"] if r["trace"] == 0 else spec["per_layer"]
        assert {m: v["unit"] for m, v in r["metrics"].items()} == \
            {m["name"]: m["unit"] for m in expected}
        if r["trace"] == 0:
            assert all(v["value"] > 0 for v in r["metrics"].values()), r


def test_no_sources_means_no_result(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for f in (ROOT / "benchmark").glob("*.py"):
        (bench / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                           "desk_core", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_phase_and_order_checks_reject_a_wrong_final_diff():
    report = run_simulation(default_config(master_seed=63, target_phases=3,
                                           record_ticks=False, keep_orders=True,
                                           half_spread=1, commission_per_unit=2))
    assert check_phase_proof(report, 3) == []
    assert check_order_lists(report) == []
    bad = replace(report, final_diff=report.final_diff + 1)
    assert check_phase_proof(bad, 3)
    assert check_order_lists(bad)
    assert check_phase_proof(report, 4)
    assert check_order_lists(replace(report, commissions_s=report.commissions_s + 1))


def test_artifact_check_rejects_an_edited_tick_row(tmp_path):
    out = write_run_artifacts(run_simulation(default_config(
        master_seed=63, target_phases=3)), tmp_path / "run")
    verdicts = "  pass  per_order_gap: ok\n"
    assert check_artifacts(out, 0, verdicts, 3) == []
    assert check_artifacts(out, 1, verdicts, 3)
    assert check_artifacts(out, 0, "  FAIL  queue_cap: x\n", 3)

    path = out / "ticks.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][3] = str(int(rows[5][3]) + 1)     # pnl_sstar no longer pnl_s + diff
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert check_artifacts(out, 0, verdicts, 3)


def test_hitting_check_uses_the_exact_gambler_ruin_moments():
    price = default_config().price
    price = replace(price, stay_probability=0)
    mean, var = exit_time_moments(price, 10000, 10101)
    assert mean == 212_201          # (a - x)(a + x) with a = 1101, x = 1000
    assert var == 212_201 * (101**2 + 2101**2 - 2) // 3   # sd ~ 5.6e5
    cap = Recurrence.CAP
    ok = HittingTimeSummary(samples=250, cap=cap, count_finite=250,
                            mean=float(mean) + 1e4, max=10**6)
    assert check_hitting(ok, price, 10000, 10101, 250, cap, 4) == []
    far = replace(ok, mean=float(mean) + 2e5)
    assert check_hitting(far, price, 10000, 10101, 250, cap, 4)
    capped = replace(ok, count_finite=249)
    assert check_hitting(capped, price, 10000, 10101, 250, cap, 4)
