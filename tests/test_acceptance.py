"""Acceptance suite: every criterion at its stated tolerance.

All dominance checks are exact integer comparisons; nothing here trusts
the in-run verification (reports are re-derived from their recorded
numbers).  Each test prints one pass line with its headline figures; run
with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import filecmp
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from edgesim.accounting import (FIFO, LIFO, match_lots, pnl_decomposed,
                                pnl_direct, pnl_via_position)
from edgesim.dominance import (CLAUSE_MONOTONICITY, CLAUSE_PER_ORDER_GAP,
                               CLAUSE_QUEUE_CAP)
from edgesim.harness import default_config, run_simulation
from edgesim.market import BUY, SELL, Order
from edgesim.prices import ABOVE, PriceProcessConfig, estimate_hitting_time
from edgesim.runio import DELAYED_CSV, PHASES_CSV, write_run_artifacts
from edgesim.verify import verify_run

N_DOMINANCE_RUNS = 100
GAMMA_PLUS_TAU = 50   # default profile: gamma = tau = 25 ticks
MULTIPLIER = 1


@pytest.fixture(scope="module")
def dominance_reports():
    t0 = time.time()
    reports = []
    for i in range(N_DOMINANCE_RUNS):
        cfg = default_config(master_seed=1000 + i, target_phases=20,
                             record_ticks=False)
        reports.append(run_simulation(cfg))
    elapsed = time.time() - t0
    print(f"\n[dominance suite] {N_DOMINANCE_RUNS} runs x 20 phases "
          f"in {elapsed:.1f}s")
    return reports


def test_criterion_1_dominance_suite(dominance_reports):
    """Phase-end bound, positivity, and monotonicity over 100 seeded runs."""
    phases_checked = 0
    for rep in dominance_reports:
        assert rep.phases_completed >= 20
        prev = 0
        for phase in rep.phases:
            bound = MULTIPLIER * phase.delayed_quantity * GAMMA_PLUS_TAU
            assert phase.lower_bound == bound
            assert phase.pnl_diff >= bound
            if phase.delayed_quantity >= 1:
                assert phase.pnl_diff > 0
            if phase.n_delayed >= 1:
                assert phase.pnl_diff > prev
            else:
                assert phase.pnl_diff >= prev
            prev = phase.pnl_diff
            phases_checked += 1
    print(f"PASS criterion 1: {phases_checked} phase ends over "
          f"{len(dominance_reports)} runs satisfy bound, positivity, "
          f"and monotonicity exactly")


def test_criterion_2_per_order_gap(dominance_reports):
    """Every delayed order beats gamma + tau = 50 ticks, exactly."""
    n = 0
    worst = None
    for rep in dominance_reports:
        for rec in rep.records:
            gap = rec.sign * (rec.execution_price - rec.base_fill_price)
            assert gap == rec.gap
            assert gap > GAMMA_PLUS_TAU
            worst = gap if worst is None else min(worst, gap)
            n += 1
    assert n > 0
    print(f"PASS criterion 2: {n} delayed orders, every gap > "
          f"{GAMMA_PLUS_TAU} ticks (smallest: {worst})")


def test_criterion_3_accounting_identities():
    """pnl_direct == pnl_via_position == FIFO total == LIFO total on
    10^4 fuzzed order sets."""
    from edgesim.harness import default_config
    inst = default_config().instrument
    rng = np.random.default_rng(20240807)
    for _ in range(10_000):
        n = int(rng.integers(0, 51))
        signs = rng.integers(0, 2, n)
        prices = rng.integers(9000, 11001, n)
        qtys = rng.integers(1, 21, n)
        orders = [Order(i + 1, i, SELL if signs[i] else BUY,
                        int(prices[i]), int(qtys[i])) for i in range(n)]
        price = int(rng.integers(9000, 11001))
        direct = pnl_direct(orders, price, inst)
        assert pnl_via_position(orders, price, inst) == direct
        assert pnl_decomposed(*match_lots(orders, FIFO), price, inst).total == direct
        assert pnl_decomposed(*match_lots(orders, LIFO), price, inst).total == direct
    print("PASS criterion 3: 10000 fuzzed order sets, all four PnL "
          "routes agree exactly")


def test_criterion_4_expense_independence():
    """Phase-end diff series bit-identical across expense settings."""
    for seed in range(1, 11):
        base = dict(master_seed=seed, target_phases=20, record_ticks=False)
        cheap = run_simulation(default_config(**base))
        costly = run_simulation(default_config(
            **base, commission_per_unit=250, half_spread=2))
        assert [p.pnl_diff for p in cheap.phases] == \
               [p.pnl_diff for p in costly.phases]
        assert [p.end_time for p in cheap.phases] == \
               [p.end_time for p in costly.phases]
    print("PASS criterion 4: 10 seed pairs, phase-end diff series "
          "bit-identical under commission 250 quanta and half-spread 2")


def test_criterion_5_determinism(tmp_path):
    """Identical master seed, byte-identical CSV outputs."""
    cfg = default_config(master_seed=4242, target_phases=3)
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_run_artifacts(run_simulation(cfg), a)
    write_run_artifacts(run_simulation(cfg), b)
    for name in ("ticks.csv", "phases.csv", "delayed_orders.csv",
                 "summary.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
    print("PASS criterion 5: repeated run produced byte-identical "
          "ticks/phases/delayed_orders/summary files")


def test_criterion_6_recurrence_harness():
    """Reflecting walk, threshold 100 ticks above the grid center,
    10^4 replications, cap 10^7: every replication hits."""
    config = PriceProcessConfig(grid_min=9000, grid_max=11000,
                                start_price=10000,
                                stay_probability=Fraction(0))
    t0 = time.time()
    s = estimate_hitting_time(config, 10000, 100, ABOVE,
                              samples=10_000, cap=10_000_000,
                              master_seed=20240807)
    elapsed = time.time() - t0
    assert s.count_finite == s.samples == 10_000
    assert s.max <= 10_000_000
    print(f"PASS criterion 6: 10000/10000 finite hitting times, "
          f"mean {s.mean:.0f} ticks, max {s.max} ({elapsed:.1f}s)")


def test_criterion_7_mutation_audit(tmp_path):
    """verify_run flags each injected corruption with its clause name."""
    import csv
    import shutil

    base = tmp_path / "clean"
    cfg = default_config(master_seed=63, target_phases=3, record_ticks=False)
    write_run_artifacts(run_simulation(cfg), base)

    def mutate_csv(run_dir, filename, fn):
        path = run_dir / filename
        with open(path, "r", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        fn(rows[1:])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerows(rows)

    def copy(name):
        dst = tmp_path / name
        shutil.copytree(base, dst)
        return dst

    # (a) one execution price moved back by gamma + tau
    run_a = copy("a")

    def perturb_exec_price(body):
        sign = int(body[0][1])
        body[0][6] = str(int(body[0][6]) - sign * GAMMA_PLUS_TAU)
        body[0][7] = str(int(body[0][7]) - GAMMA_PLUS_TAU)

    mutate_csv(run_a, DELAYED_CSV, perturb_exec_price)
    flagged = {v.clause for v in verify_run(run_a) if not v.passed}
    assert CLAUSE_PER_ORDER_GAP in flagged

    # (b) phase diffs rearranged to decrease
    run_b = copy("b")

    def decrease_diffs(body):
        body[-1][3] = str(int(body[0][3]) - 1)

    mutate_csv(run_b, PHASES_CSV, decrease_diffs)
    flagged = {v.clause for v in verify_run(run_b) if not v.passed}
    assert CLAUSE_MONOTONICITY in flagged

    # (c) queue-cap breach in the delayed-order records
    run_c = copy("c")

    def overlap_records(body):
        assert len(body) >= 4
        latest = max(int(r[5]) for r in body)
        # delayed in order-id order, as ids rise with the delay tick
        for k, row in enumerate(sorted(body[:4], key=lambda r: int(r[0]))):
            row[3] = str(k + 1)
            row[5] = str(latest + 10)

    mutate_csv(run_c, DELAYED_CSV, overlap_records)
    flagged = {v.clause for v in verify_run(run_c) if not v.passed}
    assert CLAUSE_QUEUE_CAP in flagged

    print("PASS criterion 7: perturbed p*, decreasing diffs, and a "
          "queue-cap breach were each flagged with the correct clause")


def test_criterion_8_degenerate_delay():
    """Bernoulli substream forced to 0: the overlay is the baseline."""
    cfg = default_config(master_seed=77, total_ticks=100_000, target_phases=None)
    cfg = replace(cfg, dominance=replace(cfg.dominance, delay_probability=0))
    rep = run_simulation(cfg)
    _, _, pnl_s, pnl_sstar, diff = rep.ticks.T
    assert np.all(diff == 0)
    assert np.array_equal(pnl_s, pnl_sstar)
    assert rep.q_delayed_total == 0
    print("PASS criterion 8: with delays forced off the PnL difference "
          "is 0 at every one of 100000 ticks")
