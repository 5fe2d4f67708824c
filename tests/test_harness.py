import csv
import random
import tempfile
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgesim import cli, harness
from edgesim.accounting import pnl_direct
from edgesim.dominance import (CLAUSE_LOWER_BOUND, CLAUSE_MONOTONICITY,
                               CLAUSE_PER_ORDER_GAP, CLAUSE_PHASE_IDENTITY,
                               CLAUSE_POSITION_MATCH, CLAUSE_POSITIVITY,
                               CLAUSE_QUEUE_CAP, ENQUEUE, FORCED,
                               DelayQueueEntry, DominanceEngine,
                               DominanceParams, InvariantViolation,
                               SimulationError, StrandedOrderError,
                               release_level)
from edgesim.harness import (ORACLE_CHECK, RunConfig, RunSettings,
                             default_config, replication_seed, run_simulation,
                             sweep)
from edgesim.market import Instrument, Order
from edgesim.prices import (ABOVE, MEAN_REVERTING_WALK, REFLECTING_WALK,
                            PriceProcessConfig, estimate_hitting_time)
from edgesim.runio import config_from_dict, load_config, write_run_artifacts
from edgesim.strategies import BaselineConfig
from edgesim.verify import all_passed, verify_run


def quick(seed=11, phases=2, **run_overrides):
    """A narrow-grid profile whose phases finish in a few thousand ticks,
    fast enough for the literal scalar engine."""
    instrument = Instrument("T", 1, Decimal("0.01"))
    price = PriceProcessConfig(kind=REFLECTING_WALK, grid_min=9800,
                               grid_max=10200, start_price=10000,
                               stay_probability=Fraction(1, 2))
    strategy = BaselineConfig(order_probability=Fraction(1, 20))
    dominance = DominanceParams(tau=10, gamma=10, queue_cap=3,
                                stage1_fill_count=3)
    run = RunSettings(**{"target_phases": phases, "master_seed": seed,
                         "keep_orders": True, **run_overrides})
    return RunConfig(instrument, price, strategy, dominance, run)


def assert_reports_equal(a, b):
    assert replace(a, ticks=None) == replace(b, ticks=None)
    assert np.array_equal(a.ticks, b.ticks)     # both None, or the same rows


def test_run_settings_validation():
    with pytest.raises(ValueError):
        RunSettings(total_ticks=100, target_phases=5)
    with pytest.raises(ValueError):
        RunSettings(total_ticks=None, target_phases=None)
    with pytest.raises(ValueError):
        RunSettings(target_phases=5, half_spread=-1)


def without_delays(cfg):
    return replace(cfg, dominance=replace(cfg.dominance, delay_probability=0))


def test_delay_probability_zero_needs_total_ticks():
    # without a delay no phase ends, so a phase target would never be met
    with pytest.raises(ValueError, match="no phase ends"):
        without_delays(default_config(target_phases=5))
    cfg = without_delays(default_config(total_ticks=10, target_phases=None))
    assert cfg.dominance.delay_probability == 0


def test_price_grid_alone_configures_simulate_verify_and_recurrence(tmp_path):
    # the tick grid is the price process's; nothing else states it
    path = tmp_path / "cfg.yaml"
    path.write_text("price:\n  grid_min: 0\n  grid_max: 60\n  start_price: 30\n"
                    "dominance:\n  tau: 5\n  gamma: 5\n"
                    "run:\n  target_phases: 2\n")
    out = tmp_path / "run"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 0
    assert cli.main(["verify", str(out)]) == 0
    assert cli.main(["recurrence", str(path), "--xi", "4", "--samples", "20"]) == 0
    prices = np.loadtxt(out / "ticks.csv", delimiter=",", skiprows=1,
                        dtype=np.int64)[:, 1]
    assert prices.min() >= 0 and prices.max() <= 60


def test_same_seed_same_report():
    cfg = quick(seed=21)
    assert_reports_equal(run_simulation(cfg), run_simulation(cfg))


@pytest.mark.parametrize("seed", [5, 92, 777])
def test_scalar_and_blocked_engines_agree(seed):
    cfg = quick(seed=seed, phases=3)
    assert_reports_equal(run_simulation(cfg, engine="scalar"),
                         run_simulation(cfg, engine="blocked"))


def test_engines_agree_with_spread_and_alternator():
    cfg = quick(seed=31, half_spread=2)
    cfg = replace(cfg, strategy=BaselineConfig(kind="periodic_alternator",
                                               period=15, quantity=2))
    assert_reports_equal(run_simulation(cfg, engine="scalar"),
                         run_simulation(cfg, engine="blocked"))


def test_engines_agree_on_default_profile():
    cfg = default_config(master_seed=92, target_phases=1, keep_orders=True)
    assert_reports_equal(run_simulation(cfg, engine="scalar"),
                         run_simulation(cfg, engine="blocked"))


def test_scalar_engine_keeps_a_mirrored_fill_once_for_both_logs():
    # S* shares the block S appended for each fill it mirrors; only a
    # release is a row of its own
    cfg = quick(seed=5, phases=2, record_ticks=False)
    scalar = run_simulation(cfg, engine="scalar")
    s_blocks = {id(block) for block in scalar.orders_s._blocks}
    own = [block for block in scalar.orders_sstar._blocks if id(block) not in s_blocks]
    shared = len(scalar.orders_sstar._blocks) - len(own)
    assert shared > 0
    assert shared == len(scalar.orders_sstar) - len(scalar.records)
    assert sum(block.shape[1] for block in own) == len(scalar.records)
    blocked = run_simulation(cfg, engine="blocked")
    assert scalar.orders_s == blocked.orders_s
    assert scalar.orders_sstar == blocked.orders_sstar


# -- phase records, read from the report alone ----------------------------------

SPREAD_AND_SPACING = replace(
    quick(seed=12, phases=None, total_ticks=30_000, half_spread=2),
    dominance=DominanceParams(tau=10, gamma=10, queue_cap=3, min_distance=6,
                              stage1_fill_count=3))


@pytest.mark.parametrize("engine", ["scalar", "blocked"])
@pytest.mark.parametrize("cfg", [quick(seed=5, phases=4), SPREAD_AND_SPACING],
                         ids=["phase_target", "spread_and_spacing"])
def test_phase_records_split_the_run_records_at_phase_ends(cfg, engine):
    rep = run_simulation(cfg, engine=engine)
    assert len(rep.phases) >= 2
    end = -1
    for phase in rep.phases:
        assert phase.records == tuple(r for r in rep.records
                                      if end < r.execution_time <= phase.end_time)
        assert phase.end_time == phase.records[-1].execution_time
        end = phase.end_time
    # records are kept in execution order: the phases' records, then the
    # ones executed after the last phase end (two, in the total_ticks run)
    unphased = [r for r in rep.records if r.execution_time > end]
    assert [r for p in rep.phases for r in p.records] + unphased == rep.records
    assert len(unphased) == (2 if cfg.run.total_ticks else 0)


@pytest.mark.parametrize("engine", ["scalar", "blocked"])
def test_records_after_the_last_phase_end_verify(engine, tmp_path):
    # a total_ticks stop may come mid-phase, after some releases
    write_run_artifacts(run_simulation(SPREAD_AND_SPACING, engine=engine),
                        tmp_path)
    assert all_passed(verify_run(tmp_path))


@st.composite
def small_configs(draw):
    """Narrow grids just above 2(tau + gamma), spread, spacing, lots above
    one unit, both baselines, both walks, both stopping rules, delays off
    (delay probability 0, total_ticks stops only) and ticks recorded or
    not.  Stay and reversion 1/3 give thresholds that are not dyadic."""
    tau, gamma = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid_min = draw(st.integers(0, 100))
    grid_max = grid_min + 2 * (tau + gamma) + draw(st.integers(1, 8))
    instrument = Instrument("F", draw(st.integers(1, 3)), Decimal("0.01"))
    price = PriceProcessConfig(
        kind=draw(st.sampled_from([REFLECTING_WALK, MEAN_REVERTING_WALK])),
        grid_min=grid_min, grid_max=grid_max,
        start_price=draw(st.integers(grid_min, grid_max)),
        stay_probability=draw(st.sampled_from(
            [Fraction(0), Fraction(1, 3), Fraction(1, 2)])),
        reversion_strength=draw(st.sampled_from(
            [Fraction(1, 3), Fraction(1, 2), Fraction(1)])))
    quantity = draw(st.integers(1, 3))
    strategy = draw(st.sampled_from([
        BaselineConfig(order_probability=Fraction(1, 3), quantity=quantity),
        BaselineConfig(order_probability=Fraction(1, 8), quantity=quantity),
        BaselineConfig(kind="periodic_alternator",
                       period=draw(st.integers(1, 6)), quantity=quantity)]))
    stop = draw(st.one_of(
        st.builds(lambda n: {"total_ticks": n, "target_phases": None},
                  st.integers(1, 3000)),
        st.builds(lambda n: {"target_phases": n}, st.integers(1, 3))))
    probabilities = [Fraction(1, 2), Fraction(1)]
    if stop["target_phases"] is None:
        probabilities.append(Fraction(0))
    dominance = DominanceParams(
        tau=tau, gamma=gamma,
        delay_probability=draw(st.sampled_from(probabilities)),
        queue_cap=draw(st.integers(1, 5)), min_distance=draw(st.integers(0, 3)),
        stage1_fill_count=draw(st.integers(1, 4)),
        max_phase_ticks=draw(st.integers(100, 3000)))
    run = RunSettings(master_seed=draw(st.integers(0, 2 ** 16)),
                      half_spread=draw(st.integers(0, 2)),
                      commission_per_unit=draw(st.integers(0, 3)),
                      record_ticks=draw(st.booleans()), keep_orders=True, **stop)
    return RunConfig(instrument, price, strategy, dominance, run)


def _outcome(cfg, engine):
    try:
        return run_simulation(cfg, engine=engine)
    except SimulationError as exc:
        return type(exc), str(exc)


def _outcome_and_sums(cfg, engine):
    """_outcome with the run's final running sums (W_s, SQ_s, W*, SQ*), or
    None: without kept orders or recorded ticks no report field shows
    them, as the diff takes only their differences."""
    sums = [None]
    build_report = harness._RunState.build_report

    def keep_sums(state, *args):
        sums.append((state.w_s, state.sq_s, state.w_star, state.sq_star))
        return build_report(state, *args)

    with mock.patch.object(harness._RunState, "build_report", keep_sums):
        outcome = _outcome(cfg, engine)
    return outcome, sums[-1]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_engines_agree_on_fuzzed_configs(cfg):
    scalar, blocked = _outcome(cfg, "scalar"), _outcome(cfg, "blocked")
    if isinstance(scalar, tuple) or isinstance(blocked, tuple):
        assert scalar == blocked
    else:
        assert_reports_equal(scalar, blocked)
        with tempfile.TemporaryDirectory() as out:
            write_run_artifacts(blocked, out)
            verdicts = verify_run(out)
        assert all_passed(verdicts), verdicts


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_engines_agree_on_fuzzed_configs_booked_by_sums(cfg):
    # no kept orders and no recorded ticks: the blocked engine books its
    # bulk fills by two reductions and builds no per-fill array
    cfg = replace(cfg, run=replace(cfg.run, keep_orders=False, record_ticks=False))
    assert _outcome_and_sums(cfg, "scalar") == _outcome_and_sums(cfg, "blocked")


def _edge_config(rng: random.Random) -> dict:
    """The YAML mapping of a config at the parser's edges: grids of width
    up to 2**62 anywhere in [-2**61, 2**61] with the start price at either
    edge, multipliers, quantities, spreads, spacings, commissions, counts
    and seeds near 2**62 or beyond int64, probabilities down to 10**-12,
    both walks and both baselines.  Runs stop at total_ticks <= 3000: a
    phase may never end."""
    def pick(ordinary, *edges):
        # the ordinary value five times in six, so that many runs delay orders
        return ordinary if rng.random() < 5 / 6 else rng.choice(edges)

    def probability():
        return pick(rng.choice(["1/3", 0.5, 1]), "1/1000000000000", 1e-12)

    def count():
        return pick(rng.randint(1, 4), 10 ** 12, rng.randint(1, 10 ** 12))

    def huge(top):
        return pick(rng.randint(0, 3), top, 10 ** 17, rng.randint(0, top))

    tau, gamma = rng.randint(1, 4), rng.randint(1, 4)
    narrowest = 2 * (tau + gamma) + 1
    width = pick(rng.randint(narrowest, narrowest + 20), 2 ** 62, 10 ** 12,
                 rng.randint(narrowest, 2 ** 62))
    grid_min = pick(-(width // 2), -2 ** 61, 2 ** 61 - width,
                    rng.randint(-2 ** 61, 2 ** 61 - width))
    return {
        "instrument": {"multiplier": pick(rng.randint(1, 3), 10 ** 17, 2 ** 62,
                                          rng.randint(1, 2 ** 62))},
        "price": {"kind": rng.choice(["reflecting_walk", "mean_reverting_walk"]),
                  "grid_min": grid_min, "grid_max": grid_min + width,
                  "start_price": rng.choice([grid_min, grid_min + width,
                                             rng.randint(grid_min, grid_min + width)]),
                  "stay_probability": pick(rng.choice([0, "1/2"]), "1/1000000000000",
                                           "999999999999/1000000000000"),
                  "reversion_strength": probability()},
        "strategy": {"kind": rng.choice(["bernoulli_trader", "periodic_alternator"]),
                     "order_probability": probability(), "period": count(),
                     "quantity": pick(rng.randint(1, 3), 2 ** 63,
                                      rng.randint(2 ** 63, 2 ** 65))},
        "dominance": {"tau": tau, "gamma": gamma,
                      "delay_probability": pick(probability(), 0),
                      "queue_cap": count(), "stage1_fill_count": count(),
                      "max_phase_ticks": pick(rng.randint(100, 3000), count()),
                      "min_distance": huge(2 ** 61)},
        "run": {"total_ticks": rng.randint(1, 3000), "target_phases": None,
                "master_seed": pick(rng.randint(0, 2 ** 16),
                                    rng.randint(2 ** 64, 2 ** 70)),
                "half_spread": huge(2 ** 61), "commission_per_unit": huge(2 ** 62),
                "record_ticks": rng.random() < 0.5,
                "keep_orders": rng.random() < 0.5}}


def test_engines_agree_at_the_parser_edges():
    # a plain seeded loop: hypothesis's derandomized examples of these
    # ranges rarely delay an order
    rng = random.Random(20)
    for _ in range(300):
        data = _edge_config(rng)
        cfg = config_from_dict(data)
        scalar, blocked = _outcome(cfg, "scalar"), _outcome(cfg, "blocked")
        if isinstance(scalar, tuple) or isinstance(blocked, tuple):
            assert scalar == blocked, data
            continue
        assert_reports_equal(scalar, blocked)
        with tempfile.TemporaryDirectory() as out:
            write_run_artifacts(blocked, out)
            verdicts = verify_run(out)
        assert all_passed(verdicts), (verdicts, data)


@pytest.mark.parametrize("engine", ["scalar", "blocked"])
def test_records_carry_their_queue_entries(engine, monkeypatch):
    entries = {}
    on_base_fill = DominanceEngine.on_base_fill

    def keep_entry(self, *args):
        action = on_base_fill(self, *args)
        if action == ENQUEUE:
            entries[self.queue[-1].order_id] = self.queue[-1]
        return action

    monkeypatch.setattr(DominanceEngine, "on_base_fill", keep_entry)
    rep = run_simulation(quick(seed=13, phases=3, half_spread=1), engine=engine)
    assert rep.records and len(rep.records) == len(entries)
    for r in rep.records:
        assert DelayQueueEntry(**{f.name: getattr(r, f.name)
                                  for f in fields(DelayQueueEntry)}) == entries[r.order_id]


def _log_decisions(monkeypatch) -> list[str]:
    """Log each on_base_fill call's action, with a candidate forced while
    the queue had room logged as "reach" when its gain level is off the
    grid, else as "spacing"."""
    log = []
    on_base_fill = DominanceEngine.on_base_fill

    def logged(self, order_id, sign, quantity, time, raw_price, fill):
        (num, den), room = self.cloud, len(self.queue) < self.params.queue_cap
        action = on_base_fill(self, order_id, sign, quantity, time, raw_price, fill)
        outcome = action
        if action == FORCED and room:
            level = release_level(sign, num, den, self.params.gamma)
            outcome = "spacing" if self.grid_min <= level <= self.grid_max else "reach"
        log.append(outcome)
        return action

    monkeypatch.setattr(DominanceEngine, "on_base_fill", logged)
    return log


# A grid of 23 ticks with gamma = 10: a gravity center more than a tick from
# the middle puts one side's gain level off the grid.
REACH_GUARD = RunConfig(
    Instrument("R", 1, Decimal("0.01")),
    PriceProcessConfig(grid_min=0, grid_max=23, start_price=0,
                       stay_probability=Fraction(0)),
    BaselineConfig(order_probability=Fraction(1, 2)),
    DominanceParams(tau=1, gamma=10, queue_cap=3, stage1_fill_count=1),
    RunSettings(master_seed=1, total_ticks=20_000, target_phases=None,
                keep_orders=True))


@pytest.mark.parametrize("cfg,reason", [(SPREAD_AND_SPACING, "spacing"),
                                        (REACH_GUARD, "reach")],
                         ids=["spacing", "reach"])
def test_blocked_engine_decides_only_the_fills_that_enqueue(cfg, reason, monkeypatch):
    # the scalar engine decides every fill, and some candidates are forced
    # for the reason; the blocked engine takes those in bulk
    log = _log_decisions(monkeypatch)
    scalar = run_simulation(cfg, engine="scalar")
    assert len(log) == len(scalar.orders_s) and reason in log
    enqueues = log.count(ENQUEUE)
    log.clear()
    assert_reports_equal(scalar, run_simulation(cfg, engine="blocked"))
    assert log == [ENQUEUE] * enqueues


@pytest.mark.parametrize("keep_orders", [True, False])
def test_verdict_counts_are_the_checks_that_ran(keep_orders):
    rep = run_simulation(quick(seed=13, phases=3, keep_orders=keep_orders))
    assert all(v["passed"] for v in rep.verdicts)
    checked = {v["clause"]: v["checked"] for v in rep.verdicts}
    # a target_phases stop leaves the queue empty: every enqueue released
    enqueues = len(rep.records)
    assert enqueues > 0
    assert checked.pop(CLAUSE_QUEUE_CAP) == enqueues
    # delta_T < 0 at each delay, gap > gamma + tau at each release
    assert checked.pop(CLAUSE_PER_ORDER_GAP) == 2 * enqueues
    assert checked.pop(ORACLE_CHECK) == (3 if keep_orders else 0)
    assert checked == {clause: 3 for clause in (
        CLAUSE_PHASE_IDENTITY, CLAUSE_LOWER_BOUND, CLAUSE_POSITIVITY,
        CLAUSE_MONOTONICITY, CLAUSE_POSITION_MATCH)}


def test_per_tick_audit_passes():
    run_simulation(quick(seed=11, phases=3), engine="scalar",
                   per_tick_audit=True)


def test_report_diff_matches_accounting_oracle():
    cfg = quick(seed=13)
    rep = run_simulation(cfg)
    inst = cfg.instrument
    for phase in rep.phases:
        t = phase.end_time
        s_hist = [o for o in rep.orders_s if o.time <= t]
        star_hist = [o for o in rep.orders_sstar if o.time <= t]
        price = int(rep.ticks[t, 1])
        diff = (pnl_direct(star_hist, price, inst)
                - pnl_direct(s_hist, price, inst))
        assert diff == phase.pnl_diff


@pytest.mark.parametrize("engine", ["scalar", "blocked"])
def test_the_accounting_oracle_sees_a_buffered_execution(engine, monkeypatch):
    # one tick off in the S* execution that ends phase 1, in the (5, 1)
    # block it was just appended as: only the oracle, which re-sums the
    # kept orders, can see it
    apply_executions = harness._RunState.apply_executions

    def shift_the_phase_ending_execution(state, records):
        apply_executions(state, records)
        if state.engine.phase_index == 2 and not state.phases:
            block = state.orders_star._blocks[-1]
            assert block.shape == (5, 1)
            block[3, 0] += 1

    monkeypatch.setattr(harness._RunState, "apply_executions",
                        shift_the_phase_ending_execution)
    with pytest.raises(InvariantViolation, match="phase 1 ended") as exc:
        run_simulation(quick(seed=13, phases=3), engine=engine)
    assert exc.value.clause == CLAUSE_PHASE_IDENTITY


@pytest.mark.parametrize("engine", ["scalar", "blocked"])
def test_kept_orders_build_no_order_while_running(engine, monkeypatch):
    built = []
    post_init = Order.__post_init__
    monkeypatch.setattr(Order, "__post_init__",
                        lambda order: built.append(order) or post_init(order))
    rep = run_simulation(quick(seed=13, phases=3), engine=engine)
    assert built == []
    assert rep.orders_s[0] == built[0]      # reading builds them


def test_kept_orders_share_bulk_blocks_and_reading_keeps_them():
    rep = run_simulation(quick(seed=13, phases=3), engine="blocked")
    logs = rep.orders_s, rep.orders_sstar
    star_ids = {id(block) for block in logs[1]._blocks}
    shared = [block for block in logs[0]._blocks if id(block) in star_ids]
    # the bulk fills are one block in both logs; a single fill of S alone
    # (an enqueue) or of S* alone (a release) is a (5, 1) block of its own
    assert sum(block.shape[1] for block in shared) > len(logs[0]) // 2
    assert all(block.shape[1] <= 1 for log in logs for block in log._blocks
               if not any(block is other for other in shared))
    before = [[(block, block.copy()) for block in log._blocks] for log in logs]
    for log in logs:
        log.columns(), len(log), list(log)
    for log, kept in zip(logs, before):
        assert len(log._blocks) == len(kept)
        for block, (was, values) in zip(log._blocks, kept):
            assert block is was and np.array_equal(block, values)


def test_positions_match_at_phase_ends():
    cfg = quick(seed=17)
    rep = run_simulation(cfg)
    assert rep.phases
    for phase in rep.phases:
        t = phase.end_time
        pos_s = -sum(o.sign * o.quantity for o in rep.orders_s if o.time <= t)
        pos_star = -sum(o.sign * o.quantity
                        for o in rep.orders_sstar if o.time <= t)
        assert pos_s == pos_star


def test_diff_moves_only_while_positions_differ():
    cfg = quick(seed=19)
    rep = run_simulation(cfg)
    *_, diff = rep.ticks.T
    pending = np.zeros(rep.final_time + 2, dtype=bool)
    for r in rep.records:
        pending[r.delay_time:r.execution_time] = True
    exec_ticks = {r.execution_time for r in rep.records}
    changed = np.flatnonzero(np.diff(diff)) + 1
    for t in changed:
        assert pending[t - 1] or pending[t] or int(t) in exec_ticks
    assert len(changed) > 0


def test_degenerate_delay_keeps_diff_zero():
    cfg = without_delays(default_config(master_seed=23, total_ticks=40_000,
                                        target_phases=None))
    rep = run_simulation(cfg)
    *_, diff = rep.ticks.T
    assert np.all(diff == 0)
    assert rep.q_delayed_total == 0
    assert rep.phases == []


def test_expense_independence_of_phase_diffs():
    base = dict(seed=29, phases=3, record_ticks=False, keep_orders=False)
    r0 = run_simulation(quick(**base))
    r1 = run_simulation(quick(**base, commission_per_unit=250, half_spread=2))
    assert [p.pnl_diff for p in r0.phases] == [p.pnl_diff for p in r1.phases]
    assert [p.end_time for p in r0.phases] == [p.end_time for p in r1.phases]
    assert r0.commissions_s == 0
    assert r1.commissions_s > 0
    assert r1.commissions_s == r1.commissions_sstar


@pytest.mark.parametrize("engine", ["scalar", "blocked"])
def test_commissions_match_the_order_lists_with_orders_still_queued(engine):
    cfg = quick(seed=1, phases=None, total_ticks=3000, commission_per_unit=3,
                record_ticks=False)
    cfg = replace(cfg, strategy=replace(cfg.strategy, quantity=2))
    rep = run_simulation(cfg, engine=engine)
    assert rep.stop_reason == "total_ticks"
    assert len(rep.orders_sstar) < len(rep.orders_s)     # some still queued
    assert rep.commissions_s == 3 * sum(o.quantity for o in rep.orders_s)
    assert rep.commissions_sstar == 3 * sum(o.quantity for o in rep.orders_sstar)
    assert rep.commissions_sstar != rep.commissions_s


def edge_config(seed, grid_min=0):
    """Grid width 40, dense fills, queue cap 2: phases of a few thousand
    ticks with many enqueues and releases."""
    return RunConfig(
        Instrument("E", 1, Decimal("0.01")),
        PriceProcessConfig(grid_min=grid_min, grid_max=grid_min + 40,
                           start_price=grid_min + 20,
                           stay_probability=Fraction(1, 2)),
        BaselineConfig(order_probability=Fraction(1, 4)),
        DominanceParams(tau=3, gamma=3, queue_cap=2, stage1_fill_count=2),
        RunSettings(master_seed=seed, target_phases=6, keep_orders=True))


def _queue_full_at_a_block_end(rep, block):
    return any(sum(r.delay_time <= end < r.execution_time for r in rep.records)
               == rep.config.dominance.queue_cap
               for end in range(block, rep.final_time, block))


def _stage1_inside_a_block(rep, block):
    # a phase ends, and the fills of the next Stage 1 and a Stage-2 fill
    # after them come in the same block
    times = [o.time for o in rep.orders_s]
    stage1 = rep.config.dominance.stage1_fill_count
    for phase in rep.phases:
        later = [t for t in times if t > phase.end_time]
        if (len(later) > stage1
                and (later[stage1] - 1) // block == (phase.end_time - 1) // block):
            return True
    return False


# A block covers ticks t+1 .. t+B, so tick T sits at offset (T - 1) % B.
BLOCK_EDGES = {
    # the fill at offset 0 is the carried-over intent of the block's last tick
    "enqueue_at_offset_0": (1, lambda rep, b: any(
        r.delay_time % b == 1 for r in rep.records)),
    "release_at_offset_0": (2, lambda rep, b: any(
        r.execution_time % b == 1 for r in rep.records)),
    "release_at_a_fill_tick": (9, lambda rep, b: any(
        r.execution_time in {o.time for o in rep.orders_s} for r in rep.records)),
    "queue_full_through_a_block_end": (3, _queue_full_at_a_block_end),
    "stage_1_inside_a_block": (5, _stage1_inside_a_block),
    "enqueue_on_a_block_last_tick": (6, lambda rep, b: any(
        r.delay_time % b == 0 for r in rep.records)),
}


# Each edge with kept orders and recorded ticks, and with neither ("-sums"),
# where the blocked engine books its bulk fills by their sums alone.
SUMS_ONLY = {"keep_orders": False, "record_ticks": False}


@pytest.mark.parametrize("edge, bookkeeping",
                         [(edge, {}) for edge in BLOCK_EDGES]
                         + [(edge, SUMS_ONLY) for edge in BLOCK_EDGES],
                         ids=[*BLOCK_EDGES, *(f"{edge}-sums" for edge in BLOCK_EDGES)])
def test_engines_agree_at_block_edges(edge, bookkeeping, monkeypatch):
    # the edge is found on the kept, recorded run: bookkeeping changes no
    # decision
    seed, occurs = BLOCK_EDGES[edge]
    monkeypatch.setattr(harness, "_BLOCK", 16)
    cfg = edge_config(seed)
    blocked = run_simulation(cfg, engine="blocked")
    assert occurs(blocked, 16)
    if bookkeeping:
        cfg = replace(cfg, run=replace(cfg.run, **bookkeeping))
        assert _outcome_and_sums(cfg, "scalar") == _outcome_and_sums(cfg, "blocked")
    else:
        assert_reports_equal(run_simulation(cfg, engine="scalar"), blocked)


def _bulk_fills(monkeypatch):
    """A list of the fill count of each bulk stretch booked from now on."""
    counts = []
    mirror_fills = harness._RunState.mirror_fills

    def count(state, start, at, *args):
        counts.append(len(at))
        return mirror_fills(state, start, at, *args)

    monkeypatch.setattr(harness._RunState, "mirror_fills", count)
    return counts


def _agree_where_the_int64_guard_fails(keep_orders):
    # prices near 2**55: beyond 2**62 // g units of cloud quantity the
    # blocked engine takes every fill as an event, in exact ints; the unit
    # commission counts the fills
    cfg = edge_config(seed=7, grid_min=2 ** 55)
    cfg = replace(cfg, run=replace(cfg.run, record_ticks=False, keep_orders=keep_orders,
                                   commission_per_unit=1))
    blocked = _outcome_and_sums(cfg, "blocked")
    assert blocked[0].commissions_s > 2 ** 62 // (2 ** 55 + 40)
    assert _outcome_and_sums(cfg, "scalar") == blocked


def test_engines_agree_where_the_int64_guard_fails():
    _agree_where_the_int64_guard_fails(keep_orders=True)


def test_engines_agree_where_the_int64_guard_fails_booked_by_sums(monkeypatch):
    # a stretch runs to its block's end, so only short blocks give
    # stretches short enough for the guard while the cloud is small: then
    # the two reductions run on prices near 2**55
    monkeypatch.setattr(harness, "_BLOCK", 16)
    bulk = _bulk_fills(monkeypatch)
    _agree_where_the_int64_guard_fails(keep_orders=False)
    assert sum(bulk) > 100


@pytest.mark.parametrize("bookkeeping", [{}, SUMS_ONLY], ids=["kept", "sums"])
def test_a_stretch_goes_in_bulk_up_to_where_the_int64_guard_fails(bookkeeping,
                                                                   monkeypatch):
    # at the full block size a stretch near 2**55 holds more fills than the
    # guard allows: those it allows go in bulk, the rest in later passes
    cfg = edge_config(seed=7, grid_min=2 ** 55)
    cfg = replace(cfg, run=replace(cfg.run, **bookkeeping))
    bulk = _bulk_fills(monkeypatch)
    if bookkeeping:
        assert _outcome_and_sums(cfg, "blocked") == _outcome_and_sums(cfg, "scalar")
    else:
        assert_reports_equal(run_simulation(cfg, engine="blocked"),
                             run_simulation(cfg, engine="scalar"))
    assert sum(bulk) > 0


@pytest.mark.parametrize("grid_min, bookkeeping",
                         [(2 ** 61 - 40, {}), (-2 ** 61, {}),
                          (2 ** 61 - 40, SUMS_ONLY), (-2 ** 61, SUMS_ONLY)],
                         ids=[str(2 ** 61 - 40), str(-2 ** 61),
                              f"{2 ** 61 - 40}-sums", f"{-2 ** 61}-sums"])
def test_engines_agree_at_the_int64_grid_bound(grid_min, bookkeeping, monkeypatch):
    # the grid may reach +/-2**61 (PriceProcessConfig); beyond, the config
    # is refused, and both engines run a grid at either end of the bound.
    # There the guard lets only a lone first fill go in bulk, so the
    # sums-only runs take one-tick blocks: one reduction of |raw| ~ 2**61.
    cfg = edge_config(seed=7, grid_min=grid_min)
    cfg = replace(cfg, run=replace(cfg.run, **{"record_ticks": False, **bookkeeping}))
    if bookkeeping:
        monkeypatch.setattr(harness, "_BLOCK", 1)
    bulk = _bulk_fills(monkeypatch)
    blocked = _outcome_and_sums(cfg, "blocked")
    assert blocked[0].phases_completed == cfg.run.target_phases
    assert _outcome_and_sums(cfg, "scalar") == blocked
    assert sum(bulk) == 1 or not bookkeeping


def test_long_phase_with_an_empty_queue_is_not_stranded():
    # the first delay comes more than max_phase_ticks after the run starts,
    # but no order waits that long; the backstop used to bound the phase
    cfg = RunConfig(
        Instrument("F", 1, Decimal("0.01")),
        PriceProcessConfig(grid_min=0, grid_max=5, start_price=0,
                           stay_probability=Fraction(0)),
        BaselineConfig(order_probability=Fraction(1, 8)),
        DominanceParams(tau=1, gamma=1, stage1_fill_count=1, max_phase_ticks=100),
        RunSettings(master_seed=0, target_phases=3, keep_orders=True))
    scalar = run_simulation(cfg, engine="scalar")
    assert scalar.phases[0].end_time > 100
    assert_reports_equal(scalar, run_simulation(cfg, engine="blocked"))


def test_stranded_backstop_aborts_run():
    cfg = quick(seed=11, phases=5)
    cfg = replace(cfg, dominance=replace(cfg.dominance, max_phase_ticks=200))
    with pytest.raises(StrandedOrderError):
        run_simulation(cfg)


def test_mean_reverting_price_process_runs():
    cfg = default_config(master_seed=37, total_ticks=20_000, target_phases=None)
    cfg = replace(cfg, price=replace(cfg.price, kind=MEAN_REVERTING_WALK,
                                     reversion_strength=Fraction(1, 4)))
    rep = run_simulation(cfg)
    assert rep.final_time == 20_000
    _, price, *_ = rep.ticks.T
    assert price.min() >= 9000
    assert price.max() <= 11000


def test_default_engine_matches_scalar_on_mean_reverting_walk():
    # spread, commission, spacing and the accounting oracle on the
    # mean-reverting walk; the default (blocked) engine must reproduce the
    # reference engine
    cfg = default_config(master_seed=2, target_phases=2, record_ticks=False,
                         keep_orders=True, half_spread=1,
                         commission_per_unit=2)
    cfg = replace(cfg, price=replace(cfg.price, kind=MEAN_REVERTING_WALK,
                                     reversion_strength=Fraction(1, 2)),
                  dominance=replace(cfg.dominance, min_distance=5))
    assert_reports_equal(run_simulation(cfg, engine="scalar"),
                         run_simulation(cfg))


def test_total_ticks_mode_stops_exactly():
    cfg = default_config(master_seed=41, total_ticks=12_345, target_phases=None)
    rep = run_simulation(cfg)
    assert rep.final_time == 12_345
    assert rep.ticks.shape == (12_346, 5)
    assert rep.stop_reason == "total_ticks"
    assert rep.max_drawdown_s >= 0


def test_replication_seeds():
    assert replication_seed(7, 0) == 7
    assert len({replication_seed(7, r) for r in range(5)}) == 5
    seeds = [replication_seed(m, r) for m in range(1, 11) for r in range(5)]
    assert len(set(seeds)) == len(seeds)
    assert replication_seed(1, 1) != replication_seed(2, 0)


def _pnl_from_orders(orders, price, multiplier):
    """Per-tick PnL from an order list by cumulative sums over fill times."""
    w = np.zeros(len(price), dtype=np.int64)
    sq = np.zeros(len(price), dtype=np.int64)
    for o in orders:
        w[o.time] += o.sign * o.price * o.quantity
        sq[o.time] += o.sign * o.quantity
    return multiplier * (np.cumsum(w) - price * np.cumsum(sq))


# The mean-reverting walk with a spread and kept orders, two phases.
MEAN_REVERTING_SPREAD = replace(
    default_config(master_seed=2, target_phases=2, keep_orders=True, half_spread=1),
    price=replace(default_config().price, kind=MEAN_REVERTING_WALK,
                  reversion_strength=Fraction(1, 2)))


@pytest.mark.parametrize("cfg", [
    default_config(master_seed=41, total_ticks=12_345, target_phases=None,
                   keep_orders=True, half_spread=2),
    quick(seed=13, phases=3, half_spread=1),
    replace(MEAN_REVERTING_SPREAD, instrument=replace(MEAN_REVERTING_SPREAD.instrument,
                                                      multiplier=7)),
], ids=["total_ticks", "target_phases", "mean_reverting_multiplier_7"])
@pytest.mark.parametrize("engine", ["scalar", "blocked"])
def test_tick_series_matches_order_lists(cfg, engine):
    rep = run_simulation(cfg, engine=engine)
    # the rows of ticks.csv, in its column order
    assert rep.ticks.dtype == np.int64 and rep.ticks.flags.c_contiguous
    assert rep.ticks.shape == (rep.final_time + 1, 5)
    time, price, pnl_s, pnl_sstar, diff = rep.ticks.T
    assert np.array_equal(time, np.arange(rep.final_time + 1))
    m = cfg.instrument.multiplier
    want_s = _pnl_from_orders(rep.orders_s, price, m)
    want_star = _pnl_from_orders(rep.orders_sstar, price, m)
    assert np.array_equal(pnl_s, want_s)
    assert np.array_equal(pnl_sstar, want_star)
    assert np.array_equal(diff, want_star - want_s)
    assert want_s.min() < 0 < want_s.max()
    # the drawdowns by a running peak in Python ints
    for drawdown, pnl in ((rep.max_drawdown_s, want_s),
                          (rep.max_drawdown_sstar, want_star)):
        values = pnl.tolist()
        peak, worst = values[0], 0
        for value in values:
            peak = max(peak, value)
            worst = max(worst, peak - value)
        assert drawdown == worst > 0


def test_cli_refuses_a_tick_series_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.yaml"
    path.write_text("instrument:\n  multiplier: 10000000000000000\n"
                    "run:\n  target_phases: 2\n")
    status = cli.main(["simulate", str(path), "--seed", "1",
                       "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ")
    assert "multiplier" in err and "record_ticks: false" in err


@pytest.mark.parametrize("keep_orders", [False, True])
def test_engines_agree_at_a_quantity_beyond_int64(keep_orders):
    # The blocked engine's int64 guard then leaves every bulk stretch
    # empty, so each fill goes one at a time in Python ints.  The two
    # total_ticks runs also have stretches with no fill before the first
    # one, while the cloud is still empty.
    for total_ticks, order_probability in ((None, Fraction(1, 20)),
                                           (1, Fraction(1, 20)),
                                           (20_000, Fraction(1, 100_000))):
        cfg = quick(seed=13, record_ticks=False, keep_orders=keep_orders,
                    total_ticks=total_ticks,
                    target_phases=None if total_ticks else 2)
        cfg = replace(cfg, strategy=replace(cfg.strategy, quantity=2 ** 63,
                                            order_probability=order_probability))
        blocked = run_simulation(cfg, engine="blocked")
        assert total_ticks or blocked.final_diff > 2 ** 63
        assert_reports_equal(run_simulation(cfg, engine="scalar"), blocked)


def test_cli_refuses_a_recorded_quantity_beyond_int64(tmp_path, capsys):
    path = tmp_path / "big.yaml"
    path.write_text(f"strategy:\n  quantity: {2 ** 63}\n"
                    "run:\n  target_phases: 1\n")
    status = cli.main(["simulate", str(path), "--seed", "1",
                       "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: the tick series would overflow int64")
    assert "instrument.multiplier" in err and "strategy.quantity" in err


def _tick_series_with_mark(w, m=1):
    """tick_series(0) of a run whose one event, at t = 0, leaves W_s = w."""
    cfg = default_config()
    cfg = replace(cfg, instrument=replace(cfg.instrument, multiplier=m))
    state = harness._RunState(cfg, 1)
    state.w_s = w
    state.emit_row(0)
    return state.tick_series(0)


def test_int64_range_check_boundary():
    # The bound 2*m*max(...) is even: 2**63 - 2 is the largest that passes.
    _, _, pnl_s, _, _ = _tick_series_with_mark(2 ** 62 - 1).T
    assert pnl_s[0] == 2 ** 62 - 1
    for w, m, bound in [(2 ** 62, 1, 2 ** 63), (-2 ** 63, 1, 2 ** 64),
                        (2 ** 61, 2, 2 ** 63),
                        (2 ** 64, 3, 3 * 2 ** 65)]:   # beyond int64: exact ints
        with pytest.raises(SimulationError) as refusal:
            _tick_series_with_mark(w, m)
        assert f"(PnL bound {bound} with instrument.multiplier {m})" in str(
            refusal.value)


def test_engines_refuse_a_recorded_run_at_the_same_mark():
    # the bound passes 2**63 inside a bulk stretch, once the position has
    # grown: the blocked engine bounds that stretch's marks one by one and
    # refuses the scalar engine's mark, with its bound
    cfg = quick(seed=13, phases=3)
    cfg = replace(cfg, instrument=replace(cfg.instrument, multiplier=2 ** 63 // 10 ** 6))
    with pytest.raises(SimulationError) as scalar:
        run_simulation(cfg, engine="scalar")
    with pytest.raises(SimulationError) as blocked:
        run_simulation(cfg, engine="blocked")
    assert str(blocked.value) == str(scalar.value)
    assert "mirror_fills" in [entry.name for entry in blocked.traceback]


@pytest.mark.parametrize("engine", ["scalar", "blocked"])
def test_a_recorded_run_beyond_int64_stops_at_its_first_fill(engine, monkeypatch):
    # each mark is bounded as it is made, so a long run is refused at the
    # first fill's tick (25), having drawn only the prices up to it
    cfg = default_config(master_seed=1, total_ticks=10_000_000, target_phases=None)
    first = run_simulation(replace(cfg, run=replace(
        cfg.run, total_ticks=100, keep_orders=True))).orders_s[0].time
    assert first == 25
    calls = {"walk_block": 0, "next_price": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(harness, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(harness, name, counted)
    cfg = replace(cfg, strategy=replace(cfg.strategy, quantity=2 ** 62))
    with pytest.raises(SimulationError, match="would overflow int64"):
        run_simulation(cfg, engine=engine)
    assert calls == ({"walk_block": 0, "next_price": first} if engine == "scalar"
                     else {"walk_block": 1, "next_price": 0})


# -- sweep -----------------------------------------------------------------------

def test_sweep_single_cell_matches_run():
    cfg = quick(seed=43, record_ticks=False, keep_orders=False)
    rows = sweep(cfg, {"tau": [10]})
    rep = run_simulation(replace(cfg, run=replace(cfg.run, record_ticks=False)))
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "ok"
    assert row.final_diff == rep.final_diff
    assert row.phases_completed == rep.phases_completed
    assert row.q_delayed == rep.q_delayed_total


def test_sweep_skips_invalid_cells():
    cfg = quick(seed=43, phases=1, record_ticks=False)
    rows = sweep(cfg, {"tau": [10, 5000]})
    by_tau = {row.cell["tau"]: row for row in rows}
    assert by_tau[10].status == "ok"
    assert by_tau[5000].status == "skipped"
    assert "half the grid width" in by_tau[5000].note


def test_sweep_mean_gap_exceeds_threshold_per_cell():
    cfg = quick(seed=47, record_ticks=False)
    rows = sweep(cfg, {"tau": [5, 10], "gamma": [10]})
    for row in rows:
        assert row.status == "ok"
        assert row.mean_gap > row.cell["tau"] + row.cell["gamma"]


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        sweep(quick(), {"stage1_fill_count": [1]})


SWEEP_CONFIG = ("price:\n  grid_min: 0\n  grid_max: 60\n  start_price: 30\n"
                "dominance:\n  tau: 5\n  gamma: 5\n"
                "run:\n  target_phases: 1\n  record_ticks: false\n")


@pytest.mark.parametrize("spec,message", [
    ("tau=2.5", "config key dominance.tau must be an integer, got 2.5"),
    ("tau=25;tau=10", "grid key 'tau' given twice"),
    ("delay_probability=true",
     "config key dominance.delay_probability: cannot parse True as Fraction"),
    ("taux=5", "unknown config key dominance.taux"),
    ("min_distance=5", "cannot sweep over 'min_distance'"),
    ("tau=[5", "while parsing a flow sequence"),
], ids=["int_given_float", "repeated_key", "fraction_given_bool",
        "unknown_key", "not_sweepable", "not_yaml"])
def test_sweep_cli_refuses_bad_grids(tmp_path, capsys, spec, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", str(path), "--grid", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("simulate", ["--out", "run"]),
    ("sweep", ["--grid", "tau=5", "--out", "sweep.csv"]),
    ("recurrence", ["--xi", "4", "--samples", "2"]),
])
def test_cli_refuses_a_negative_seed_by_name(tmp_path, capsys, monkeypatch,
                                             command, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(SWEEP_CONFIG)
    assert cli.main([command, "cfg.yaml", *args, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run.master_seed must be >= 0" in err
    assert {p.name for p in tmp_path.iterdir()} == {"cfg.yaml"}


def test_library_refuses_a_negative_master_seed():
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        run_simulation(quick(), master_seed=-1)
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -2"):
        estimate_hitting_time(quick().price, 10000, 4, ABOVE, samples=2,
                              cap=100, master_seed=-2)


def test_sweep_cli_parses_grid_values_as_config_fields(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(SWEEP_CONFIG)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", str(path), "--out", str(out), "--grid",
                     "tau=4, 5; delay_probability=1/2,0.75,1"]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("tau,delay_probability,replication")
    assert [r.split(",")[:2] for r in rows[1:]] == [
        [tau, p] for tau in ("4", "5") for p in ("1/2", "3/4", "1")]
    # each mean gap is its cell's run's exact Fraction, as in summary.json
    config = load_config(path)
    for row in csv.DictReader(rows):
        cell = replace(config.dominance, tau=int(row["tau"]),
                       delay_probability=Fraction(row["delay_probability"]))
        gap = run_simulation(replace(config, dominance=cell),
                             int(row["seed"])).mean_order_gap
        assert row["status"] == "ok"
        assert row["mean_gap_ticks"] == ("" if gap is None else str(gap))
