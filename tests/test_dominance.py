from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesim.dominance import (CLAUSE_LOWER_BOUND, CLAUSE_MONOTONICITY,
                               CLAUSE_PHASE_IDENTITY, CLAUSE_POSITIVITY,
                               ENQUEUE, FORCED, MIRROR, DelayedOrderRecord,
                               DominanceEngine, DominanceParams, PhaseReport,
                               StrandedOrderError, pair_extreme,
                               phase_clause_failures, phase_pnl_diff_check,
                               release_level)
from edgesim.market import BUY, SELL, Instrument, Order

INST = Instrument("SIM", 1, Decimal("0.01"))


def make_engine(tau=50, gamma=40, queue_cap=3, min_distance=0, stage1=2,
                max_phase_ticks=50_000_000, half_spread=0, delay=True,
                grid=(9000, 11000)):
    params = DominanceParams(tau=tau, gamma=gamma,
                             delay_probability=Fraction(1, 2),
                             queue_cap=queue_cap, min_distance=min_distance,
                             stage1_fill_count=stage1,
                             max_phase_ticks=max_phase_ticks)
    return DominanceEngine(params, grid[0], grid[1], half_spread,
                           (lambda: True) if delay else (lambda: False))


def seed_stage1(engine, price=10000, start_id=1, time=0):
    """Mirror the configured number of fills at one price so the gravity
    center is exactly that price when Stage 2 begins."""
    n = engine.params.stage1_fill_count
    for k in range(n):
        sign = SELL if k % 2 == 0 else BUY
        action = engine.on_base_fill(start_id + k, sign, 1, time, price, price)
        assert action == MIRROR
    assert engine.stage == 2
    assert engine.gravity() == price
    return start_id + n


# -- the gain level: minmax_sign(C_now, C_frozen) is pair_extreme ---------------

def test_minmax_max_case():
    assert pair_extreme(SELL, 2, 1, 7, 1) == (7, 1)


def test_minmax_min_case():
    assert pair_extreme(BUY, 2, 1, 7, 1) == (2, 1)


def test_minmax_identity_case():
    for sign in (SELL, BUY):
        assert pair_extreme(sign, 5, 1, 5, 1) == (5, 1)
        assert Fraction(*pair_extreme(sign, 10, 2, 5, 1)) == 5


def test_minmax_exact_on_rationals():
    a, b = Fraction(10000, 3), Fraction(9999, 2)
    assert Fraction(*pair_extreme(SELL, 10000, 3, 9999, 2)) == max(a, b)
    assert Fraction(*pair_extreme(BUY, 10000, 3, 9999, 2)) == min(a, b)


@given(st.sampled_from([SELL, BUY]), st.integers(-10**9, 10**9),
       st.integers(1, 10**6), st.integers(1, 1000),
       st.integers(-10**6, 10**6))
def test_release_level_matches_fraction(sign, num, den, gamma, price):
    # the level is the first grid price strictly past C + sign * gamma
    level = release_level(sign, num, den, gamma)
    anchor = Fraction(num, den) + sign * gamma
    assert sign * (level - anchor) > 0
    assert sign * (level - sign - anchor) <= 0
    assert (sign * (price - level) >= 0) == (sign * (price - anchor) > 0)


@given(st.sampled_from([SELL, BUY]), st.integers(-10**9, 10**9),
       st.integers(1, 10**6), st.integers(-10**9, 10**9),
       st.integers(1, 10**6), st.integers(1, 1000))
def test_level_of_the_extreme_anchor_is_the_extreme_level(sign, n1, d1, n2, d2,
                                                          gamma):
    # the identity behind current_release_bounds: the level of
    # minmax_sign(C_now, C_frozen) is the max (sell) / min (buy) of the two
    # single-anchor levels, so the queue's bound needs no pair per entry
    level = release_level(sign, *pair_extreme(sign, n1, d1, n2, d2), gamma)
    levels = (release_level(sign, n1, d1, gamma), release_level(sign, n2, d2, gamma))
    assert level == (max(levels) if sign == SELL else min(levels))


# -- delay event -------------------------------------------------------------------

def candidate(sign, price, tau=50, gamma=40):
    """The engine's action for one Stage-2 candidate with the cloud at 10000."""
    engine = make_engine(tau=tau, gamma=gamma, stage1=2)
    next_id = seed_stage1(engine, 10000)
    return engine.on_base_fill(next_id, sign, 1, 10, price, price)


def test_delay_eligible_sell_beyond_tolerance():
    assert candidate(SELL, 9925) == ENQUEUE


def test_delay_eligible_buy_within_tolerance():
    assert candidate(BUY, 10025) == MIRROR
    assert candidate(BUY, 10051) == ENQUEUE


def test_delay_eligible_boundary_is_strict():
    assert candidate(SELL, 9950) == MIRROR
    assert candidate(SELL, 9949) == ENQUEUE


# -- execution event ---------------------------------------------------------------

def sell_delayed_at_10000_cloud_at_9960():
    """A sell delayed with the cloud at 10000; a mirrored buy then moves
    the current cloud to 9960, so the frozen center anchors the level."""
    engine = make_engine(tau=50, gamma=40, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9925) == ENQUEUE
    assert engine.on_base_fill(next_id + 1, BUY, 2, 11, 9920, 9920) == MIRROR
    assert engine.gravity() == 9960
    return engine


def test_execution_ready_sell_clears_gain():
    records, _ = sell_delayed_at_10000_cloud_at_9960().on_tick(20, 10050)
    assert len(records) == 1
    assert records[0].delta_G_at_execution == 10


def test_execution_ready_boundary_is_strict():
    engine = sell_delayed_at_10000_cloud_at_9960()
    assert engine.current_release_bounds() == (10041, None)
    assert engine.on_tick(20, 10040) == ([], False)
    records, _ = engine.on_tick(21, 10041)
    assert records[0].delta_G_at_execution == 1


def test_execution_ready_buy_case():
    engine = make_engine(tau=50, gamma=40, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, BUY, 1, 10, 10075, 10075) == ENQUEUE
    assert engine.on_tick(20, 9960) == ([], False)
    records, _ = engine.on_tick(21, 9950)
    assert records[0].delta_G_at_execution == 10


def test_current_cloud_anchors_when_it_is_the_extreme():
    # a mirrored sell above the cloud lifts it to 10040 after the delay
    engine = make_engine(tau=50, gamma=40, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9925) == ENQUEUE
    assert engine.on_base_fill(next_id + 1, SELL, 2, 11, 10080, 10080) == MIRROR
    assert engine.gravity() == 10040
    assert engine.frozen_bounds == (10041, None)
    assert engine.current_release_bounds() == (10081, None)
    assert engine.on_tick(20, 10080) == ([], False)
    assert len(engine.on_tick(21, 10081)[0]) == 1


# -- engine scenarios ----------------------------------------------------------------

def test_stage1_mirrors_everything():
    engine = make_engine(stage1=3)
    for i in range(3):
        assert engine.on_base_fill(i + 1, SELL, 1, i, 9000 + i, 9000 + i) == MIRROR
    assert engine.stage == 2
    assert engine.queue == []


def test_enqueue_then_release_composes_the_events():
    engine = make_engine(tau=50, gamma=40, stage1=2)
    next_id = seed_stage1(engine, 10000)

    # sell candidate far below the cloud: s*(C-P) = 75 > tau
    action = engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9925)
    assert action == ENQUEUE
    assert len(engine.queue) == 1
    entry = engine.queue[0]
    assert Fraction(entry.gravity_num, entry.gravity_den) == 10000
    assert entry.delta_T_at_delay < 0

    # the same tick can never release the just-delayed order
    records, ended = engine.on_tick(10, 9925)
    assert records == [] and not ended

    # below the gain threshold: 10040 - 10000 = 40, strict comparison
    records, ended = engine.on_tick(20, 10040)
    assert records == [] and not ended

    # clears the gain threshold: 10050 - max(C_t, C_frozen) = 50 > 40
    records, ended = engine.on_tick(30, 10050)
    assert len(records) == 1 and ended
    rec = records[0]
    assert rec.execution_price - rec.base_fill_price == 125
    assert rec.gap == 125 > 40 + 50
    assert rec.delta_T_at_delay < 0
    assert rec.delta_G_at_execution > 0
    assert engine.queue == []
    assert engine.phase_index == 2
    assert engine.stage == 1
    assert engine.last_phase_records == (rec,)


def test_queue_at_cap_forces_immediate_fill():
    engine = make_engine(tau=50, gamma=40, queue_cap=1, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9925) == ENQUEUE
    # eligible again, but the queue is full: executed without delay
    action = engine.on_base_fill(next_id + 1, SELL, 1, 11, 9920, 9920)
    assert action == FORCED
    assert len(engine.queue) == 1


def test_bernoulli_zero_never_delays():
    engine = make_engine(delay=False, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9900, 9900) == MIRROR
    assert engine.queue == []


def test_not_eligible_mirrors():
    engine = make_engine(tau=50, stage1=2)
    next_id = seed_stage1(engine, 10000)
    # within tolerance: s*(C-P) = 25 < 50
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9975, 9975) == MIRROR


def test_min_distance_filter_spacing():
    engine = make_engine(tau=50, gamma=40, min_distance=10, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9925) == ENQUEUE
    # 5 ticks below the queued sell: too close
    assert engine.on_base_fill(next_id + 1, SELL, 1, 11, 9920, 9920) == FORCED
    # 15 ticks below: spaced enough
    assert engine.on_base_fill(next_id + 2, SELL, 1, 12, 9910, 9910) == ENQUEUE
    assert len(engine.queue) == 2


def test_min_distance_zero_disables_filter():
    engine = make_engine(tau=50, gamma=40, min_distance=0, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9925) == ENQUEUE
    assert engine.on_base_fill(next_id + 1, SELL, 1, 11, 9925, 9925) == ENQUEUE


def test_grid_reachability_guard_blocks_unreachable_gain():
    # cloud near the top of the grid: a sell's gain level would sit
    # outside, so the delay is refused
    engine = make_engine(tau=10, gamma=40, stage1=2, grid=(0, 110))
    seed_stage1(engine, 95, start_id=1)
    action = engine.on_base_fill(3, SELL, 1, 10, 80, 80)
    assert action == FORCED
    assert engine.queue == []


@pytest.mark.parametrize("sign,cloud,price,action", [
    (SELL, 69, 58, ENQUEUE),   # level 69 + 40 + 1 = 110, the grid maximum
    (SELL, 70, 59, FORCED),    # level 111 lies above the grid
    (BUY, 41, 52, ENQUEUE),    # level 41 - 40 - 1 = 0, the grid minimum
    (BUY, 40, 51, FORCED),     # level -1 lies below the grid
])
def test_grid_reachability_guard_boundary(sign, cloud, price, action):
    engine = make_engine(tau=10, gamma=40, stage1=2, grid=(0, 110))
    seed_stage1(engine, cloud)
    assert engine.on_base_fill(3, sign, 1, 10, price, price) == action


def test_release_scan_is_fifo_and_multiple_per_tick():
    engine = make_engine(tau=50, gamma=40, stage1=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 2, 10, 9925, 9925) == ENQUEUE
    assert engine.on_base_fill(next_id + 1, SELL, 1, 11, 9940, 9940) == ENQUEUE
    records, ended = engine.on_tick(50, 10100)
    assert [r.order_id for r in records] == [next_id, next_id + 1]
    assert ended
    assert engine.q_delayed_total == 3


def test_phase_requires_a_delay_before_ending():
    engine = make_engine(stage1=1)
    engine.on_base_fill(1, SELL, 1, 0, 10000, 10000)
    # queue is empty but nothing was delayed: no phase end
    for t in range(1, 100):
        records, ended = engine.on_tick(t, 10000 + t % 3)
        assert not ended
    assert engine.phase_index == 1


def test_stranded_backstop_raises_with_entries():
    engine = make_engine(tau=50, gamma=40, stage1=2, max_phase_ticks=100)
    next_id = seed_stage1(engine, 10000)
    engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9925)
    with pytest.raises(StrandedOrderError) as err:
        engine.on_tick(200, 9900)
    assert err.value.entries[0].order_id == next_id
    assert f"order {next_id}" in str(err.value)


def test_backstop_bounds_the_age_of_the_oldest_queued_order():
    engine = make_engine(tau=50, gamma=40, stage1=2, max_phase_ticks=100)
    next_id = seed_stage1(engine, 10000)
    # a long phase with an empty queue strands nothing
    assert engine.on_tick(5000, 10000) == ([], False)
    engine.on_base_fill(next_id, SELL, 1, 5000, 9925, 9925)
    engine.on_base_fill(next_id + 1, SELL, 1, 5050, 9920, 9920)
    assert engine.backstop_deadline() == 5101
    assert engine.on_tick(5100, 9900) == ([], False)
    with pytest.raises(StrandedOrderError) as err:
        engine.on_tick(5101, 9900)
    assert [e.order_id for e in err.value.entries] == [next_id, next_id + 1]


def test_half_spread_applies_to_release_fills():
    engine = make_engine(tau=50, gamma=40, stage1=2, half_spread=2)
    next_id = seed_stage1(engine, 10000)
    assert engine.on_base_fill(next_id, SELL, 1, 10, 9925, 9923) == ENQUEUE
    records, _ = engine.on_tick(30, 10050)
    assert records[0].execution_price == 10048  # sell fills at P - spread
    assert records[0].gap == 125                # spread cancels in the gap


def test_params_validation():
    with pytest.raises(ValueError):
        DominanceParams(tau=0)
    for p in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match=r"delay_probability must be in \[0, 1\]"):
            DominanceParams(delay_probability=p)
    DominanceParams(delay_probability=Fraction(0))     # delays off
    with pytest.raises(ValueError):
        DominanceParams(tau=500, gamma=500).validate_for_grid(9000, 11000)
    DominanceParams(tau=499, gamma=500).validate_for_grid(9000, 11000)


def test_queue_discipline_over_random_driving():
    # random walk + random fills; the queue never exceeds its cap and is
    # always empty during Stage 1, whatever the engine is fed
    import random as _random
    rnd = _random.Random(1234)
    for trial in range(5):
        cap = rnd.choice([1, 2, 3])
        engine = make_engine(tau=8, gamma=8, queue_cap=cap, stage1=3,
                             grid=(9900, 10100))
        engine.delay_draw = lambda: rnd.random() < 0.7
        price = 10000
        order_id = 0
        for t in range(1, 8000):
            if rnd.random() < 0.5:
                price = min(10100, max(9900, price + rnd.choice([-1, 1])))
            if rnd.random() < 0.1:
                order_id += 1
                sign = rnd.choice([SELL, BUY])
                engine.on_base_fill(order_id, sign, rnd.randint(1, 3), t,
                                    price, price)
                assert len(engine.queue) <= cap
            engine.on_tick(t, price)
            assert len(engine.queue) <= cap
            if engine.stage == 1:
                assert engine.queue == []
        for rec in engine.records:
            assert rec.gap > 16
        assert engine.phase_index >= 2  # phases completed under heavy delay


# -- phase_clause_failures and phase_pnl_diff_check ----------------------------------


# (diff, derived diffs, Q_D, n_delayed, recorded bound, previous diff) with
# multiplier 1 and gamma + tau = 90, and the clauses each phase end fails.
@pytest.mark.parametrize("args,failed", [
    ((250, (250, 250), 2, 1, 180, 0), []),
    ((250, (250, 249), 2, 1, 180, 0), [CLAUSE_PHASE_IDENTITY]),
    ((250, (250,), 2, 1, 181, 0), [CLAUSE_LOWER_BOUND]),
    ((179, (179,), 2, 1, 180, 0), [CLAUSE_LOWER_BOUND]),
    # with Q_D >= 1 the bound is positive, so positivity never fails alone
    ((0, (0,), 1, 1, 90, -1), [CLAUSE_LOWER_BOUND, CLAUSE_POSITIVITY]),
    ((0, (0,), 0, 0, 0, 0), []),
    ((250, (250,), 2, 1, 180, 250), [CLAUSE_MONOTONICITY]),
    ((250, (250,), 2, 0, 180, 250), []),
    ((250, (250,), 2, 0, 180, 251), [CLAUSE_MONOTONICITY]),
], ids=["passes", "identity", "wrong_recorded_bound", "unmet_bound",
        "positivity", "no_delay", "strict_monotonicity", "flat_without_delay",
        "non_strict_monotonicity"])
def test_phase_clause_failures(args, failed):
    params = DominanceParams(tau=50, gamma=40)
    diff, derived, q_delayed, n_delayed, bound, previous = args
    assert phase_clause_failures(diff, derived, q_delayed, n_delayed, bound,
                                 previous, 1, params) == failed


def _delayed_record(order_id, sign, qty, p_delay, p_exec, t_delay=10, t_exec=30):
    # delayed under a gravity center of 10000, with gamma 40
    return DelayedOrderRecord(
        order_id=order_id, sign=sign, quantity=qty, delay_time=t_delay,
        base_fill_price=p_delay, delay_grid_price=p_delay, gravity_num=10000,
        gravity_den=1, delta_T_at_delay=Fraction(-1),
        frozen_trigger=release_level(sign, 10000, 1, 40), execution_time=t_exec,
        execution_price=p_exec, delta_G_at_execution=Fraction(1))


def test_phase_check_single_delayed_sell():
    # one delayed sell of 2 lots moved from 9925 to 10050: diff 250 >= 180
    params = DominanceParams(tau=50, gamma=40, stage1_fill_count=1)
    shared = [Order(1, 1, SELL, 10010, 1), Order(2, 2, BUY, 10010, 1)]
    orders_s = shared + [Order(3, 10, SELL, 9925, 2)]
    orders_star = shared + [Order(3, 30, SELL, 10050, 2)]
    rec = _delayed_record(3, SELL, 2, 9925, 10050)
    report = PhaseReport(phase_index=1, end_time=30, delayed_quantity=2,
                         pnl_diff=250, lower_bound=180, records=(rec,))
    failures = phase_pnl_diff_check(report, 0, [rec], orders_s, orders_star,
                                    10040, INST, params)
    assert failures == []


def test_phase_check_zero_delay_phase_keeps_diff():
    params = DominanceParams(tau=50, gamma=40)
    shared = [Order(1, 1, SELL, 10010, 1)]
    report = PhaseReport(phase_index=1, end_time=30, delayed_quantity=0,
                         pnl_diff=0, lower_bound=0, records=())
    failures = phase_pnl_diff_check(report, 0, [], shared, shared,
                                    10040, INST, params)
    assert failures == []


def test_phase_check_flags_identity_violation():
    params = DominanceParams(tau=50, gamma=40)
    shared = [Order(1, 1, SELL, 10010, 1)]
    orders_s = shared + [Order(2, 10, SELL, 9925, 2)]
    orders_star = shared + [Order(2, 30, SELL, 10050, 2)]
    rec = _delayed_record(2, SELL, 2, 9925, 10050)
    report = PhaseReport(phase_index=1, end_time=30, delayed_quantity=2,
                         pnl_diff=999, lower_bound=180, records=(rec,))
    failures = phase_pnl_diff_check(report, 0, [rec], orders_s, orders_star,
                                    10040, INST, params)
    assert CLAUSE_PHASE_IDENTITY in failures


def test_phase_check_flags_bound_and_monotonicity():
    params = DominanceParams(tau=50, gamma=40)
    shared = [Order(1, 1, SELL, 10010, 1)]
    # delayed order with a gap of only 30 ticks: below gamma + tau
    orders_s = shared + [Order(2, 10, SELL, 9925, 2)]
    orders_star = shared + [Order(2, 30, SELL, 9955, 2)]
    rec = _delayed_record(2, SELL, 2, 9925, 9955)
    report = PhaseReport(phase_index=1, end_time=30, delayed_quantity=2,
                         pnl_diff=60, lower_bound=180, records=(rec,))
    failures = phase_pnl_diff_check(report, 100, [rec], orders_s, orders_star,
                                    10040, INST, params)
    assert CLAUSE_LOWER_BOUND in failures
    assert CLAUSE_MONOTONICITY in failures
