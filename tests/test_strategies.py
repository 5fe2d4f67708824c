from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from edgesim.harness import default_config, run_simulation
from edgesim.market import BUY, SELL
from edgesim.strategies import (BERNOULLI_TRADER, PERIODIC_ALTERNATOR,
                                BaselineConfig, baseline_on_tick,
                                baseline_streams, intent_block)


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(kind="momentum_chaser")
    with pytest.raises(ValueError):
        BaselineConfig(order_probability=Fraction(0))
    with pytest.raises(ValueError):
        BaselineConfig(kind=PERIODIC_ALTERNATOR, period=0)
    with pytest.raises(ValueError):
        BaselineConfig(quantity=0)


def test_alternator_schedule():
    cfg = BaselineConfig(kind=PERIODIC_ALTERNATOR, period=10, quantity=2)
    streams = baseline_streams(0)
    assert baseline_on_tick(cfg, 0, streams) is None
    assert baseline_on_tick(cfg, 10, streams) == BUY
    assert baseline_on_tick(cfg, 15, streams) is None
    assert baseline_on_tick(cfg, 20, streams) == SELL
    assert baseline_on_tick(cfg, 30, streams) == BUY
    # each intent fills at the next tick for the configured quantity
    run_cfg = replace(default_config(total_ticks=45, target_phases=None,
                                     keep_orders=True), strategy=cfg)
    rep = run_simulation(run_cfg, engine="scalar")
    assert [(o.time, o.sign, o.quantity) for o in rep.orders_s] == [
        (11, BUY, 2), (21, SELL, 2), (31, BUY, 2), (41, SELL, 2)]


def test_bernoulli_probability_one_fires_every_tick():
    cfg = BaselineConfig(kind=BERNOULLI_TRADER, order_probability=Fraction(1))
    streams = baseline_streams(1)
    for t in range(200):
        assert baseline_on_tick(cfg, t, streams) in (BUY, SELL)


def test_bernoulli_rate_matches_probability():
    # one million ticks; binomial standard error
    cfg = BaselineConfig(kind=BERNOULLI_TRADER,
                         order_probability=Fraction(1, 50))
    n = 1_000_000
    offsets, _ = intent_block(cfg, 1, n, baseline_streams(17))
    p = 1 / 50
    se = (p * (1 - p) * n) ** 0.5
    assert abs(len(offsets) - p * n) <= 4 * se


@pytest.mark.parametrize("kind", [BERNOULLI_TRADER, PERIODIC_ALTERNATOR])
def test_intent_block_matches_scalar(kind):
    cfg = BaselineConfig(kind=kind, order_probability=Fraction(1, 7),
                         period=13)
    scalar = []
    streams = baseline_streams(23)
    for t in range(1, 5001):
        sign = baseline_on_tick(cfg, t, streams)
        if sign is not None:
            scalar.append((t, sign))
    offsets, signs = intent_block(cfg, 1, 5000, baseline_streams(23))
    blocked = [(int(off) + 1, int(sign)) for off, sign in zip(offsets, signs)]
    assert blocked == scalar


def test_intent_blocks_compose():
    cfg = BaselineConfig(kind=BERNOULLI_TRADER, order_probability=Fraction(1, 9))
    whole_off, whole_signs = intent_block(cfg, 1, 4000, baseline_streams(31))
    streams = baseline_streams(31)
    a_off, a_signs = intent_block(cfg, 1, 2500, streams)
    b_off, b_signs = intent_block(cfg, 2501, 1500, streams)
    stitched = [int(x) for x in a_off] + [int(x) + 2500 for x in b_off]
    assert stitched == [int(x) for x in whole_off]
    assert np.array_equal(np.concatenate((a_signs, b_signs)), whole_signs)


def test_hti_blindness_replay():
    # the baseline's fills are bit-identical whether or not the overlay
    # delays anything: its streams never see the overlay's behavior
    base = dict(total_ticks=40_000, target_phases=None, master_seed=55,
                keep_orders=True, record_ticks=False)
    with_overlay = run_simulation(default_config(**base))
    cfg = default_config(**base)
    without = run_simulation(replace(cfg, dominance=replace(cfg.dominance,
                                                            delay_probability=0)))
    assert with_overlay.orders_s == without.orders_s
    assert len(with_overlay.orders_s) > 0
