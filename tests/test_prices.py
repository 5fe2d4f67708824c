from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import cli
from edgesim.prices import (ABOVE, BELOW, MEAN_REVERTING_WALK,
                            REFLECTING_WALK, STREAM_PRICE, PriceProcessConfig,
                            PricePathState, estimate_hitting_time, next_price,
                            substream, walk_block)


def start_state(config, seed):
    return PricePathState(config.start_price, 0, substream(seed, STREAM_PRICE))


def scalar_path(config, rng, n):
    state = PricePathState(config.start_price, 0, rng)
    out = []
    for _ in range(n):
        state = next_price(state, config)
        out.append(state.current_price)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        PriceProcessConfig(kind="levy_flight")
    with pytest.raises(ValueError):
        PriceProcessConfig(start_price=8000)
    with pytest.raises(ValueError):
        PriceProcessConfig(stay_probability=Fraction(1))
    with pytest.raises(ValueError):
        PriceProcessConfig(reversion_strength=Fraction(3, 2))


def test_reflection_at_grid_max_is_forced_inward():
    # from the top edge with stay 0, both step directions land one tick in
    config = PriceProcessConfig(grid_min=0, grid_max=2, start_price=2,
                                stay_probability=Fraction(0))
    state = start_state(config, 0)
    for _ in range(50):
        prev = state.current_price
        state = next_price(state, config)
        assert 0 <= state.current_price <= 2
        if prev == 2:
            assert state.current_price == 1
        if prev == 0:
            assert state.current_price == 1


def test_zero_stay_always_moves_one_tick():
    config = PriceProcessConfig(stay_probability=Fraction(0))
    state = start_state(config, 3)
    for _ in range(1000):
        prev = state.current_price
        state = next_price(state, config)
        assert abs(state.current_price - prev) == 1


def test_determinism_same_seed_same_path():
    config = PriceProcessConfig()
    a = scalar_path(config, start_state(config, 77).rng, 2000)
    b = scalar_path(config, start_state(config, 77).rng, 2000)
    assert a == b


def test_generator_bulk_draws_match_scalar_draws():
    # the block engine relies on random(n) consuming the stream exactly
    # like n scalar random() calls
    a = substream(5, 0)
    b = substream(5, 0)
    bulk = a.random(100)
    one_by_one = [b.random() for _ in range(100)]
    assert bulk.tolist() == one_by_one


@pytest.mark.parametrize("kind,stay", [
    (REFLECTING_WALK, Fraction(1, 2)),
    (REFLECTING_WALK, Fraction(0)),
    (MEAN_REVERTING_WALK, Fraction(1, 4)),
])
def test_walk_block_matches_scalar_path(kind, stay):
    config = PriceProcessConfig(kind=kind, stay_probability=stay,
                                reversion_strength=Fraction(1, 4))
    expected = scalar_path(config, substream(42, 0), 5000)
    got = walk_block(config.start_price, substream(42, 0), 5000, config)
    assert got.tolist() == expected


def test_walk_block_matches_scalar_path_with_many_reflections():
    # narrow grid so the boundary fallback is exercised constantly
    config = PriceProcessConfig(grid_min=100, grid_max=110, start_price=105,
                                stay_probability=Fraction(1, 4))
    expected = scalar_path(config, substream(9, 0), 4000)
    got = walk_block(config.start_price, substream(9, 0), 4000, config)
    assert got.tolist() == expected


def test_walk_block_chunks_compose():
    config = PriceProcessConfig()
    whole = walk_block(config.start_price, substream(8, 0), 3000, config)
    rng = substream(8, 0)
    first = walk_block(config.start_price, rng, 1700, config)
    second = walk_block(int(first[-1]), rng, 1300, config)
    assert whole.tolist() == first.tolist() + second.tolist()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=5, max_value=50),
       st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(9, 10)]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_grid_containment_under_fuzzed_configs(gmin, width, stay, seed):
    config = PriceProcessConfig(grid_min=gmin, grid_max=gmin + width,
                                start_price=gmin + width // 2,
                                stay_probability=stay)
    path = walk_block(config.start_price, substream(seed, 0), 3000, config)
    assert path.min() >= gmin
    assert path.max() <= gmin + width


def test_mean_reverting_mean_near_center():
    # batch-means Monte Carlo oracle for the stationary mean
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=0,
                                grid_max=200, start_price=100,
                                stay_probability=Fraction(0),
                                reversion_strength=Fraction(1, 2))
    path = walk_block(config.start_price, substream(21, 0), 1_000_000, config)
    batches = path.reshape(100, -1).mean(axis=1)
    se = batches.std(ddof=1) / np.sqrt(len(batches))
    assert abs(path.mean() - 100) <= 3 * se + 0.5


# -- hitting times ---------------------------------------------------------------

def test_hitting_time_is_at_least_one():
    config = PriceProcessConfig(grid_min=0, grid_max=100, start_price=50,
                                stay_probability=Fraction(0))
    s = estimate_hitting_time(config, 50, 1, ABOVE, samples=200, cap=100000,
                              master_seed=4)
    assert s.count_finite == 200
    assert s.mean >= 1.0
    assert s.max >= 1


def test_hitting_time_rejects_threshold_at_grid_edge():
    config = PriceProcessConfig(grid_min=0, grid_max=100, start_price=50)
    with pytest.raises(ValueError):
        estimate_hitting_time(config, 50, 50, ABOVE, samples=10, cap=1000)
    with pytest.raises(ValueError):
        estimate_hitting_time(config, 50, 50, BELOW, samples=10, cap=1000)


def test_hitting_time_finite_on_narrow_grid_both_directions():
    config = PriceProcessConfig(grid_min=0, grid_max=80, start_price=40,
                                stay_probability=Fraction(1, 2))
    for direction in (ABOVE, BELOW):
        s = estimate_hitting_time(config, 40, 10, direction,
                                  samples=500, cap=200000, master_seed=6)
        assert s.count_finite == 500
        assert 0 < s.mean <= s.max <= 200000


def test_hitting_time_folded_sampler_matches_direct_chain():
    # law check: folded free-walk exit times vs literal next_price stepping
    config = PriceProcessConfig(grid_min=0, grid_max=60, start_price=30,
                                stay_probability=Fraction(0))
    xi, cap, n = 8, 50000, 4000
    direct = []
    root = np.random.SeedSequence(entropy=123, spawn_key=(9,))
    for child in root.spawn(n):
        state = PricePathState(30, 0, np.random.default_rng(child))
        t = 0
        while True:
            state = next_price(state, config)
            t += 1
            if state.current_price > 30 + xi:
                direct.append(t)
                break
    direct = np.asarray(direct, dtype=float)
    s = estimate_hitting_time(config, 30, xi, ABOVE, samples=n, cap=cap,
                              master_seed=321)
    assert s.count_finite == n
    se = float(np.sqrt(direct.var() / n * 2))
    assert abs(direct.mean() - s.mean) <= 5 * se


def test_hitting_time_mean_reverting_lockstep():
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=0,
                                grid_max=100, start_price=50,
                                stay_probability=Fraction(0),
                                reversion_strength=Fraction(1, 4))
    s = estimate_hitting_time(config, 50, 10, ABOVE, samples=300, cap=500000,
                              master_seed=31)
    assert s.count_finite == 300


def test_hitting_time_determinism():
    config = PriceProcessConfig(stay_probability=Fraction(0))
    a = estimate_hitting_time(config, 10000, 20, ABOVE, samples=100, cap=10**6,
                              master_seed=40)
    b = estimate_hitting_time(config, 10000, 20, ABOVE, samples=100, cap=10**6,
                              master_seed=40)
    assert a == b


def exit_time_moments(config, start, target):
    """Exact mean and variance of the first time the walk, reflected at
    grid_min, reaches target > start.

    Folding at grid_min turns it into a free walk leaving (-a, a) from x
    (a = target - grid_min, x = start - grid_min), that is a simple walk on
    (0, L) from k with L = 2a, k = x + a: its move count has mean k(L - k)
    and variance k(L - k)((L - k)^2 + k^2 - 2)/3 (gambler's ruin; Feller,
    vol. 1, XIV.3), and each move waits a Geometric(1 - stay) number of
    ticks."""
    s = Fraction(config.stay_probability)
    a, x = target - config.grid_min, start - config.grid_min
    length, k = 2 * a, x + a
    moves = Fraction(k * (length - k))
    moves_var = Fraction(k * (length - k) * ((length - k) ** 2 + k ** 2 - 2), 3)
    wait, wait_var = 1 / (1 - s), s / (1 - s) ** 2
    return moves * wait, moves * wait_var + moves_var * wait ** 2


@pytest.mark.parametrize("stay", [Fraction(0), Fraction(1, 2)])
def test_hitting_time_mean_matches_gamblers_ruin(stay):
    config = PriceProcessConfig(grid_min=0, grid_max=30, start_price=12,
                                stay_probability=stay)
    xi, samples = 5, 2000
    s = estimate_hitting_time(config, 12, xi, ABOVE, samples=samples,
                              cap=10**6, master_seed=2024)
    mean, var = exit_time_moments(config, 12, 12 + xi + 1)
    assert s.count_finite == samples
    assert abs(s.mean - float(mean)) <= 4 * float(var / samples) ** 0.5


def test_recurrence_cli_defaults_to_the_run_master_seed(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("instrument:\n  grid_min: 0\n  grid_max: 60\n"
                    "price:\n  start_price: 30\n"
                    "dominance:\n  tau: 5\n  gamma: 5\n"
                    "run:\n  master_seed: 5\n")
    outputs = []
    for extra in ([], ["--seed", "5"], ["--seed", "0"]):
        assert cli.main(["recurrence", str(path), "--xi", "4",
                         "--samples", "50", *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]
