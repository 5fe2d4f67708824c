from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import cli
from edgesim.prices import (_SPECULATION_WINDOW, ABOVE, BELOW,
                            MEAN_REVERTING_WALK, REFLECTING_WALK,
                            STREAM_HITTING, STREAM_PRICE, PriceProcessConfig,
                            PricePathState, _up_probability,
                            estimate_hitting_time, next_price, substream,
                            up_thresholds, walk_block)


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
    with pytest.raises(ValueError):
        PriceProcessConfig(reversion_strength=0.5)


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
    # both pieces are longer than one mean-reverting speculation window
    for config in (PriceProcessConfig(),
                   PriceProcessConfig(kind=MEAN_REVERTING_WALK,
                                      reversion_strength=Fraction(1, 2))):
        whole = walk_block(config.start_price, substream(8, 0), 5000, config)
        rng = substream(8, 0)
        first = walk_block(config.start_price, rng, 2900, config)
        second = walk_block(int(first[-1]), rng, 2100, config)
        assert whole.tolist() == first.tolist() + second.tolist()


@pytest.mark.parametrize("stay", [Fraction(0), Fraction(1, 3), Fraction(1, 2)])
@pytest.mark.parametrize("strength", [Fraction(0), Fraction(1, 3),
                                      Fraction(2, 7), Fraction(1)])
def test_up_thresholds_are_the_scalar_float_law(stay, strength):
    for gmin, gmax in ((0, 7), (9000, 11000)):
        config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=gmin,
                                    grid_max=gmax, start_price=gmin,
                                    stay_probability=stay,
                                    reversion_strength=strength)
        grid = range(gmin, gmax + 1)
        center = Fraction(gmin + gmax, 2)
        p_up = [_up_probability(config, p) for p in grid]
        # the documented law, in exact rationals rounded once
        tilts = [float(strength * (center - p) / (gmax - gmin)) for p in grid]
        assert p_up == [min(1.0, max(0.0, 0.5 + t)) for t in tilts]
        s = float(stay)
        assert up_thresholds(config).tolist() == [s + (1.0 - s) * q
                                                  for q in p_up]


@st.composite
def mean_reverting_walks(draw):
    """Narrow grids and the default one, starts at and next to both edges
    and at the center, strengths up to 1 (p_up clamped at the edges)."""
    if draw(st.booleans()):
        gmin, gmax = 9000, 11000
    else:
        gmin = draw(st.integers(0, 100))
        gmax = gmin + draw(st.integers(5, 60))
    start = draw(st.sampled_from(
        [gmin, gmin + 1, gmax - 1, gmax, (gmin + gmax) // 2]))
    return PriceProcessConfig(
        kind=MEAN_REVERTING_WALK, grid_min=gmin, grid_max=gmax,
        start_price=start,
        stay_probability=draw(st.sampled_from(
            [Fraction(0), Fraction(1, 3), Fraction(1, 2)])),
        reversion_strength=draw(st.sampled_from(
            [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mean_reverting_walks(),
       st.one_of(st.integers(1, 3 * _SPECULATION_WINDOW + 100),
                 st.sampled_from([_SPECULATION_WINDOW, _SPECULATION_WINDOW + 1,
                                  3 * _SPECULATION_WINDOW + 100])),
       st.integers(0, 2 ** 32 - 1))
def test_mean_reverting_walk_block_is_the_scalar_path(config, n, seed):
    expected = scalar_path(config, substream(seed, STREAM_PRICE), n)
    got = walk_block(config.start_price, substream(seed, STREAM_PRICE), n,
                     config)
    assert got.tolist() == expected


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


def test_mean_reverting_hitting_time_steps_the_scalar_law():
    # one sample draws one uniform per step from the hitting substream,
    # so its passage time is that of literal next_price steps
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=0,
                                grid_max=40, start_price=20,
                                stay_probability=Fraction(1, 3),
                                reversion_strength=Fraction(1, 3))
    for seed in range(5):
        state = PricePathState(20, 0, substream(seed, STREAM_HITTING))
        while state.current_price <= 26:
            state = next_price(state, config)
        s = estimate_hitting_time(config, 20, 6, ABOVE, samples=1,
                                  cap=10**6, master_seed=seed)
        assert s.count_finite == 1 and s.max == state.time


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
