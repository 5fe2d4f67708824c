from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import cli, prices
from edgesim.prices import (_MAX_BLOCK_RESTARTS, _SPECULATION_WINDOW, ABOVE,
                            BELOW, MEAN_REVERTING_WALK, REFLECTING_WALK,
                            STREAM_HITTING, STREAM_PRICE, HittingTimeSummary,
                            PriceProcessConfig,
                            _reflect, _steps, _up_probability,
                            estimate_hitting_time, next_price, substream,
                            up_thresholds, walk_block)


def scalar_path(config, rng, n):
    price = config.start_price
    out = []
    for _ in range(n):
        price = next_price(price, rng, config)
        out.append(price)
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
    rng, price = substream(0, STREAM_PRICE), config.start_price
    for _ in range(50):
        prev, price = price, next_price(price, rng, config)
        assert 0 <= price <= 2
        if prev == 2:
            assert price == 1
        if prev == 0:
            assert price == 1


def test_zero_stay_always_moves_one_tick():
    config = PriceProcessConfig(stay_probability=Fraction(0))
    rng, price = substream(3, STREAM_PRICE), config.start_price
    for _ in range(1000):
        prev, price = price, next_price(price, rng, config)
        assert abs(price - prev) == 1


def test_determinism_same_seed_same_path():
    config = PriceProcessConfig()
    a = scalar_path(config, substream(77, STREAM_PRICE), 2000)
    b = scalar_path(config, substream(77, STREAM_PRICE), 2000)
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


class FixedUniform:
    """Stands in for a generator whose next uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("stay", [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                  Fraction(9, 10)])
def test_step_kernel_is_the_scalar_move_at_the_boundaries(stay):
    # strength 1 on grid 0..4: p_up is 1 at price 0 (thr == 1.0) and 0 at
    # price 4 (thr == stay); the reflecting walk's thr is the midpoint
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=0,
                                grid_max=4, start_price=2,
                                stay_probability=stay,
                                reversion_strength=Fraction(1))
    s = float(stay)
    thr = up_thresholds(config)
    assert thr[0] == 1.0 and thr[4] == s
    cases = [(p, float(thr[p]), config) for p in range(5)]
    cases.append((2, s + (1.0 - s) * 0.5, PriceProcessConfig(
        grid_min=0, grid_max=4, start_price=2, stay_probability=stay)))
    for p, t, cfg in cases:
        # u at, just below and just above stay and thr
        us = sorted({x for v in (s, t)
                     for x in (v, np.nextafter(v, 0.0), np.nextafter(v, 1.0))
                     if 0.0 <= x < 1.0} | {0.0})
        law = [0 if x < s else 1 if x < t else -1 for x in us]
        u = np.array(us)
        assert _steps(u, s, t).tolist() == law
        assert _steps(u, s, np.full(len(u), t)).tolist() == law
        scalar = [next_price(p, FixedUniform(x), cfg) for x in us]
        assert scalar == [_reflect(p + m, 0, 4) for m in law]


@st.composite
def reflecting_walks(draw):
    """Widths 1 to 3,000, narrow ones often, starting at or next to either
    edge."""
    gmin = draw(st.integers(0, 100))
    gmax = gmin + draw(st.one_of(st.integers(1, 5), st.integers(1, 3000)))
    return PriceProcessConfig(
        grid_min=gmin, grid_max=gmax,
        start_price=draw(st.sampled_from([gmin, gmin + 1, gmax - 1, gmax])),
        stay_probability=draw(st.sampled_from(
            [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(reflecting_walks(),
       st.one_of(st.integers(1, 20_000), st.just(20_000)),
       st.integers(0, 2 ** 32 - 1))
def test_reflecting_walk_block_is_the_scalar_path(config, n, seed):
    expected = scalar_path(config, substream(seed, STREAM_PRICE), n)
    got = walk_block(config.start_price, substream(seed, STREAM_PRICE), n,
                     config)
    assert got.tolist() == expected


def count_reflect_calls(monkeypatch):
    calls = []

    def counted(price, grid_min, grid_max):
        calls.append(price)
        return _reflect(price, grid_min, grid_max)
    monkeypatch.setattr(prices, "_reflect", counted)
    return calls


def test_walk_block_does_not_step_at_a_wide_grid_edge(monkeypatch):
    # the reflection identity covers the edge; per-tick stepping there
    # would make thousands of _reflect calls
    config = PriceProcessConfig(start_price=11000)
    expected = scalar_path(config, substream(3, STREAM_PRICE), 8192)
    calls = count_reflect_calls(monkeypatch)
    got = walk_block(config.start_price, substream(3, STREAM_PRICE), 8192,
                     config)
    assert got.tolist() == expected
    assert expected.count(11000) > 10
    assert len(calls) <= _MAX_BLOCK_RESTARTS


def test_one_tick_grid_finishes_the_block_step_by_step(monkeypatch):
    config = PriceProcessConfig(grid_min=5, grid_max=6, start_price=5,
                                stay_probability=Fraction(1, 3))
    expected = scalar_path(config, substream(4, STREAM_PRICE), 20_000)
    calls = count_reflect_calls(monkeypatch)
    got = walk_block(config.start_price, substream(4, STREAM_PRICE), 20_000,
                     config)
    assert got.tolist() == expected
    assert calls


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
    # law check: folded free-walk exit times vs the reflected chain itself,
    # stepped in walk_block blocks (path-identical to next_price steps)
    config = PriceProcessConfig(grid_min=0, grid_max=60, start_price=30,
                                stay_probability=Fraction(0))
    xi, cap, n = 8, 50000, 4000
    direct = []
    root = np.random.SeedSequence(entropy=123, spawn_key=(9,))
    for child in root.spawn(n):
        rng, price, t = np.random.default_rng(child), 30, 0
        while True:
            path = walk_block(price, rng, 1024, config)
            hit = np.flatnonzero(path > 30 + xi)
            if hit.size:
                direct.append(t + int(hit[0]) + 1)
                break
            price, t = int(path[-1]), t + len(path)
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
    # sample w steps the w-th child of the hitting sequence one uniform per
    # tick, so its passage time is that of literal next_price steps; the
    # last case has passages longer than the first block
    samples, seed = 12, 7
    for (gmin, gmax), start, xi, direction in [
            ((0, 40), 20, 6, ABOVE), ((0, 40), 20, 6, BELOW),
            ((0, 200), 100, 25, ABOVE)]:
        config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=gmin,
                                    grid_max=gmax, start_price=start,
                                    stay_probability=Fraction(1, 3),
                                    reversion_strength=Fraction(1, 3))
        sign = 1 if direction == ABOVE else -1
        root = np.random.SeedSequence(seed, spawn_key=(STREAM_HITTING,))
        times = []
        for child in root.spawn(samples):
            rng, price, t = np.random.default_rng(child), start, 0
            while sign * (price - start) <= xi:
                price = next_price(price, rng, config)
                t += 1
            times.append(t)
        s = estimate_hitting_time(config, start, xi, direction,
                                  samples=samples, cap=10**6, master_seed=seed)
        assert s == HittingTimeSummary(samples, 10**6, samples,
                                       float(np.mean(times)), max(times))
    assert max(times) > 256


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


def mean_reverting_passage_moments(config, start, target):
    """Exact mean and variance of the first time the mean-reverting walk,
    reflected at grid_min, reaches target > start, from the rational law.

    It is a birth-death chain: from x it moves up with p_x = (1 - stay) *
    p_up(x), down with q_x = (1 - stay) * (1 - p_up(x)), and at grid_min every
    move goes up.  The time T_x from x to x + 1 has mean and second moment
    m_x = (1 + q_x m_{x-1}) / p_x and
    v_x = (1 + 2 stay m_x + 2 q_x (m_{x-1} + m_x) + q_x (v_{x-1} +
    2 m_{x-1} m_x)) / p_x (first-step analysis; Karlin & Taylor, A First
    Course in Stochastic Processes, ch. 4), and the passage is the sum of
    the independent T_x for start <= x < target."""
    s = Fraction(config.stay_probability)
    gmin, gmax = config.grid_min, config.grid_max
    m = v = mean = var = Fraction(0)
    for x in range(gmin, target):
        tilt = config.reversion_strength * Fraction(gmin + gmax - 2 * x,
                                                    2 * (gmax - gmin))
        up = 1 if x == gmin else min(1, max(0, Fraction(1, 2) + tilt))
        p, q = (1 - s) * up, (1 - s) * (1 - up)
        m_prev, v_prev = m, v
        m = (1 + q * m_prev) / p
        v = (1 + 2 * s * m + 2 * q * (m_prev + m)
             + q * (v_prev + 2 * m_prev * m)) / p
        if x >= start:
            mean, var = mean + m, var + v - m * m
    return mean, var


@pytest.mark.parametrize("grid,start,xi,stay,strength", [
    ((0, 20), 0, 6, Fraction(1, 3), Fraction(1, 4)),
    ((0, 30), 2, 8, Fraction(1, 2), Fraction(1, 2)),
    ((0, 40), 20, 6, Fraction(1, 3), Fraction(1, 3)),
    ((9000, 11000), 9000, 30, Fraction(0), Fraction(1, 2)),
    ((9000, 11000), 10000, 10, Fraction(1, 2), Fraction(1, 2)),
])
def test_mean_reverting_hitting_time_matches_the_birth_death_chain(
        grid, start, xi, stay, strength):
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=grid[0],
                                grid_max=grid[1], start_price=start,
                                stay_probability=stay,
                                reversion_strength=strength)
    samples = 2000
    s = estimate_hitting_time(config, start, xi, ABOVE, samples=samples,
                              cap=10**7, master_seed=2025)
    mean, var = mean_reverting_passage_moments(config, start, start + xi + 1)
    assert s.count_finite == samples
    assert abs(s.mean - float(mean)) <= 4 * float(var / samples) ** 0.5


@pytest.mark.parametrize("grid,start,xi", [((0, 30), 2, 8),
                                            ((9000, 11000), 9000, 30)])
def test_mean_reverting_walk_block_passage_matches_the_birth_death_chain(
        grid, start, xi):
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=grid[0],
                                grid_max=grid[1], start_price=start,
                                stay_probability=Fraction(1, 3),
                                reversion_strength=Fraction(1, 4))
    samples, target = 1000, start + xi + 1
    times = []  # every one of these paths passes within its 1,500 ticks
    for seed in range(samples):
        path = walk_block(start, substream(seed, STREAM_PRICE), 1500, config)
        times.append(int(np.flatnonzero(path >= target)[0]) + 1)
    mean, var = mean_reverting_passage_moments(config, start, target)
    assert abs(np.mean(times) - float(mean)) <= 4 * float(var / samples) ** 0.5


def test_recurrence_cli_defaults_to_the_run_master_seed(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("price:\n  grid_min: 0\n  grid_max: 60\n  start_price: 30\n"
                    "dominance:\n  tau: 5\n  gamma: 5\n"
                    "run:\n  master_seed: 5\n")
    outputs = []
    for extra in ([], ["--seed", "5"], ["--seed", "0"]):
        assert cli.main(["recurrence", str(path), "--xi", "4",
                         "--samples", "50", *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]
