from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import cli, prices
from edgesim.prices import (_MAX_BLOCK_RESTARTS, ABOVE, BELOW,
                            MEAN_REVERTING_WALK, REFLECTING_WALK,
                            STREAM_HITTING, STREAM_PRICE, HittingTimeSummary,
                            PriceBlock, PriceProcessConfig, _hit_one_reflecting,
                            _reflect, _steps, _thresholds, _up_probability,
                            estimate_hitting_time, next_price, substream,
                            walk_block)


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
    # the grid must lie within [-2**61, 2**61], so its values fit int64
    bound = 2 ** 61
    with pytest.raises(ValueError, match="grid_min"):
        PriceProcessConfig(grid_min=-bound - 1, grid_max=0, start_price=0)
    with pytest.raises(ValueError, match="grid_max"):
        PriceProcessConfig(grid_min=0, grid_max=bound + 1, start_price=0)
    with pytest.raises(ValueError, match="grid_max 100000000000000010000"):
        PriceProcessConfig(grid_min=10 ** 20, grid_max=10 ** 20 + 10_000,
                           start_price=10 ** 20)
    assert PriceProcessConfig(grid_min=-bound, grid_max=bound,
                              start_price=0).width == 2 ** 62


@pytest.mark.parametrize("kind", [REFLECTING_WALK, MEAN_REVERTING_WALK])
@pytest.mark.parametrize("direction", [ABOVE, BELOW])
def test_hitting_time_at_the_int64_grid_bound(kind, direction):
    # the walk's law does not depend on where the grid lies, so a grid at
    # either end of [-2**61, 2**61] gives the summary of the same grid at 0
    def summary(gmin):
        config = PriceProcessConfig(kind=kind, grid_min=gmin, grid_max=gmin + 60,
                                    start_price=gmin + 30,
                                    stay_probability=Fraction(1, 3),
                                    reversion_strength=Fraction(1, 4))
        return estimate_hitting_time(config, gmin + 30, 8, direction,
                                     samples=20, cap=10**6, master_seed=3)
    expected = summary(0)
    assert expected.count_finite == 20
    assert summary(2 ** 61 - 60) == summary(-2 ** 61) == expected


def test_recurrence_cli_refuses_a_grid_beyond_the_int64_bound(tmp_path,
                                                              capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("price:\n  grid_min: 100000000000000000000\n"
                    "  grid_max: 100000000000000010000\n"
                    "  start_price: 100000000000000005000\n")
    assert cli.main(["recurrence", str(path), "--xi", "4",
                     "--samples", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid_max" in err


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
    # the second piece starts its windows afresh from the first one's last price
    for config in (PriceProcessConfig(),
                   PriceProcessConfig(kind=MEAN_REVERTING_WALK,
                                      reversion_strength=Fraction(1, 2))):
        whole = walk_block(config.start_price, substream(8, 0), 5000, config)
        rng = substream(8, 0)
        first = walk_block(config.start_price, rng, 2900, config)
        second = walk_block(int(first[-1]), rng, 2100, config)
        assert whole.tolist() == first.tolist() + second.tolist()


class FixedUniform:
    """Stands in for a generator whose next uniforms are all u."""

    def __init__(self, u):
        self.u = u

    def random(self, n=None):
        return self.u if n is None else np.full(n, self.u)


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
    thr = _thresholds(config, 0, 4)
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
    """Widths 1 to 100,000, narrow ones often, near 0 or at either end of the
    int64-safe grid (+/-2**61), starting anywhere, often at or next to
    either edge; stays from 0 to 1 - 2**-20."""
    width = draw(st.one_of(st.integers(1, 5), st.integers(1, 3000),
                           st.integers(3000, 100_000)))
    gmin = draw(st.one_of(st.integers(0, 100),
                          st.sampled_from([-2 ** 61, 2 ** 61 - width])))
    gmax = gmin + width
    return PriceProcessConfig(
        grid_min=gmin, grid_max=gmax,
        start_price=draw(st.one_of(st.sampled_from([gmin, gmin + 1, gmax - 1, gmax]),
                                   st.integers(gmin, gmax))),
        stay_probability=draw(st.sampled_from(
            [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10),
             1 - Fraction(1, 2 ** 20)])))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(reflecting_walks(),
       st.one_of(st.integers(1, 20_000), st.just(20_000)),
       st.integers(0, 2 ** 32 - 1))
def test_reflecting_walk_block_is_the_scalar_path(config, n, seed):
    expected = scalar_path(config, substream(seed, STREAM_PRICE), n)
    got = walk_block(config.start_price, substream(seed, STREAM_PRICE), n,
                     config)
    assert got.tolist() == expected


@settings(max_examples=120, deadline=None, derandomize=True)
@given(reflecting_walks(),
       st.one_of(st.integers(1, 40), st.integers(1, 3 * 12_288 + 5)),
       st.integers(0, 2 ** 32 - 1), st.randoms(use_true_random=False))
def test_price_block_accessors_are_walk_block_prices(config, n, seed, rnd):
    # walk_block is the oracle: the sparse block draws the same uniforms,
    # and each accessor gives its prices, sparse or (near an edge) full
    rng = substream(seed, STREAM_PRICE)
    path = walk_block(config.start_price, rng, n, config)
    after = rng.random()
    rng = substream(seed, STREAM_PRICE)
    block = PriceBlock.reflecting(config.start_price, rng, n, config)
    assert rng.random() == after
    offsets = np.array([0, n - 1, *(rnd.randrange(n) for _ in range(40))])
    assert np.array_equal(block.take(offsets), path[offsets])
    assert block.take(n - 1) == path[-1]
    stretches = [(lo, rnd.randrange(lo + 1, n + 1))
                 for lo in (0, *(rnd.randrange(n) for _ in range(20)))]
    for lo, hi in stretches:
        top, bottom = block.bounds(lo, hi)
        assert bottom <= path[lo:hi].min() and path[lo:hi].max() <= top
    assert block.last == path[-1]
    assert np.array_equal(block.prices(), path)
    for lo, hi in stretches:      # exact once the full path exists
        assert block.bounds(lo, hi) == (path[lo:hi].max(), path[lo:hi].min())


@pytest.mark.parametrize("start, u, n", [(50, 0.25, 24), (50, 0.75, 24),
                                         (93, 0.25, 8), (7, 0.75, 8)])
def test_price_block_is_exact_where_a_word_moves_8_ticks(start, u, n):
    # stay 0 and one uniform throughout: n moves one way.  Each word ends 8
    # ticks from its start, the bounds' full reach, and a lone word that
    # starts 7 ticks from an edge reflects
    config = PriceProcessConfig(grid_min=0, grid_max=100, start_price=start,
                                stay_probability=Fraction(0))
    path = walk_block(start, FixedUniform(u), n, config)
    block = PriceBlock.reflecting(start, FixedUniform(u), n, config)
    assert np.array_equal(block.take(np.arange(n)), path)
    for lo, hi in [(0, 8), (5, 19), (16, 24)][:n // 8]:
        top, bottom = block.bounds(lo, hi)
        assert bottom <= path[lo:hi].min() and path[lo:hi].max() <= top


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
def test_whole_grid_thresholds_are_the_scalar_float_law(stay, strength):
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
        # the whole grid as one window
        assert _thresholds(config, gmin, gmax).tolist() == [
            s + (1.0 - s) * q for q in p_up]


@st.composite
def threshold_windows(draw):
    """A mean-reverting config of width up to 2**62 and a window of at
    most 200 of its prices, often at a grid edge; strength 1 makes p_up
    exactly 0 and 1 at the edges."""
    width = draw(st.one_of(st.integers(1, 60), st.integers(1, 2 ** 62),
                           st.sampled_from([10 ** 8, 2 ** 62])))
    gmin = draw(st.integers(-2 ** 61, 2 ** 61 - width))
    gmax = gmin + width
    config = PriceProcessConfig(
        kind=MEAN_REVERTING_WALK, grid_min=gmin, grid_max=gmax,
        start_price=gmin,
        stay_probability=Fraction(draw(st.integers(0, 9)), 10),
        reversion_strength=draw(st.one_of(
            st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 7),
                             Fraction(1)]),
            st.fractions(0, 1, max_denominator=10 ** 6))))
    lo = draw(st.one_of(st.just(gmin), st.integers(gmin, gmax)))
    hi = draw(st.one_of(st.just(min(gmax, lo + 200)),
                        st.integers(lo, min(gmax, lo + 200))))
    return config, lo, hi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threshold_windows())
def test_window_thresholds_are_the_scalar_float_law(window):
    config, lo, hi = window
    s = float(config.stay_probability)
    prices_ = range(lo, hi + 1)
    # the documented law, in exact rationals rounded once
    center = Fraction(config.grid_min + config.grid_max, 2)
    tilts = [float(config.reversion_strength * (center - p) / config.width)
             for p in prices_]
    p_up = [_up_probability(config, p) for p in prices_]
    assert p_up == [min(1.0, max(0.0, 0.5 + t)) for t in tilts]
    thr = _thresholds(config, lo, hi)
    assert thr.tolist() == [s + (1.0 - s) * q for q in p_up]
    assert (np.diff(thr) <= 0).all()


@pytest.mark.parametrize("gmin,gmax,scalar", [
    (0, 10 ** 8, False), (-2 ** 61, 2 ** 61, True)])
def test_window_thresholds_take_float64_or_the_scalar_expression(
        monkeypatch, gmin, gmax, scalar):
    # a tilt denominator of 2**53 or more takes the scalar expression,
    # once a price; a smaller one a float64 division
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=gmin,
                                grid_max=gmax, start_price=gmin,
                                reversion_strength=Fraction(1, 3))
    calls = []

    def counted(config, price):
        calls.append(price)
        return _up_probability(config, price)
    monkeypatch.setattr(prices, "_up_probability", counted)
    for lo in (gmin, (gmin + gmax) // 2 - 50, gmax - 100):
        thr = _thresholds(config, lo, lo + 100)
        assert thr.tolist() == [0.5 + 0.5 * _up_probability(config, p)
                                for p in range(lo, lo + 101)]
    assert len(calls) == (303 if scalar else 0)


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
@given(mean_reverting_walks(), st.integers(1, 3 * 8192 + 100),
       st.integers(0, 2 ** 32 - 1))
def test_mean_reverting_walk_block_is_the_scalar_path(config, n, seed):
    expected = scalar_path(config, substream(seed, STREAM_PRICE), n)
    got = walk_block(config.start_price, substream(seed, STREAM_PRICE), n,
                     config)
    assert got.tolist() == expected


@pytest.mark.parametrize("gmin,gmax,start,stay,strength", [
    # every move undecided: thr runs from 1.0 at 0 to 0.0 at 3
    (0, 3, 1, Fraction(0), Fraction(1)),
    (0, 30, 15, Fraction(1, 3), Fraction(1, 4)),
    # p_up is 1/4 at 1, so moves up from 1 reflect
    (0, 1, 1, Fraction(1, 3), Fraction(1, 2)),
    (0, 10 ** 8, 5 * 10 ** 7, Fraction(1, 2), Fraction(1, 2)),
    (-2 ** 61, 2 ** 61, 2 ** 61 - 3, Fraction(1, 2), Fraction(1, 2)),
], ids=["grid_0_3", "grid_0_30", "grid_0_1", "width_1e8", "int64_edges"])
def test_mean_reverting_walk_block_is_the_scalar_path_on_fixed_grids(
        monkeypatch, gmin, gmax, start, stay, strength):
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=gmin,
                                grid_max=gmax, start_price=start,
                                stay_probability=stay,
                                reversion_strength=strength)
    expected = scalar_path(config, substream(8, STREAM_PRICE), 20_000)
    windows = []

    def counted(config, lo, hi):
        windows.append((lo, hi))
        return _thresholds(config, lo, hi)
    monkeypatch.setattr(prices, "_thresholds", counted)
    got = walk_block(start, substream(8, STREAM_PRICE), 20_000, config)
    assert got.tolist() == expected
    if gmax - gmin <= 30:
        # a window spanning the grid takes its reflections in place
        assert windows == [(gmin, gmax)]


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


def test_hitting_time_mean_reverting_hits_every_sample():
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


def test_mean_reverting_hitting_time_on_a_grid_10_to_the_8_wide():
    # the window thresholds cover only the prices the walk reaches, so the
    # first tick of a wide grid costs no more than that of a narrow one
    config = PriceProcessConfig(kind=MEAN_REVERTING_WALK, grid_min=0,
                                grid_max=10 ** 8, start_price=5 * 10 ** 7,
                                reversion_strength=Fraction(1, 2))
    start, xi, samples, cap = config.start_price, 5, 6, 200
    root = np.random.SeedSequence(5, spawn_key=(STREAM_HITTING,))
    times = []
    for child in root.spawn(samples):
        rng, price = np.random.default_rng(child), start
        for t in range(1, cap + 1):
            price = next_price(price, rng, config)
            if price > start + xi:
                times.append(t)
                break
    s = estimate_hitting_time(config, start, xi, ABOVE, samples=samples,
                              cap=cap, master_seed=5)
    assert 0 < len(times) < samples
    assert s == HittingTimeSummary(samples, cap, len(times),
                                   float(np.mean(times)), max(times))


def folded_offsets(config, start, target, direction):
    """(x, tgt): the start and the target as offsets from the edge the
    reflecting sampler folds at, grid_min above and grid_max below."""
    if direction == ABOVE:
        return start - config.grid_min, target - config.grid_min
    return config.grid_max - start, config.grid_max - target


def test_reflecting_hitting_time_steps_the_scalar_law():
    # The sampler's passage is the exit of the free walk from (-tgt, tgt),
    # in offsets from the edge it folds at.  Sample w steps that free walk
    # with literal next_price on the grid [-tgt, tgt], where it exits
    # before it can reflect, drawing from the w-th child of the hitting
    # sequence.  (The reflected chain on the real grid agrees with it in
    # law only: test_hitting_time_folded_sampler_matches_direct_chain.)
    samples, seed, times = 12, 7, []
    for (gmin, gmax), start, xi, direction, stay in [
            ((0, 40), 20, 6, ABOVE, Fraction(1, 3)),
            ((0, 40), 20, 6, BELOW, Fraction(1, 3)),
            ((0, 40), 2, 1, ABOVE, Fraction(0)),
            ((0, 40), 38, 1, BELOW, Fraction(1, 2)),
            ((0, 200), 100, 25, ABOVE, Fraction(1, 2)),
            ((0, 200), 150, 25, BELOW, Fraction(0))]:
        config = PriceProcessConfig(grid_min=gmin, grid_max=gmax,
                                    start_price=start, stay_probability=stay)
        target = start + xi + 1 if direction == ABOVE else start - xi - 1
        x, tgt = folded_offsets(config, start, target, direction)
        free = PriceProcessConfig(grid_min=-tgt, grid_max=tgt, start_price=x,
                                  stay_probability=stay)
        root = np.random.SeedSequence(seed, spawn_key=(STREAM_HITTING,))
        case = []
        for child in root.spawn(samples):
            rng, y, t = np.random.default_rng(child), x, 0
            while abs(y) < tgt:
                y = next_price(y, rng, free)
                t += 1
            case.append(t)
        s = estimate_hitting_time(config, start, xi, direction,
                                  samples=samples, cap=10**6, master_seed=seed)
        assert s == HittingTimeSummary(samples, 10**6, samples,
                                       float(np.mean(case)), max(case))
        times += case
    # hits in the first row, and passages longer than the first block
    assert min(times) <= 64 and max(times) > 256


def full_prefix_hitting_time(rng, config, start, target, direction, cap):
    """The reflecting sampler without its row screen: every block of the
    folded free walk is prefix-summed in full."""
    stay = float(config.stay_probability)
    up_threshold = stay + (1.0 - stay) * 0.5
    x, tgt = folded_offsets(config, start, target, direction)
    done, block = 0, 1 << 8
    while done < cap:
        n = min(block, cap - done)
        block = min(2 * block, 1 << 15)
        walk = x + np.cumsum(_steps(rng.random(n), stay, up_threshold),
                             dtype=np.int64)
        hits = np.flatnonzero(np.abs(walk) >= tgt)
        if hits.size:
            return done + int(hits[0]) + 1
        x, done = int(walk[-1]), done + n
    return 0


class ScriptedUniforms:
    """Stands in for a Generator: random() hands out a fixed script of
    uniforms, as a new array or into out."""

    def __init__(self, u):
        self.u, self.used = np.asarray(u, dtype=float), 0

    def random(self, size=None, out=None):
        n = size if out is None else len(out)
        u = self.u[self.used:self.used + n]
        assert len(u) == n, "the script ran out"
        self.used += n
        if out is None:
            return u.copy()
        out[:] = u
        return out


# uniforms that make a hold, an up-move and a down-move at stay 1/3
SCRIPT_STAY = Fraction(1, 3)
HOLD, UP, DOWN = 0.2, 0.5, 0.9


def scripted_hitting_times(config, start, target, direction, cap, u):
    """(sampler, reference, uniforms each drew) for one script."""
    rng, ref = ScriptedUniforms(u), ScriptedUniforms(u)
    got = _hit_one_reflecting(rng, config, start, target, direction, cap)
    return got, full_prefix_hitting_time(ref, config, start, target, direction,
                                         cap), (rng.used, ref.used)


@st.composite
def scripted_passages(draw):
    """A reflecting walk, a threshold, a cap (under 64, not a multiple of
    64, or whole rows) and a script of moves in runs of one kind, so rows
    start anywhere near the target and a passage can fall on any tick."""
    gmax = draw(st.integers(3, 400))
    direction = draw(st.sampled_from([ABOVE, BELOW]))
    start = draw(st.integers(0, gmax - 2) if direction == ABOVE
                 else st.integers(2, gmax))
    xi = draw(st.integers(1, gmax - start - 1 if direction == ABOVE
                          else start - 1))
    target = start + xi + 1 if direction == ABOVE else start - xi - 1
    cap = draw(st.one_of(st.integers(1, 63), st.integers(64, 3000),
                         st.integers(1, 47).map(lambda k: 64 * k)))
    runs = draw(st.lists(st.tuples(st.sampled_from([HOLD, UP, DOWN]),
                                   st.integers(1, 150)), max_size=30))
    u = np.concatenate([np.full(k, v) for v, k in runs] + [np.full(cap, HOLD)])
    config = PriceProcessConfig(grid_min=0, grid_max=gmax, start_price=start,
                                stay_probability=SCRIPT_STAY)
    return config, start, target, direction, cap, u[:cap]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scripted_passages())
def test_row_screen_is_the_full_prefix_sum_on_scripted_moves(case):
    got, expected, (used, ref_used) = scripted_hitting_times(*case)
    assert got == expected
    assert used == ref_used


@pytest.mark.parametrize("start,xi,cap,script,expected", [
    # a row that starts exactly tgt - 64 away reaches it on its last tick
    (0, 63, 256, [UP] * 64, 64),
    (0, 63, 256, [HOLD] * 64 + [UP] * 64, 128),
    (0, 63, 256, [DOWN] * 64, 64),
    # one tick short of the screen: no row can reach the target
    (0, 64, 256, [UP] * 64, 0),
    # the ragged last block of 300 - 256 = 44 moves holds the passage
    (0, 39, 300, [HOLD] * 256 + [UP] * 40, 296),
    # ... or the cap ends it one tick short, a miss
    (0, 39, 295, [HOLD] * 256 + [UP] * 40, 0),
    # a cap under one row
    (0, 3, 5, [UP] * 4, 4),
    (0, 3, 3, [UP] * 4, 0),
])
def test_row_screen_edges_are_the_full_prefix_sum(start, xi, cap, script,
                                                  expected):
    config = PriceProcessConfig(grid_min=0, grid_max=100, start_price=start,
                                stay_probability=SCRIPT_STAY)
    u = (script + [HOLD] * cap)[:cap]
    got, reference, _ = scripted_hitting_times(config, start, start + xi + 1,
                                               ABOVE, cap, u)
    assert got == reference == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(reflecting_walks(), st.sampled_from([ABOVE, BELOW]),
       st.integers(1, 200),
       st.one_of(st.integers(1, 63), st.integers(1, 100_000)),
       st.integers(0, 2 ** 32 - 1))
def test_row_screen_is_the_full_prefix_sum(config, direction, xi, cap, seed):
    # the real generator: random(out=...) draws the same stream as
    # random(n), and the screen gives the full prefix sum's passage
    room = (config.grid_max - config.start_price if direction == ABOVE
            else config.start_price - config.grid_min) - 1
    if room < 1:
        return
    xi = min(xi, room)
    start = config.start_price
    target = start + xi + 1 if direction == ABOVE else start - xi - 1
    for w in range(3):
        got = _hit_one_reflecting(substream(seed, STREAM_HITTING, w), config,
                                  start, target, direction, cap)
        assert got == full_prefix_hitting_time(
            substream(seed, STREAM_HITTING, w), config, start, target,
            direction, cap)


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
