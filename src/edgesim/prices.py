"""Positively recurrent price generators on a finite tick grid.

Two chain kinds are provided, both with reflecting boundaries so the
chain is finite and irreducible (hence positively recurrent):

  * reflecting_walk: lazy symmetric walk; with stay_probability the price
    holds, otherwise it moves one tick up or down with equal probability.
  * mean_reverting_walk: as above, but the up-move probability is tilted
    by reversion_strength * (center - price) / width toward the grid
    center, clamped to [0, 1].

Steps at grid_min / grid_max reflect inward.

One uniform draw is consumed per tick.  The mapping from a uniform u to a
move is fixed and shared by every code path in the package:

    u < stay                  -> hold
    u < stay + (1-stay)*p_up  -> +1 tick
    otherwise                 -> -1 tick

next_price(price, rng, config) is the literal one-tick step: an int price
in, the next int price out.  The caller owns the generator and the tick
clock, so the step carries no state of its own.

walk_block() produces the same path as repeated next_price() calls on the
same generator, tick for tick, while drawing uniforms in bulk; the
simulation harness relies on that equivalence for its vectorized engine.
Every vectorized path turns uniforms into moves with one kernel, _steps,
which compares u against the same floats next_price uses, so it
reproduces the scalar move bit for bit.  The mean-reverting threshold
never increases with the price, so the thresholds at the ends of a window
of prices decide most of its moves at once (_walk_mean_reverting); only
the moves between the two are resolved in order, price by price.

Reflection needs no stepping either.  If y is the free walk (the
cumulative sum of the moves), M_t its running maximum and m_t its running
minimum, the walk reflected at one edge alone is exactly

    x_t = y_t - 2 * ceil((M_t - grid_max)^+ / 2)     (at grid_max)
    x_t = y_t + 2 * ceil((grid_min - m_t)^+ / 2)     (at grid_min)

(the one-sided discrete Skorokhod map).  walk_block applies both
corrections at once, which gives the two-sided walk up to the first tick
at which x leaves the grid, where the two edges interact.

A run that records no ticks reads a block's prices at fills, a stretch's
max and min, and the last; estimate_hitting_time reads a passage.  Both
sum the moves per 8-tick word with one SWAR multiply (_words).  A word's
prices lie within 8 ticks of its start, so PriceBlock.reflecting builds
the full path only where a word start nears an edge (or on request), and
the sampler reads only the words that start near its target.

Deterministic substreams are derived from a master seed with
numpy SeedSequence spawn keys; see substream().
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

REFLECTING_WALK = "reflecting_walk"
MEAN_REVERTING_WALK = "mean_reverting_walk"

ABOVE = "above"
BELOW = "below"

# Documented substream indices under one master seed.
STREAM_PRICE = 0
STREAM_INTENT = 1
STREAM_SIDE = 2
STREAM_DELAY = 3
STREAM_HITTING = 4
STREAM_REPLICATION = 5

# A reflecting block restarts the reflection identity at most this many
# times before finishing step by step.  A restart needs a walk that crosses
# the whole grid after reflecting, so only grids a few ticks wide use it.
_MAX_BLOCK_RESTARTS = 8

# Ticks a mean-reverting window adds a side to its guess (4 to 32 ran alike).
_MARGIN = 8


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for the substream of a master seed that the
    spawn key names, e.g. (STREAM_PRICE,) or (STREAM_HITTING, w)."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=key))


@dataclass(frozen=True)
class PriceProcessConfig:
    """The grid lies within [-2**61, 2**61], so every price, every offset
    from a grid edge (at most 2**62) and every block's partial sum (a
    price or offset plus at most one tick a move) fits int64."""
    kind: str = REFLECTING_WALK
    grid_min: int = 9000
    grid_max: int = 11000
    start_price: int = 10000
    stay_probability: Fraction = Fraction(1, 2)
    reversion_strength: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.kind not in (REFLECTING_WALK, MEAN_REVERTING_WALK):
            raise ValueError(f"unknown price process kind {self.kind!r}")
        if self.grid_min >= self.grid_max:
            raise ValueError("grid_min must be < grid_max")
        if self.grid_min < -2 ** 61 or self.grid_max > 2 ** 61:
            key = "grid_min" if self.grid_min < -2 ** 61 else "grid_max"
            raise ValueError(f"{key} {getattr(self, key)} is beyond the "
                             f"int64-safe grid [-2**61, 2**61]")
        if not self.grid_min <= self.start_price <= self.grid_max:
            raise ValueError(f"start_price {self.start_price} outside grid")
        if not 0 <= self.stay_probability < 1:
            raise ValueError("stay_probability must be in [0, 1)")
        if not isinstance(self.reversion_strength, Rational):
            raise ValueError("reversion_strength must be an exact rational")
        if not 0 <= self.reversion_strength <= 1:
            raise ValueError("reversion_strength must be in [0, 1] so step "
                             "probabilities stay in [0, 1]")

    @property
    def width(self) -> int:
        return self.grid_max - self.grid_min


def _up_threshold(config: PriceProcessConfig, price: int, stay: float) -> float:
    """stay + (1 - stay) * p_up, below which a move goes up; stay is
    float(config.stay_probability), which every caller holds.  p_up is 0.5,
    for the mean-reverting walk tilted by strength * (center - price) /
    width and clamped to [0, 1], the tilt being the float nearest the exact
    rational: int / int, as float(Fraction), rounds correctly once."""
    p_up = 0.5
    if config.kind == MEAN_REVERTING_WALK:
        s = config.reversion_strength
        tilt = (s.numerator * (config.grid_min + config.grid_max - 2 * price)
                / (2 * s.denominator * config.width))
        p_up = min(1.0, max(0.0, 0.5 + tilt))
    return stay + (1.0 - stay) * p_up


def _thresholds(config: PriceProcessConfig, lo: int, hi: int) -> np.ndarray:
    """thr[p - lo] = _up_threshold(config, p, stay) for p in lo .. hi, the
    floats next_price compares u against.  The tilt's denominator exceeds
    |numerator|, so below 2**53 both are exact float64s, which numpy
    divides correctly rounded, as Python's int / int does."""
    stay = float(config.stay_probability)
    s = config.reversion_strength
    den = 2 * s.denominator * config.width
    if den >= 2 ** 53:
        return np.array([_up_threshold(config, p, stay) for p in range(lo, hi + 1)])
    num = s.numerator * (config.grid_min + config.grid_max
                         - 2 * np.arange(lo, hi + 1, dtype=np.int64))
    return stay + (1.0 - stay) * np.clip(0.5 + num / float(den), 0.0, 1.0)


def _reflect(price: int, grid_min: int, grid_max: int) -> int:
    if price > grid_max:
        return 2 * grid_max - price
    if price < grid_min:
        return 2 * grid_min - price
    return price


def next_price(price: int, rng: np.random.Generator,
               config: PriceProcessConfig) -> int:
    """The price one tick after price, consuming one uniform from rng;
    reflects at the grid edges."""
    u = rng.random()
    stay = float(config.stay_probability)
    if u < stay:
        return price
    step = 1 if u < _up_threshold(config, price, stay) else -1
    return _reflect(price + step, config.grid_min, config.grid_max)


def _steps(u: np.ndarray, stay: float, thr) -> np.ndarray:
    """int8 moves for the uniforms u: 0 below stay, +1 below thr, else -1.

    thr (a float, or one per uniform) is stay + (1 - stay) * p_up >= stay,
    so these are exactly next_price's comparisons, also for p_up 0 or 1."""
    return (u >= stay).view(np.int8) - 2 * (u >= thr).view(np.int8)


def _words(start: int, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sums, starts): the walk from start under the int8 moves steps
    after move i is starts[i >> 3] + sums[i] - (i & 7) - 1.  Plus 1, padded
    with holds to whole 8-byte words and times 0x0101010101010101, the
    moves hold in byte k of a word the sum of its bytes 0 .. k; the top
    bytes' cumsum gives starts, the walk at each word start and the end."""
    sums = np.ones(-(-len(steps) // 8) * 8, dtype=np.uint8)
    np.add(steps, 1, out=sums[:len(steps)], casting="unsafe")
    sums.view("<u8")[:] *= 0x0101010101010101
    starts = np.concatenate(([start], sums[7::8] - np.int64(8)))
    np.cumsum(starts, out=starts)
    return sums, starts


def walk_block(price: int, rng: np.random.Generator, n: int,
               config: PriceProcessConfig) -> np.ndarray:
    """The next n prices, path-identical to n next_price() steps.

    Consumes exactly n uniforms from rng.  The reflecting walk sums the
    _steps moves and applies the reflection identity of the module
    docstring (_reflecting_path); the mean-reverting walk classifies its
    moves against a window of thresholds (_walk_mean_reverting).
    """
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    if config.kind == MEAN_REVERTING_WALK:
        return _walk_mean_reverting(price, rng.random(n), config)
    stay = float(config.stay_probability)
    steps = _steps(rng.random(n), stay, _up_threshold(config, price, stay))
    return _reflecting_path(price, steps, config)


def _reflecting_path(price: int, steps: np.ndarray,
                     config: PriceProcessConfig) -> np.ndarray:
    """walk_block's reflecting path from price under the moves steps."""
    gmin, gmax, n = config.grid_min, config.grid_max, len(steps)
    out = np.empty(n, dtype=np.int64)
    p, i = price, 0
    for _ in range(_MAX_BLOCK_RESTARTS):
        x = np.cumsum(steps[i:], dtype=np.int64)
        x += p
        k = n - i
        if int(x.max()) > gmax or int(x.min()) < gmin:
            # an overshoot d past an edge shifts the path by 2 * ceil(d / 2)
            top = (np.maximum.accumulate(x) - (gmax - 1)) >> 1
            bottom = ((gmin + 1) - np.minimum.accumulate(x)) >> 1
            x += (np.maximum(bottom, 0) - np.maximum(top, 0)) << 1
            # exact up to the first price off the grid; one step from a
            # grid price reflects back onto the grid, so k >= 1
            exits = np.flatnonzero((x < gmin) | (x > gmax))
            k = int(exits[0]) if exits.size else k
        out[i:i + k] = x[:k]
        i += k
        if i == n:
            return out
        p = int(x[k - 1])
    for j in range(i, n):
        p = _reflect(p + int(steps[j]), gmin, gmax)
        out[j] = p
    return out


class PriceBlock:
    """A block's prices, read only through take, bounds, prices and last:
    a full path, such as walk_block's, or the sparse block of reflecting,
    which builds its path on the first prices() call."""

    def __init__(self, path: np.ndarray | None = None):
        self._path = path
        self.last = None if path is None else int(path[-1])

    @classmethod
    def reflecting(cls, price: int, rng: np.random.Generator, n: int,
                   config: PriceProcessConfig) -> PriceBlock:
        """walk_block(price, rng, n, config) of the reflecting walk (n >= 1),
        from the same moves, read through their _words."""
        block, stay = cls(), float(config.stay_probability)
        block._price, block._config = price, config
        block._steps = _steps(rng.random(n), stay, _up_threshold(config, price, stay))
        block._bytes, block._starts = _words(price, block._steps)
        top, bottom = block.bounds(0, n)     # beyond an edge, the walk may reflect
        near_edge = top > config.grid_max or bottom < config.grid_min
        block.last = int(block.prices()[-1] if near_edge else block._starts[-1])
        return block

    def take(self, offsets):
        """The prices at the offsets (an int or an int array)."""
        if self._path is not None:
            return self._path[offsets]
        return self._starts[offsets >> 3] + self._bytes[offsets] - (offsets & 7) - 1

    def bounds(self, lo: int, hi: int) -> tuple[int, int]:
        """(top, bottom) around the prices at offsets lo .. hi - 1 (hi > lo),
        a word's being within 8 ticks of its start; exact once built."""
        if self._path is not None:
            seg = self._path[lo:hi]
            return int(seg.max()), int(seg.min())
        starts = self._starts[lo >> 3:((hi - 1) >> 3) + 1]
        return int(starts.max()) + 8, int(starts.min()) - 8

    def prices(self) -> np.ndarray:
        """Every price of the block, built on the first call."""
        if self._path is None:
            self._path = _reflecting_path(self._price, self._steps, self._config)
        return self._path


def _walk_mean_reverting(price: int, u: np.ndarray,
                         config: PriceProcessConfig) -> np.ndarray:
    """The mean-reverting path for the uniforms u, window by window.

    A window [lo, hi] is the range of the path the start price's threshold
    gives, widened by _MARGIN and clipped to the grid; a move from an edge
    goes inward (the reflection), so thr is 1.0 at grid_min and stay at
    grid_max.  From every price in the window u < stay holds, u < thr(hi)
    moves up and u >= thr(lo) down; the moves in between are resolved in
    order from the window offset of the price before each.  All are exact
    while that price lies in the window, so the path is kept up to and
    including its first price outside, where the next window starts.
    """
    stay = float(config.stay_probability)
    gmin, gmax = config.grid_min, config.grid_max
    out = np.empty(len(u), dtype=np.int64)
    p, i = price, 0
    while i < len(u):
        uw = u[i:]
        moves = _steps(uw, stay, _up_threshold(config, p, stay))
        path = np.cumsum(moves, dtype=np.int64)
        low, high = min(0, int(path.min())), max(0, int(path.max()))
        lo, hi = max(gmin, p + low - _MARGIN), min(gmax, p + high + _MARGIN)
        thr = _thresholds(config, lo, hi)
        thr[0] = 1.0 if lo == gmin else thr[0]
        thr[-1] = stay if hi == gmax else thr[-1]
        undecided = np.flatnonzero((uw >= thr[-1]) & (uw < thr[0]))
        guess = moves[undecided]
        before = path[undecided] - np.cumsum(guess) + (p - lo)
        thr, resolved, r = thr.tolist(), [], 0
        for b, x in zip(before.tolist(), uw[undecided].tolist()):
            if not 0 <= b + r <= hi - lo:
                break
            resolved.append(1 if x < thr[b + r] else -1)
            r += resolved[-1]
        changed = resolved != guess[:len(resolved)].tolist()
        if changed:
            moves[undecided[:len(resolved)]] = resolved
            np.cumsum(moves, dtype=np.int64, out=path)
        k = len(uw)
        if changed or p + low < lo or p + high > hi:
            outside = (path < lo - p) | (path > hi - p)
            k = int(np.argmax(outside)) + 1 if outside.any() else k
        np.add(path[:k], p, out=out[i:i + k])
        i += k
        p = int(out[i - 1])
    return out


@dataclass(frozen=True)
class HittingTimeSummary:
    samples: int
    cap: int
    count_finite: int
    mean: float
    max: int


def _validate_threshold(config: PriceProcessConfig, start_price: int,
                        xi: int, direction: str) -> int:
    """Return the first grid price strictly beyond the threshold."""
    if xi < 1:
        raise ValueError(f"threshold must be >= 1 tick, got {xi}")
    if not config.grid_min <= start_price <= config.grid_max:
        raise ValueError(f"start price {start_price} outside grid")
    if direction not in (ABOVE, BELOW):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    sign, op = (1, "+") if direction == ABOVE else (-1, "-")
    if not config.grid_min <= start_price + sign * (xi + 1) <= config.grid_max:
        raise ValueError(f"no grid price strictly {direction} {start_price} "
                         f"{op} {xi}; threshold unreachable within the grid")
    return start_price + sign * (xi + 1)


def _blocks(cap: int):
    """(done, n) for a passage's blocks: n doubles from 256 to 32,768 and
    stops at cap.  Uniforms are drawn in order, so n changes no time."""
    done, n = 0, 1 << 8
    while done < cap:
        yield done, min(n, cap - done)
        done, n = done + n, min(2 * n, 1 << 15)


def _hit_one_reflecting(rng: np.random.Generator, config: PriceProcessConfig,
                        start: int, target: int, direction: str,
                        cap: int) -> int:
    """First passage time to the target price for one replication, or 0
    if not reached within cap steps (times are >= 1 so 0 is free).

    The target lies strictly inside the grid, so the walk meets at most
    one edge before the hit, and a symmetric walk reflected at one edge
    has the law (not the path) of the folded free walk, edge + |free walk
    - edge|: the passage time is the free walk's exit time from (-tgt,
    tgt), which needs no reflection at all.

    A word of _words that starts at s stays within 8 ticks of s, so it can
    reach +/-tgt only if |s| >= tgt - 8; only those words are read tick by
    tick.  The holds that pad a last word repeat a price read before them.
    """
    u, stay = np.empty(1 << 15), float(config.stay_probability)
    up_threshold = _up_threshold(config, start, stay)
    sign, edge = (1, config.grid_min) if direction == ABOVE else (-1, config.grid_max)
    x, tgt = sign * (start - edge), sign * (target - edge)
    for done, n in _blocks(cap):
        sums, starts = _words(x, _steps(rng.random(out=u[:n]), stay, up_threshold))
        near = np.flatnonzero(np.abs(starts[:-1]) >= tgt - 8)
        if near.size:
            walk = sums.reshape(-1, 8)[near] + (starts[near, None] - np.arange(1, 9))
            hits = np.flatnonzero(np.abs(walk) >= tgt)
            if hits.size:
                w, k = divmod(int(hits[0]), 8)
                return done + 8 * int(near[w]) + k + 1
        x = int(starts[-1])
    return 0


def _hit_one_walk(rng: np.random.Generator, config: PriceProcessConfig,
                  start: int, target: int, direction: str, cap: int) -> int:
    """As _hit_one_reflecting, for any walk: the first passage of its
    walk_block path, drawn in the same _blocks."""
    price = start
    for done, n in _blocks(cap):
        path = walk_block(price, rng, n, config)
        hit = path >= target if direction == ABOVE else path <= target
        if hit.any():
            return done + int(np.argmax(hit)) + 1
        price = int(path[-1])
    return 0


def estimate_hitting_time(config: PriceProcessConfig, start_price: int, xi: int,
                          direction: str, samples: int, cap: int,
                          master_seed: int = 0) -> HittingTimeSummary:
    """Monte Carlo summary of the first time the price moves strictly
    beyond start_price +/- xi, over independent replications.

    Replication w steps its own substream (STREAM_HITTING, w) of the
    master seed, so the summary is reproducible for a given (config,
    master_seed, samples, cap).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    target = _validate_threshold(config, start_price, xi, direction)

    hit_one = (_hit_one_reflecting if config.kind == REFLECTING_WALK
               else _hit_one_walk)
    times = np.array([hit_one(substream(master_seed, STREAM_HITTING, w), config,
                              start_price, target, direction, cap)
                      for w in range(samples)], dtype=np.int64)

    finite = times[times > 0]
    count = int(finite.size)
    return HittingTimeSummary(samples, cap, count,
                              float(finite.mean()) if count else float("nan"),
                              int(finite.max()) if count else 0)
