"""Deterministic run orchestration: baseline and overlay side by side.

A run advances one price process tick by tick, feeds each tick to the
baseline strategy (whose intents fill at the next tick's side-adjusted
price) and to the dominance engine, computes both strategies' PnL
exactly, and checks every end-of-phase proof obligation as it happens.
Any violated clause aborts the run with InvariantViolation; a completed
RunReport therefore certifies that every check passed.  With
run.record_ticks its ticks are the rows of ticks.csv (see edgesim.runio).

Two execution engines produce bit-identical results:

  * scalar: one literal next_price/on_tick step per tick; the reference.
  * blocked: prices and intents come in vectorized blocks, and per-fill
    Python runs only at events (next-event time advance): a fill that
    enqueues, a tick at which a queued order releases, or the backstop
    deadline.  The queue holds between events, so every other fill, a
    forced delay candidate too, goes in bulk, as int64 arrays (the cloud
    before each fill only where a delay or release test reads it, the
    running sums by two reductions); the first fill whose sums could pass
    2**62 is an event, in exact ints.  Blocks of 12,288 ticks keep
    each int64 temporary under glibc's 128 KiB mmap threshold; no result
    depends on the block size.  Prices are read through a PriceBlock,
    sparse for the unrecorded reflecting walk, else walk_block's path.

Both engines hand each tick's releases and phase end to one _RunState
step, settle, once the tick's fills are booked; the run set-up (the price
substream and the t = 0 record row) is _RunState's too.

A run consumes four of the documented substreams of the master seed
(price steps, baseline intents, baseline sides, delay draws); see
edgesim.prices.substream.  All run state is integer; seeds plus config
determine every output byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .dominance import (CLAUSE_LOWER_BOUND, CLAUSE_MONOTONICITY,
                        CLAUSE_PER_ORDER_GAP, CLAUSE_PHASE_IDENTITY,
                        CLAUSE_POSITION_MATCH, CLAUSE_POSITIVITY,
                        CLAUSE_QUEUE_CAP, ENQUEUE, DelayedOrderRecord,
                        DominanceEngine, DominanceParams, InvariantViolation,
                        PhaseReport, SimulationError, exceeds_tolerance,
                        phase_clause_failures, phase_pnl_diff_check,
                        release_level, spaced_and_reachable)
from .market import BUY, SELL, Instrument, Money, OrderLog, fill_price
from .prices import (REFLECTING_WALK, STREAM_DELAY, STREAM_PRICE,
                     STREAM_REPLICATION, PriceBlock, PriceProcessConfig,
                     next_price, substream, walk_block)
from .strategies import (BaselineConfig, BaselineStreams, baseline_on_tick,
                         baseline_streams, intent_block)

_BLOCK = 12288
_DELAY_CHUNK = 4096

# The verdict naming the independent accounting oracle, which re-derives
# every phase end from the kept order lists (run.keep_orders only).
ORACLE_CHECK = "phase_pnl_diff_check"
_PHASE_CHECKS = (CLAUSE_PHASE_IDENTITY, CLAUSE_LOWER_BOUND, CLAUSE_POSITIVITY,
                 CLAUSE_MONOTONICITY, CLAUSE_POSITION_MATCH)
# The clauses of RunReport.verdicts, in order.
VERDICT_CLAUSES = (CLAUSE_PER_ORDER_GAP, CLAUSE_QUEUE_CAP, *_PHASE_CHECKS, ORACLE_CHECK)


@dataclass(frozen=True)
class RunSettings:
    total_ticks: int | None = None
    target_phases: int | None = 20
    master_seed: int = 1
    half_spread: int = 0
    commission_per_unit: Money = 0
    replications: int = 1
    record_ticks: bool = True
    keep_orders: bool = False
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if (self.total_ticks is None) == (self.target_phases is None):
            raise ValueError("exactly one of total_ticks/target_phases must be set")
        if self.master_seed < 0:
            raise ValueError(f"run.master_seed must be >= 0, got {self.master_seed}")
        if self.total_ticks is not None and self.total_ticks < 1:
            raise ValueError("total_ticks must be >= 1")
        if self.target_phases is not None and self.target_phases < 1:
            raise ValueError("target_phases must be >= 1")
        if self.half_spread < 0:
            raise ValueError("half_spread must be >= 0")
        if self.commission_per_unit < 0:
            raise ValueError("commission_per_unit must be >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")

    @property
    def stop_reason(self) -> str:
        return "total_ticks" if self.total_ticks is not None else "target_phases"


@dataclass(frozen=True)
class RunConfig:
    instrument: Instrument
    price: PriceProcessConfig
    strategy: BaselineConfig
    dominance: DominanceParams
    run: RunSettings

    def __post_init__(self) -> None:
        if self.dominance.delay_probability == 0 and self.run.target_phases is not None:
            raise ValueError("delay_probability 0 needs run.total_ticks: "
                             "without a delay no phase ends")
        self.dominance.validate_for_grid(self.price.grid_min, self.price.grid_max)


def default_config(**run_overrides) -> RunConfig:
    """The desk-scale profile: cent ticks on a 90.00-110.00 grid, lazy
    reflecting walk, sparse unit-lot bernoulli baseline, tau = gamma = 25;
    each section's defaults are its config class's."""
    return RunConfig(Instrument(), PriceProcessConfig(), BaselineConfig(),
                     DominanceParams(), RunSettings(**run_overrides))


@dataclass
class RunReport:
    config: RunConfig
    master_seed: int
    final_time: int
    final_price: int
    final_diff: Money
    phases: list[PhaseReport]
    records: list[DelayedOrderRecord]
    q_delayed_total: int
    max_drawdown_s: Money | None
    max_drawdown_sstar: Money | None
    commissions_s: Money
    commissions_sstar: Money
    stop_reason: str
    verdicts: list[dict]
    ticks: np.ndarray | None = None     # ticks.csv's rows, (n, 5) int64
    orders_s: OrderLog | None = None
    orders_sstar: OrderLog | None = None

    @property
    def phases_completed(self) -> int:
        return len(self.phases)

    @property
    def mean_order_gap(self) -> Fraction | None:
        records = self.records
        return Fraction(sum(r.gap for r in records), len(records)) if records else None


class _DelayDraws:
    """The run's delay uniforms (STREAM_DELAY), one per Stage-2 fill in
    fill order, behind one cursor for bulk fills (peek, skip) and the
    engine (a call).  Drawn in chunks: the same sequence as one draw."""

    def __init__(self, rng: np.random.Generator, probability: Fraction):
        self._rng = rng
        self.probability = float(probability)
        self._buf = np.empty(0)
        self._pos = 0

    def peek(self, count: int) -> np.ndarray:
        """The next count uniforms, without taking them."""
        if self._pos + count > len(self._buf):
            self._buf = np.concatenate((self._buf[self._pos:], self._rng.random(
                max(count, _DELAY_CHUNK))))
            self._pos = 0
        return self._buf[self._pos:self._pos + count]

    def skip(self, count: int) -> None:
        self.peek(count)
        self._pos += count

    def __call__(self) -> bool:
        """Take one draw: True when the delay variable comes up 1."""
        self.skip(1)
        return bool(self._buf[self._pos - 1] < self.probability)


class _RunState:
    """Mutable per-run accounting shared by both execution engines."""

    def __init__(self, config: RunConfig, seed: int):
        self.config = config
        self.m = config.instrument.multiplier
        self.half_spread = config.run.half_spread
        self.record_ticks = config.run.record_ticks

        self.delay_draws = _DelayDraws(substream(seed, STREAM_DELAY),
                                       config.dominance.delay_probability)
        self.engine = DominanceEngine(config.dominance, config.price.grid_min,
                                      config.price.grid_max, self.half_spread,
                                      self.delay_draws)
        self.streams: BaselineStreams = baseline_streams(seed)
        self.price_rng = substream(seed, STREAM_PRICE)
        self._g = max(abs(config.price.grid_min), abs(config.price.grid_max))

        # Running integer aggregates: W = sum sign*price*qty, SQ = sum sign*qty.
        self.w_s = self.sq_s = self.w_star = self.sq_star = self.order_count = 0
        self.orders_s = OrderLog() if config.run.keep_orders else None
        self.orders_star = OrderLog() if config.run.keep_orders else None

        self.phases: list[PhaseReport] = []
        # How many times each check ran; the engine counts its own.
        self.checked = dict.fromkeys(VERDICT_CLAUSES, 0)

        # Tick record: the price path (the start price and the scalar
        # engine's prices, then the blocked engine's blocks) and one mark
        # (t, W_s, SQ_s, W*, SQ*) per aggregate change, the int64 columns of
        # _marks[:, :_n_marks]; a run stops at the first mark _check_bounds
        # refuses.  tick_series derives every row from the two.
        self.path_prices: list[int] = []
        self._path_blocks: list[np.ndarray] = []
        self._marks = np.empty((5, 1024), dtype=np.int64)
        self._n_marks = 0
        self.emit_initial_row(config.price.start_price)

    # -- PnL ------------------------------------------------------------

    def diff(self, price: int) -> Money:
        return self.m * ((self.w_star - self.w_s) - price * (self.sq_star - self.sq_s))

    # -- events -----------------------------------------------------------

    def base_fill(self, time: int, raw_price: int, sign: int, quantity: int) -> None:
        self.order_count += 1
        fill = fill_price(raw_price, sign, self.half_spread)
        self.w_s += sign * fill * quantity
        self.sq_s += sign * quantity
        if self.orders_s is not None:
            row = self.orders_s.append(self.order_count, time, sign, fill, quantity)
        action = self.engine.on_base_fill(self.order_count, sign, quantity,
                                          time, raw_price, fill)
        if action != ENQUEUE:
            self.w_star += sign * fill * quantity
            self.sq_star += sign * quantity
            if self.orders_star is not None:
                self.orders_star.append_block(row)    # the fill S took
        if self.record_ticks:
            self.emit_row(time)

    def mirror_fills(self, start: int, at: np.ndarray, raw_prices: np.ndarray,
                     signs: np.ndarray, quantity: int) -> None:
        """base_fill in bulk for the fills at ticks start + at that the
        overlay takes at once too.  The sums are two reductions (fill = raw -
        sign * half_spread; the int64 guard bounds |signs @ raw|, the rest is
        in Python ints); per-fill arrays only for kept orders or ticks."""
        self.engine.mirror_fills(raw_prices, quantity)
        if self.orders_s is not None or self.record_ticks:
            times = start + at
            fills = fill_price(raw_prices, signs, self.half_spread)
        if self.orders_s is not None:
            ids = np.arange(self.order_count + 1, self.order_count + len(at) + 1)
            block = np.array((ids, times, signs, fills, np.full_like(ids, quantity)))
            self.orders_s.append_block(block)
            self.orders_star.append_block(block)
        if self.record_ticks:
            w, sq = np.cumsum(signs * fills * quantity), np.cumsum(signs) * quantity
            marks = self._new_marks(len(at))
            marks[:] = (times, self.w_s + w, self.sq_s + sq, self.w_star + w,
                        self.sq_star + sq)
            # Exact in int64 (guard, prior sums passed); each checked only if one may fail.
            if 2 * self.m * (1 + self._g) * int(np.abs(marks[1:]).max()) >= 2 ** 63:
                self._check_bounds(zip(*marks[1:].tolist()))
        self.order_count += len(at)
        flow = quantity * (int(signs @ raw_prices) - self.half_spread * len(at))
        position = quantity * int(signs.sum())
        self.w_s += flow
        self.w_star += flow
        self.sq_s += position
        self.sq_star += position

    def apply_executions(self, records: Sequence[DelayedOrderRecord]) -> None:
        for r in records:
            self.w_star += r.sign * r.execution_price * r.quantity
            self.sq_star += r.sign * r.quantity
            if self.orders_star is not None:
                self.orders_star.append(r.order_id, r.execution_time, r.sign,
                                        r.execution_price, r.quantity)
        if records and self.record_ticks:
            self.emit_row(records[-1].execution_time)

    def end_phase(self, time: int, price: int) -> None:
        for clause in _PHASE_CHECKS:
            self.checked[clause] += 1
        if self.sq_star != self.sq_s:
            raise InvariantViolation(
                CLAUSE_POSITION_MATCH,
                f"open positions differ at phase end t={time}: "
                f"{-self.sq_star} vs {-self.sq_s}")
        engine = self.engine
        diff = self.diff(price)
        params = self.config.dominance
        report = PhaseReport(
            phase_index=engine.phase_index - 1,
            end_time=time,
            delayed_quantity=engine.q_delayed_total,
            pnl_diff=diff,
            lower_bound=self.m * engine.q_delayed_total * (params.gamma + params.tau),
            records=engine.last_phase_records)
        prev_diff = self.phases[-1].pnl_diff if self.phases else 0
        failures = phase_clause_failures(
            diff, (self.m * engine.gap_weighted_total,), engine.q_delayed_total,
            report.n_delayed, report.lower_bound, prev_diff, self.m, params)
        if not failures and self.orders_s is not None:
            self.checked[ORACLE_CHECK] += 1
            failures = phase_pnl_diff_check(report, prev_diff,
                                            engine.records, self.orders_s,
                                            self.orders_star, price,
                                            self.config.instrument, params)
        if failures:
            raise InvariantViolation(
                failures[0], f"phase {report.phase_index} ended at t={time} "
                             f"with diff={diff}, bound={report.lower_bound}, "
                             f"previous diff={prev_diff}")
        self.phases.append(report)

    def settle(self, time: int, price: int) -> bool:
        """Close tick `time` once its fills are booked: release what the price
        reaches, end the phase if it ended; True once at target_phases."""
        records, phase_ended = self.engine.on_tick(time, price)
        if records:
            self.apply_executions(records)
        if phase_ended:
            self.end_phase(time, price)
        return phase_ended and len(self.phases) == self.config.run.target_phases

    # -- tick rows ----------------------------------------------------------

    def emit_initial_row(self, price: int) -> None:
        """Start the record: the price at t = 0 under zero aggregates."""
        if self.record_ticks:
            self.path_prices.append(price)
            self._new_marks(1)[:, 0] = 0

    def emit_rows(self, prices: np.ndarray) -> None:
        """Record one walk_block block of the price path."""
        if self.record_ticks:
            self._path_blocks.append(prices)

    def emit_row(self, time: int) -> None:
        """Mark the aggregates after an event at tick `time` (called only
        while ticks are recorded)."""
        sums = (self.w_s, self.sq_s, self.w_star, self.sq_star)
        self._check_bounds([sums])
        self._new_marks(1)[:, 0] = (time, *sums)

    def _new_marks(self, k: int) -> np.ndarray:
        """The (5, k) columns of the next k marks, in one buffer whose capacity
        doubles from 1,024: blocks or odd sizes fragmented the heap (+6 MB RSS)."""
        n = self._n_marks
        if n + k > self._marks.shape[1]:
            self._marks = np.pad(self._marks, ((0, 0), (0, max(self._marks.shape[1], k))))
        self._n_marks = n + k
        return self._marks[:, n:n + k]

    def _check_bounds(self, marks) -> None:
        """Refuse the first mark (W_s, SQ_s, W*, SQ*) whose bound 2 * m * (|W| +
        g * |SQ|) reaches 2**63: half of it bounds a PnL at every grid price (g
        the largest grid magnitude), so the diff and drawdowns, and fits int64."""
        g = self._g
        for w_s, sq_s, w_star, sq_star in marks:
            bound = 2 * self.m * max(abs(w_s) + g * abs(sq_s), abs(w_star) + g * abs(sq_star))
            if bound >= 2 ** 63:
                raise SimulationError(
                    f"the tick series would overflow int64 (PnL bound {bound} "
                    f"with instrument.multiplier {self.m}); use a smaller multiplier "
                    f"or strategy.quantity, or set run.record_ticks: false")

    def tick_series(self, final_time: int) -> np.ndarray | None:
        """Rows t = 0 .. final_time of RunReport.ticks: each tick's price
        under the last mark at or before it, so the last event at a tick wins."""
        if not self.record_ticks:
            return None
        mark_t, w_s, sq_s, w_star, sq_star = self._marks[:, :self._n_marks]
        n = final_time + 1
        # One allocation holds the rows, its five column views filled _BLOCK
        # (12,288) ticks at a time: no temporary is series-sized, and a 96 KiB
        # one stays under glibc's 128 KiB mmap threshold, so memory is steady.
        rows = np.empty((n, 5), dtype=np.int64)
        time, price, pnl_s, pnl_star, diff = rows.T
        pos = 0
        for piece in (self.path_prices, *self._path_blocks):
            k = min(len(piece), n - pos)
            price[pos:pos + k] = piece[:k]
            pos += k
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            time[lo:hi] = np.arange(lo, hi)
            at = np.searchsorted(mark_t, time[lo:hi], side="right") - 1
            pnl_s[lo:hi] = self.m * (w_s.take(at) - price[lo:hi] * sq_s.take(at))
            pnl_star[lo:hi] = self.m * (w_star.take(at) - price[lo:hi] * sq_star.take(at))
        np.subtract(pnl_star, pnl_s, out=diff)
        return rows

    # -- report --------------------------------------------------------------

    def build_report(self, seed: int, final_time: int, final_price: int) -> RunReport:
        rows = self.tick_series(final_time)
        # The drawdowns of the pnl_s and pnl_sstar columns; None without ticks.
        dd_s = dd_star = None
        if rows is not None:
            dd_s, dd_star = _max_drawdown(rows[:, 2]), _max_drawdown(rows[:, 3])
        engine = self.engine
        # S fills every intent; S* all but those still queued.
        qty_s = self.order_count * self.config.strategy.quantity
        qty_star = qty_s - sum(e.quantity for e in engine.queue)
        # A failed check raises, so a report exists only when every check
        # passed; each count is how often that check ran.
        verdicts = [{"clause": clause, "passed": True, "checked": checked}
                    for clause, checked in {**self.checked, **engine.checked}.items()]
        return RunReport(
            config=self.config, master_seed=seed,
            final_time=final_time, final_price=final_price,
            final_diff=self.diff(final_price),
            phases=self.phases, records=list(engine.records),
            q_delayed_total=engine.q_delayed_total,
            max_drawdown_s=dd_s, max_drawdown_sstar=dd_star,
            commissions_s=self.config.run.commission_per_unit * qty_s,
            commissions_sstar=self.config.run.commission_per_unit * qty_star,
            stop_reason=self.config.run.stop_reason, verdicts=verdicts,
            ticks=rows, orders_s=self.orders_s, orders_sstar=self.orders_star)


def _max_drawdown(pnl: np.ndarray) -> Money:
    peaks = np.maximum.accumulate(pnl)
    return int(np.subtract(peaks, pnl, out=peaks).max())


def run_simulation(config: RunConfig, master_seed: int | None = None,
                   engine: str = "blocked") -> RunReport:
    """Run one replication to its stopping condition and return the report.

    engine: "blocked" (the default) vectorizes event-free stretches,
    "scalar" steps literally tick by tick.  Both produce identical reports
    for identical seeds.
    """
    seed = config.run.master_seed if master_seed is None else master_seed
    if engine not in ("scalar", "blocked"):
        raise ValueError(f"unknown engine {engine!r}")

    state = _RunState(config, seed)
    if engine == "scalar":
        final_time, final_price = _run_scalar(config, state)
    else:
        final_time, final_price = _run_blocked(config, state)
    return state.build_report(seed, final_time, final_price)


def _run_scalar(config: RunConfig, state: _RunState) -> tuple[int, int]:
    pcfg, scfg, rng = config.price, config.strategy, state.price_rng
    t, price = 0, pcfg.start_price
    path = state.path_prices if state.record_ticks else None
    total = config.run.total_ticks
    pending = None      # the sign of the intent that fills at this tick

    while True:
        t += 1
        price = next_price(price, rng, pcfg)
        if pending is not None:
            state.base_fill(t, price, pending, scfg.quantity)
        pending = baseline_on_tick(scfg, t, state.streams)
        if path is not None:
            path.append(price)
        if state.settle(t, price) or (total is not None and t >= total):
            return t, price


def _run_blocked(config: RunConfig, state: _RunState) -> tuple[int, int]:
    pcfg, scfg, rng = config.price, config.strategy, state.price_rng
    t, price = 0, pcfg.start_price
    total = config.run.total_ticks

    while True:
        n = _BLOCK if total is None else min(_BLOCK, total - t)
        if state.record_ticks or pcfg.kind != REFLECTING_WALK:
            block = PriceBlock(walk_block(price, rng, n, pcfg))
            state.emit_rows(block.prices())
        else:
            block = PriceBlock.reflecting(price, rng, n, pcfg)
        # The intent of tick t + o fills at offset o (tick 0 has none), so
        # each block draws the intents of the ticks before its own.
        first = int(t == 0)
        offsets, signs = intent_block(scfg, t + first, n - first, state.streams)
        stop = _advance_block(config, state, t, n, block, offsets + first, signs)
        if stop is not None:
            return stop
        t, price = t + n, block.last
        if total is not None and t >= total:
            return t, price


def _cloud_prefix(cloud: tuple[int, int], raw: np.ndarray, quantity: int):
    """The cloud (nums[j], dens[j]) after the first j of the bulk fills at
    raw prices raw, j = 0 .. len(raw), in int64 under the int64 guard."""
    return (cloud[0] + np.concatenate(([0], np.cumsum(raw * quantity))),
            cloud[1] + quantity * np.arange(len(raw) + 1))


def _advance_block(config: RunConfig, state: _RunState, t: int, n: int,
                   block: PriceBlock, fill_at: np.ndarray, signs: np.ndarray
                   ) -> tuple[int, int] | None:
    """Apply the fills and releases of the block of ticks t+1 .. t+n, one
    event at a time; returns (tick, price) once the phase target is met.

    The fills before the next event go in bulk; the event goes through
    base_fill or settle, so a fill and a release at one tick keep the
    scalar engine's order.  The delay test, run while the queue is below
    its cap, and _first_release each build only the cloud they read."""
    engine, draws, params = state.engine, state.delay_draws, config.dominance
    quantity = config.strategy.quantity
    raw = block.take(fill_at)
    # int64 guard: bulk sums are at most g * (den + the quantity booked), and
    # the delay and release tests add two such terms; a stretch takes the
    # fills that keep it below 2**62 (none of a quantity beyond int64).
    g = state._g + state.half_spread
    i = pos = 0      # the next fill, the next tick to scan for releases
    while True:
        at, sg, p = fill_at[i:], signs[i:], raw[i:]
        k = len(at)
        # the first fill that is an event, or k
        c = min(k, max(((2 ** 62 - 1) // g - engine.cloud[1]) // quantity, 0))
        stage1 = min(engine.stage1_remaining, c)
        if c and len(engine.queue) < params.queue_cap:
            nums, dens = _cloud_prefix(engine.cloud, p[:c], quantity)
            cand = (draws.peek(c - stage1) < draws.probability) & exceeds_tolerance(
                sg[stage1:c], nums[stage1:c], dens[stage1:c], p[stage1:c], params.tau)
            j = stage1 + np.flatnonzero(cand)
            j = j[spaced_and_reachable(sg[j], p[j], release_level(  # that enqueue
                sg[j], nums[j], dens[j], params.gamma), engine.queue,
                params.min_distance, config.price.grid_min, config.price.grid_max)]
            c = int(j[0]) if len(j) else c
        fill_tick = int(at[c]) if c < k else n
        deadline = engine.backstop_deadline()
        d = n if deadline is None else min(deadline - (t + 1), n)
        r = (_first_release(engine, block, pos, min(fill_tick, d), at[:c], p, quantity)
             if engine.queue else None)
        if r is None and d < n and d <= fill_tick:
            engine.check_phase_backstop(t + 1 + d)   # raises
        m = c if r is None else int(np.searchsorted(at[:c], r, side="right"))
        if m:
            state.mirror_fills(t + 1, at[:m], p[:m], sg[:m], quantity)
        draws.skip(max(m - stage1, 0))
        i += m
        if r is not None:
            tick, price = t + 1 + r, int(block.take(r))
            if state.settle(tick, price):
                return tick, price
            pos = r + 1
        elif c < k:
            # releases at the fill's tick are scanned on the next pass
            state.base_fill(t + 1 + fill_tick, int(p[c]), int(sg[c]), quantity)
            i += 1
            pos = fill_tick
        else:
            return None


def _first_release(engine: DominanceEngine, block: PriceBlock, lo: int, hi: int,
                   fill_at: np.ndarray, raw: np.ndarray, quantity: int) -> int | None:
    """The first block offset in [lo, hi) at which on_tick releases
    something, or None.  fill_at are the bulk fills before hi, at raw
    prices raw; a tick sees the cloud after the j of them at or before it,
    built only once a tick past a frozen bound has bulk fills before it.
    Short of the frozen bounds nothing releases, whatever the cloud does:
    block.bounds screens each side, and only a stretch that may reach a
    frozen bound reads the full path."""
    if hi <= lo:
        return None
    top, bottom = block.bounds(lo, hi)
    sides = [(sign, frozen) for sign, frozen in zip((SELL, BUY), engine.frozen_bounds)
             if frozen is not None and (top >= frozen if sign == SELL else bottom <= frozen)]
    if not sides:
        return None
    seg = block.prices()[lo:hi]
    ticks = lo + np.flatnonzero(np.logical_or.reduce(
        [(seg >= frozen) if sign == SELL else (seg <= frozen) for sign, frozen in sides]))
    if not ticks.size:
        return None
    now = dict(zip((SELL, BUY), engine.current_release_bounds()))
    after = np.searchsorted(fill_at, ticks, side="right")
    j = int(after[-1])       # the bulk fills before the last such tick
    if j:
        nums, dens = _cloud_prefix(engine.cloud, raw[:j], quantity)
    hit, price = np.zeros(len(ticks), dtype=bool), block.take(ticks)
    for sign, frozen in sides:
        # the cloud's level after j bulk fills (before any, the exact current
        # bound), then on_tick's two comparisons
        level = np.full(j + 1, now[sign], dtype=np.int64)
        if j:
            level[1:] = release_level(sign, nums[1:], dens[1:], engine.params.gamma)
        hit |= (sign * (price - level[after]) >= 0) & (sign * (price - frozen) >= 0)
    return int(ticks[np.argmax(hit)]) if hit.any() else None


def replication_seed(master_seed: int, replication: int) -> int:
    """Seed for the k-th replication; replication 0 is the master seed.

    Later replications take a 64-bit word of the master seed's child
    (STREAM_REPLICATION, k), clear of the run's own substreams, so the
    replications of one master seed never reuse another master's seeds."""
    if replication == 0:
        return master_seed
    child = np.random.SeedSequence(master_seed,
                                   spawn_key=(STREAM_REPLICATION, replication))
    return int(child.generate_state(1, np.uint64)[0])


# -- parameter sweeps ---------------------------------------------------------

_SWEEPABLE = ("tau", "gamma", "delay_probability", "queue_cap")


@dataclass(frozen=True)
class SweepRow:
    cell: dict
    replication: int
    seed: int
    status: str                  # "ok" or "skipped"
    note: str = ""
    final_diff: Money = 0
    phases_completed: int = 0
    q_delayed: int = 0
    n_delayed: int = 0
    mean_gap: Fraction | None = None


def sweep(config: RunConfig, grid: Mapping[str, Sequence]) -> list[SweepRow]:
    """One run per grid cell per replication, deterministic seeds per cell.

    Cells that fail parameter validation are marked skipped, not fatal.
    Replication seeds are shared across cells so cells are paired.
    """
    for key in grid:
        if key not in _SWEEPABLE:
            raise ValueError(f"cannot sweep over {key!r}; "
                             f"sweepable: {', '.join(_SWEEPABLE)}")
    keys = list(grid)
    rows: list[SweepRow] = []
    for values in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, values))
        for rep in range(config.run.replications):
            seed = replication_seed(config.run.master_seed, rep)
            try:
                cell_config = replace(
                    config, dominance=replace(config.dominance, **cell),
                    run=replace(config.run, record_ticks=False))
            except ValueError as exc:
                rows.append(SweepRow(cell=cell, replication=rep, seed=seed,
                                     status="skipped", note=str(exc)))
                continue
            report = run_simulation(cell_config, master_seed=seed)
            rows.append(SweepRow(
                cell=cell, replication=rep, seed=seed, status="ok",
                final_diff=report.final_diff,
                phases_completed=report.phases_completed,
                q_delayed=report.q_delayed_total,
                n_delayed=len(report.records),
                mean_gap=report.mean_order_gap))
    return rows
