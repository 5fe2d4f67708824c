"""The delayed-execution overlay strategy and its proof-chain checks.

The overlay runs alongside a baseline and fills the same orders, except
that during its second stage it may hold an order back in a bounded
queue and release it later at a strictly better price.  The engine is a
phase/stage state machine:

  Stage 1   mirror the next stage1_fill_count baseline fills exactly,
            seeding the overlay's own order cloud.
  Stage 2   each new baseline fill is a delay candidate: one Bernoulli
            draw, then the tolerance test against the overlay's own
            gravity center (sign * (C - P) > tau), a queue-capacity
            check, an optional minimum price spacing against queued
            entries, and a reachability guard keeping the implied gain
            level inside the grid.  Candidates that pass are enqueued
            with a frozen snapshot of the gravity center; all others
            fill immediately, identically to the baseline.

The order cloud is the pair (sum p*q, sum q) over the overlay's own
fills; its gravity center C is their exact ratio.  Every tick the queue
is scanned in enqueue order and an entry is released once the price
clears its gain level, sign * (P - minmax_sign(C_now, C_frozen)) > gamma,
where minmax_sign is the max for a sell and the min for a buy.  As
release_level is monotone in its anchor, that is two integer comparisons:
P against the current cloud's level and against frozen_trigger, the
frozen center's.  The frozen snapshot anchors the level, which yields the
per-order guarantee

    sign * (execution_price - delay_price) > gamma + tau   (exact)

and, summed over a phase, the lower bound on the PnL difference checked
by phase_pnl_diff_check.  A phase ends when the queue empties after at
least one delay; the engine then re-enters Stage 1.

Decision inputs (gravity center, tolerance and gain tests, spacing
filter) are computed on unadjusted grid prices so that commissions and
the bid/ask half-spread can never alter the decision path; fills carry
side-adjusted prices and the adjustments cancel exactly in every
difference the checks assert.

All event comparisons are exact: integer cross-multiplication against
the rational gravity center, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .accounting import pnl_direct
from .market import BUY, SELL, Instrument, Money, Order, fill_price

MIRROR = "mirror"
ENQUEUE = "enqueue"
FORCED = "forced"

# Stable clause identifiers shared by the in-run checks and the offline
# audit in edgesim.verify.
CLAUSE_PER_ORDER_GAP = "per_order_gap"
CLAUSE_PHASE_IDENTITY = "phase_end_identity"
CLAUSE_LOWER_BOUND = "phase_lower_bound"
CLAUSE_POSITIVITY = "phase_positivity"
CLAUSE_MONOTONICITY = "phase_monotonicity"
CLAUSE_QUEUE_CAP = "queue_cap"
CLAUSE_POSITION_MATCH = "phase_position_match"
CLAUSE_TICK_CONSISTENCY = "tick_phase_consistency"


class SimulationError(Exception):
    pass


class StrandedOrderError(SimulationError):
    """A queued order waited longer than its tick budget (max_phase_ticks);
    entries are the orders still queued, oldest first."""

    def __init__(self, phase_index: int, max_ticks: int,
                 entries: Sequence["DelayQueueEntry"]):
        self.phase_index = phase_index
        self.max_ticks = max_ticks
        self.entries = tuple(entries)
        names = ", ".join(f"order {e.order_id} (sign {e.sign:+d}, "
                          f"delayed at t={e.delay_time})" for e in entries)
        super().__init__(
            f"phase {phase_index}: the oldest queued order waited more than "
            f"{max_ticks} ticks; {len(entries)} queued order(s): {names}; "
            f"the recurrence precondition or parameter validation has failed")


class InvariantViolation(SimulationError):
    def __init__(self, clause: str, message: str):
        self.clause = clause
        super().__init__(f"[{clause}] {message}")


@dataclass(frozen=True)
class DominanceParams:
    tau: int = 25
    gamma: int = 25
    delay_probability: Fraction = Fraction(1, 2)   # 0: the overlay is S
    queue_cap: int = 3
    min_distance: int = 0          # 0 disables the spacing filter
    stage1_fill_count: int = 5
    max_phase_ticks: int = 50_000_000

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError("tau must be >= 1 tick")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1 tick")
        if not 0 <= self.delay_probability <= 1:
            raise ValueError("delay_probability must be in [0, 1]")
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        if self.min_distance < 0:
            raise ValueError("min_distance must be >= 0")
        if self.stage1_fill_count < 1:
            raise ValueError("stage1_fill_count must be >= 1")
        if self.max_phase_ticks < 1:
            raise ValueError("max_phase_ticks must be >= 1")

    def validate_for_grid(self, grid_min: int, grid_max: int) -> None:
        if 2 * (self.tau + self.gamma) >= grid_max - grid_min:
            raise ValueError(
                f"tau + gamma = {self.tau + self.gamma} must be strictly "
                f"less than half the grid width {grid_max - grid_min}")


@dataclass(frozen=True)
class DelayQueueEntry:
    """A delayed order plus the context frozen at delay time."""
    order_id: int
    sign: int
    quantity: int
    delay_time: int
    base_fill_price: int      # price the baseline actually paid (side-adjusted)
    delay_grid_price: int     # unadjusted grid price at the delay tick
    gravity_num: int          # gravity center at delay time, as an exact pair
    gravity_den: int
    frozen_trigger: int       # first grid price that could ever release this entry


@dataclass(frozen=True)
class DelayedOrderRecord(DelayQueueEntry):
    """One completed delay: its queue entry plus the execution."""
    execution_time: int
    execution_price: int

    @property
    def gap(self) -> int:
        """sign * (execution price - delay price); exceeds gamma + tau."""
        return self.sign * (self.execution_price - self.base_fill_price)


@dataclass(frozen=True)
class PhaseReport:
    """End-of-phase snapshot; quantities and the PnL difference are
    cumulative from the start of the run, records are this phase's."""
    phase_index: int
    end_time: int
    delayed_quantity: int
    pnl_diff: Money
    lower_bound: Money
    records: tuple[DelayedOrderRecord, ...]

    @property
    def n_delayed(self) -> int:
        return len(self.records)


def exceeds_tolerance(sign, num, den, raw_price, tau):
    """The delay test sign * (C - P) > tau against the cloud C = num/den
    (den > 0); elementwise on int64 arrays whose products fit."""
    return sign * (num - raw_price * den) > tau * den


def release_level(sign: int, num: int, den: int, gamma: int) -> int:
    """The gain level of a rational anchor num/den (den > 0) as a grid
    price: the smallest P with P > num/den + gamma for a sell, the largest
    P with P < num/den - gamma for a buy.  An entry releases at P exactly
    when sign * (P - level) >= 0.  Nondecreasing in the anchor, so P
    clears the level of minmax_sign(a, b) exactly when it clears both."""
    return sign * ((sign * num + gamma * den) // den + 1)


def spaced_and_reachable(sign, raw_price, level, queue, min_distance,
                         grid_min, grid_max):
    """The delay test's last terms: each queued delay price lies more than
    min_distance (0: off) beyond raw_price on the candidate's side, and the
    gain level is a grid price, so a release can happen; elementwise too."""
    ok = (grid_min <= level) & (level <= grid_max)
    if min_distance > 0:
        for e in queue:
            ok = ok & (sign * (e.delay_grid_price - raw_price) > min_distance)
    return ok


class DominanceEngine:
    """One overlay instance: phase state machine, cloud, delay queue.

    The engine owns the overlay's decision state only; order histories
    and PnL aggregation live in the harness.  delay_draw is called once
    per Stage-2 fill and returns True when the Bernoulli delay
    variable comes up 1.
    """

    def __init__(self, params: DominanceParams, grid_min: int, grid_max: int,
                 half_spread: int, delay_draw: Callable[[], bool]):
        params.validate_for_grid(grid_min, grid_max)
        if half_spread < 0:
            raise ValueError("half_spread must be >= 0")
        self.params = params
        self.grid_min = grid_min
        self.grid_max = grid_max
        self.half_spread = half_spread
        self.delay_draw = delay_draw

        # Order cloud over unadjusted grid prices: sum p*q and sum q.
        self._cloud_num = self._cloud_den = 0

        self.phase_index = 1
        self.stage1_remaining = params.stage1_fill_count
        self.queue: list[DelayQueueEntry] = []

        self.records: list[DelayedOrderRecord] = []
        self._phase_start = 0         # records[_phase_start:] are this phase's
        self.last_phase_records: tuple[DelayedOrderRecord, ...] = ()
        self.q_delayed_total = 0      # cumulative quantity over delayed orders
        self.gap_weighted_total = 0   # cumulative sum sign*(p_exec - p_delay)*qty
        # How many times each in-run check ran (the run's verdict counts).
        self.checked = {CLAUSE_PER_ORDER_GAP: 0, CLAUSE_QUEUE_CAP: 0}

    # -- cloud ---------------------------------------------------------

    def _cloud_add(self, quantity: int, raw_price: int) -> None:
        self._cloud_num += raw_price * quantity
        self._cloud_den += quantity

    def gravity(self) -> Fraction | None:
        """The gravity center of the overlay's fills; None before the first."""
        if self._cloud_den == 0:
            return None
        return Fraction(self._cloud_num, self._cloud_den)

    @property
    def cloud(self) -> tuple[int, int]:
        """The order cloud as the exact pair (sum p*q, sum q)."""
        return self._cloud_num, self._cloud_den

    # -- phase bookkeeping ----------------------------------------------

    @property
    def stage(self) -> int:
        return 1 if self.stage1_remaining else 2

    @property
    def frozen_bounds(self) -> tuple[int | None, int | None]:
        """The lowest sell and highest buy frozen_trigger queued (None: no
        such entry).  No entry releases short of them, whatever the cloud
        does, so a price stretch that reaches neither releases nothing."""
        sells = [e.frozen_trigger for e in self.queue if e.sign == SELL]
        buys = [e.frozen_trigger for e in self.queue if e.sign != SELL]
        return min(sells, default=None), max(buys, default=None)

    def backstop_deadline(self) -> int | None:
        """The first tick at which the oldest queued order has waited more
        than max_phase_ticks; None while the queue is empty."""
        if not self.queue:
            return None
        return self.queue[0].delay_time + self.params.max_phase_ticks + 1

    def check_phase_backstop(self, time: int) -> None:
        """Raise StrandedOrderError once the oldest queued order has waited
        more than max_phase_ticks; an empty queue strands nothing."""
        deadline = self.backstop_deadline()
        if deadline is not None and time >= deadline:
            raise StrandedOrderError(self.phase_index,
                                     self.params.max_phase_ticks, self.queue)

    def _roll_phase(self) -> None:
        self.last_phase_records = tuple(self.records[self._phase_start:])
        self._phase_start = len(self.records)
        self.phase_index += 1
        self.stage1_remaining = self.params.stage1_fill_count

    # -- events ----------------------------------------------------------

    def mirror_fills(self, raw_prices: np.ndarray, quantity: int) -> None:
        """on_base_fill for fills in bulk that the caller knows none of
        enqueues, their delay draws taken: add them to the cloud."""
        self._cloud_num += int(raw_prices.sum()) * quantity
        self._cloud_den += len(raw_prices) * quantity
        self.stage1_remaining = max(self.stage1_remaining - len(raw_prices), 0)

    def on_base_fill(self, order_id: int, sign: int, quantity: int, time: int,
                     raw_price: int, base_fill_price: int) -> str:
        """Decide the overlay's action for one baseline fill.

        Returns MIRROR or FORCED when the overlay fills at once, at the
        baseline's price, ENQUEUE when the order is delayed.  FORCED: a
        candidate past the Bernoulli and tolerance tests that the queue
        cap or spaced_and_reachable blocks.  The blocked engine calls this
        only for the fills that enqueue, where its int64 sums fit.
        """
        self.check_phase_backstop(time)
        if self.stage1_remaining:
            self._cloud_add(quantity, raw_price)
            self.stage1_remaining -= 1
            return MIRROR

        # Stage 2 follows at least one fill, so den >= 1.
        num, den = self._cloud_num, self._cloud_den
        if not (self.delay_draw()
                and exceeds_tolerance(sign, num, den, raw_price, self.params.tau)):
            self._cloud_add(quantity, raw_price)
            return MIRROR

        level = release_level(sign, num, den, self.params.gamma)
        if (len(self.queue) >= self.params.queue_cap
                or not spaced_and_reachable(sign, raw_price, level, self.queue,
                                            self.params.min_distance,
                                            self.grid_min, self.grid_max)):
            self._cloud_add(quantity, raw_price)
            return FORCED

        # delta_T = sign * (P - C) + tau, times den > 0
        delta_t = sign * (raw_price * den - num) + self.params.tau * den
        self.checked[CLAUSE_PER_ORDER_GAP] += 1
        if delta_t >= 0:
            raise InvariantViolation(CLAUSE_PER_ORDER_GAP, f"delta_T at delay must "
                                     f"be < 0, got {Fraction(delta_t, den)}")
        self.queue.append(DelayQueueEntry(
            order_id=order_id, sign=sign, quantity=quantity, delay_time=time,
            base_fill_price=base_fill_price, delay_grid_price=raw_price,
            gravity_num=num, gravity_den=den, frozen_trigger=level))
        self.checked[CLAUSE_QUEUE_CAP] += 1
        if len(self.queue) > self.params.queue_cap:
            raise InvariantViolation(
                CLAUSE_QUEUE_CAP,
                f"order {order_id}: {len(self.queue)} queued orders exceed "
                f"queue_cap = {self.params.queue_cap}")
        return ENQUEUE

    def on_tick(self, time: int,
                raw_price: int) -> tuple[list[DelayedOrderRecord], bool]:
        """Scan the queue once in enqueue order and release every entry
        whose gain threshold is cleared at this tick's price.

        Released entries update the cloud immediately, so later entries
        in the same pass see the updated gravity center.  Returns the
        executed records and whether the phase ended at this tick.
        """
        self.check_phase_backstop(time)
        executed: list[DelayedOrderRecord] = []
        remaining: list[DelayQueueEntry] = []
        gamma, margin = self.params.gamma, self.params.gamma + self.params.tau
        for entry in self.queue:
            sign = entry.sign
            level = release_level(sign, self._cloud_num, self._cloud_den, gamma)
            if (sign * (raw_price - level) < 0
                    or sign * (raw_price - entry.frozen_trigger) < 0):
                remaining.append(entry)
                continue
            record = DelayedOrderRecord(
                **vars(entry), execution_time=time,
                execution_price=fill_price(raw_price, sign, self.half_spread))
            self.checked[CLAUSE_PER_ORDER_GAP] += 1
            if record.gap <= margin:
                raise InvariantViolation(
                    CLAUSE_PER_ORDER_GAP, f"order {entry.order_id}: gap {record.gap} "
                    f"ticks does not exceed gamma + tau = {margin}")
            self._cloud_add(entry.quantity, raw_price)
            self.records.append(record)
            self.q_delayed_total += entry.quantity
            self.gap_weighted_total += record.gap * entry.quantity
            executed.append(record)
        self.queue = remaining

        # A phase starts with an empty queue and an entry leaves it only by
        # release, so a release this phase and an empty queue end it.
        phase_ended = len(self.records) > self._phase_start and not self.queue
        if phase_ended:
            self._roll_phase()
        return executed, phase_ended

    # -- block-engine support ---------------------------------------------

    def current_release_bounds(self) -> tuple[int | None, int | None]:
        """Exact release bounds for the current cloud and queue: on_tick
        releases something at P exactly when P >= the sell bound or P <=
        the buy bound (None: no such entry).  By release_level's identity
        they are the current cloud's level against the frozen bounds."""
        num, den, gamma = self._cloud_num, self._cloud_den, self.params.gamma
        sell, buy = self.frozen_bounds
        return (None if sell is None else max(release_level(SELL, num, den, gamma), sell),
                None if buy is None else min(release_level(BUY, num, den, gamma), buy))


def phase_clause_failures(diff: Money, derived: Iterable[Money], q_delayed: int,
                          n_delayed: int, lower_bound: Money, previous_diff: Money,
                          multiplier: int, params: DominanceParams) -> list[str]:
    """The phase-end clauses that diff violates: identity with each derived
    diff, the bound m * Q_D * (gamma + tau) recorded and met, positivity
    once Q_D >= 1, monotonicity (strict if the phase delayed an order).
    The run, the oracle and the auditor each pass their own numbers."""
    failures = []
    if any(diff != value for value in derived):
        failures.append(CLAUSE_PHASE_IDENTITY)
    bound = multiplier * q_delayed * (params.gamma + params.tau)
    if lower_bound != bound or diff < bound:
        failures.append(CLAUSE_LOWER_BOUND)
    if q_delayed >= 1 and diff <= 0:
        failures.append(CLAUSE_POSITIVITY)
    if diff < previous_diff or (n_delayed >= 1 and diff <= previous_diff):
        failures.append(CLAUSE_MONOTONICITY)
    return failures


def phase_pnl_diff_check(report: PhaseReport, previous_diff: Money,
                         cumulative_records: Iterable[DelayedOrderRecord],
                         orders_s: Sequence[Order], orders_sstar: Sequence[Order],
                         price: int, instrument: Instrument,
                         params: DominanceParams) -> list[str]:
    """The clauses violated by the PnL difference that accounting.pnl_direct
    re-sums from the two full order histories (independent of the engine's
    bookkeeping), judged against the engine's diff and the delayed-order
    telescoping sum; empty means the phase passes."""
    diff = (pnl_direct(orders_sstar, price, instrument)
            - pnl_direct(orders_s, price, instrument))
    m = instrument.multiplier
    telescoping = m * sum(r.gap * r.quantity for r in cumulative_records)
    return phase_clause_failures(diff, (report.pnl_diff, telescoping),
                                 report.delayed_quantity, report.n_delayed,
                                 report.lower_bound, previous_diff, m, params)
