"""Baseline strategies that never see their own fill history.

A baseline's output is a pure function of (config, tick clock, own random
substreams): neither the price path nor anything downstream of a fill
feeds back.  The replay test in the suite checks that a baseline's intent
sequence is bit-identical whether or not an overlay strategy runs
alongside it.

An intent is the PnL sign of its side (market.SELL = +1, market.BUY =
-1); every intent is for config.quantity.

The bernoulli trader consumes one uniform per tick from its intent stream
and, only when an intent fires, one uniform from its side stream; keeping
the two streams separate lets the harness pre-draw intent uniforms in
blocks without disturbing side draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .market import BUY, SELL
from .prices import STREAM_INTENT, STREAM_SIDE, substream

BERNOULLI_TRADER = "bernoulli_trader"
PERIODIC_ALTERNATOR = "periodic_alternator"


@dataclass(frozen=True)
class BaselineConfig:
    kind: str = BERNOULLI_TRADER
    order_probability: Fraction = Fraction(1, 50)
    period: int = 10
    quantity: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (BERNOULLI_TRADER, PERIODIC_ALTERNATOR):
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.kind == BERNOULLI_TRADER and not 0 < self.order_probability <= 1:
            raise ValueError("order_probability must be in (0, 1]")
        if self.kind == PERIODIC_ALTERNATOR and self.period < 1:
            raise ValueError("period must be >= 1")
        if self.quantity < 1:
            raise ValueError("quantity must be >= 1")


@dataclass
class BaselineStreams:
    """The two random substreams a baseline owns."""
    intent: np.random.Generator
    side: np.random.Generator


def baseline_streams(master_seed: int) -> BaselineStreams:
    return BaselineStreams(intent=substream(master_seed, STREAM_INTENT),
                           side=substream(master_seed, STREAM_SIDE))


def baseline_on_tick(config: BaselineConfig, time: int,
                     streams: BaselineStreams) -> int | None:
    """The sign of this tick's intent (BUY or SELL), or None.

    bernoulli_trader: with order_probability, an intent with a uniformly
    random side.  periodic_alternator: an intent every `period` ticks,
    alternating sides (buy first).  Fill history never enters here.
    """
    if config.kind == BERNOULLI_TRADER:
        if streams.intent.random() < float(config.order_probability):
            return BUY if streams.side.random() < 0.5 else SELL
        return None
    if time > 0 and time % config.period == 0:
        return BUY if (time // config.period) % 2 == 1 else SELL
    return None


def intent_block(config: BaselineConfig, start_time: int, n: int,
                 streams: BaselineStreams) -> tuple[np.ndarray, np.ndarray]:
    """Intent decisions for ticks start_time .. start_time+n-1 in bulk.

    Returns (offsets, signs): offsets are block-relative tick indices with
    an intent; signs[i] is the i-th intent's sign, as baseline_on_tick
    returns it.  Stream consumption matches baseline_on_tick called once
    per tick.
    """
    if config.kind == BERNOULLI_TRADER:
        u = streams.intent.random(n)
        offsets = np.flatnonzero(u < float(config.order_probability))
        side_u = streams.side.random(len(offsets))
        return offsets, np.where(side_u < 0.5, BUY, SELL)
    times = np.arange(start_time, start_time + n)
    fire = (times > 0) & (times % config.period == 0)
    offsets = np.flatnonzero(fire)
    return offsets, np.where((times[offsets] // config.period) % 2 == 1, BUY, SELL)
