"""Exact PnL computation in three equivalent forms, plus lot matching.

Every function here returns integer quanta and the three PnL forms agree
with exact equality for any order set and any mark price:

  * the direct form, summing signed price differences order by order,
  * the position form, total sold minus total bought plus the marked
    value of the open position,
  * the decomposed form, realized plus unrealized under a lot matching
    method (FIFO or LIFO).

The decomposition depends on the matching method; the total never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .market import BUY, SELL, Instrument, Money, Order, OrderLog

FIFO = "fifo"
LIFO = "lifo"


@dataclass(frozen=True)
class LotMatch:
    """A matched sell-buy quantity at its two fill prices."""
    sell_price: int
    buy_price: int
    quantity: int

    def __post_init__(self) -> None:
        if self.quantity < 1:
            raise ValueError(f"match quantity must be >= 1, got {self.quantity}")


@dataclass(frozen=True)
class UnmatchedLot:
    """Residual open quantity left over after matching."""
    sign: int
    price: int
    quantity: int

    def __post_init__(self) -> None:
        if self.sign not in (SELL, BUY):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.quantity < 1:
            raise ValueError(f"lot quantity must be >= 1, got {self.quantity}")


@dataclass(frozen=True)
class PnLBreakdown:
    realized: Money
    unrealized: Money
    total: Money

    def __post_init__(self) -> None:
        if self.total != self.realized + self.unrealized:
            raise ValueError("total must equal realized + unrealized exactly")


def signed_open_position(orders: Iterable[Order]) -> int:
    """Signed open position: bought quantity minus sold quantity."""
    return -sum(o.sign * o.quantity for o in orders)


def position_value(pos: int, price: int, instrument: Instrument) -> Money:
    """Marked value of an open position at the given grid price."""
    return instrument.multiplier * price * pos


def pnl_direct(orders: Iterable[Order], price: int,
               instrument: Instrument) -> Money:
    """PnL as the sum of signed weighted price differences, order by order,
    over an OrderLog's columns (other orders are made one): in int64 where
    m * max|p - P| * n * max q < 2**63 proves every partial sum exact (as
    signs are +-1 and quantities >= 1), else in Python ints."""
    log = orders if isinstance(orders, OrderLog) else OrderLog(orders)
    _, _, sign, p, q = log.columns()
    m = instrument.multiplier
    if len(q) and q.dtype == np.int64 and -2 ** 63 <= price < 2 ** 63:
        spread = max(int(p.max()) - price, price - int(p.min()))
        if m * spread * len(q) * int(q.max()) < 2 ** 63:
            return m * int((sign * (p - price) * q).sum())
    return m * sum(s * (x - price) * n
                   for s, x, n in zip(sign.tolist(), p.tolist(), q.tolist()))


def pnl_via_position(orders: Iterable[Order], price: int,
                     instrument: Instrument) -> Money:
    """PnL as total sold minus total bought plus the marked open position.

    Computed along an independent arithmetic path; equals pnl_direct exactly.
    """
    m = instrument.multiplier
    sold = bought = pos = 0
    for o in orders:
        if o.sign == SELL:
            sold += o.price * o.quantity
            pos -= o.quantity
        else:
            bought += o.price * o.quantity
            pos += o.quantity
    return m * (sold - bought) + position_value(pos, price, instrument)


def match_lots(orders: Sequence[Order],
               method: str = FIFO) -> tuple[list[LotMatch], list[UnmatchedLot]]:
    """Pair sell and buy quantities using FIFO or LIFO queue discipline.

    Orders are processed in sequence.  An incoming order consumes open lots
    of the opposite side (from the front for FIFO, from the back for LIFO),
    splitting the last lot when quantities differ; any residual quantity
    becomes a new open lot on its own side.  The remaining open lots are
    necessarily all of one sign.
    """
    if method not in (FIFO, LIFO):
        raise ValueError(f"unknown matching method {method!r}")
    matches: list[LotMatch] = []
    open_lots: list[list[int]] = []   # [price, quantity], all sharing open_sign
    open_sign = 0

    for o in orders:
        qty = o.quantity
        if open_sign == -o.sign:
            while qty > 0 and open_lots:
                lot = open_lots[0] if method == FIFO else open_lots[-1]
                take = min(qty, lot[1])
                if o.sign == SELL:
                    matches.append(LotMatch(o.price, lot[0], take))
                else:
                    matches.append(LotMatch(lot[0], o.price, take))
                lot[1] -= take
                qty -= take
                if lot[1] == 0:
                    open_lots.pop(0 if method == FIFO else -1)
        if qty > 0:
            if not open_lots:
                open_sign = o.sign
            open_lots.append([o.price, qty])

    unmatched = [UnmatchedLot(open_sign, price, q) for price, q in open_lots]
    return matches, unmatched


def pnl_decomposed(matches: Iterable[LotMatch], unmatched: Iterable[UnmatchedLot],
                   price: int, instrument: Instrument) -> PnLBreakdown:
    """Realized and unrealized PnL from a lot matching result."""
    m = instrument.multiplier
    realized = m * sum((x.sell_price - x.buy_price) * x.quantity for x in matches)
    unrealized = m * sum(u.sign * (u.price - price) * u.quantity for u in unmatched)
    return PnLBreakdown(realized, unrealized, realized + unrealized)
