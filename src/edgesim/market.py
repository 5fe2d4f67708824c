"""Instruments, tick-grid prices, orders, and exact money arithmetic.

All prices are integer tick indices on a finite grid.  All money amounts
are carried as exact signed integers ("quanta"): one quantum is the value
of one tick of price movement on one unit of quantity, already scaled by
the instrument multiplier.  Conversion to currency happens only at the
reporting boundary, so every accounting identity elsewhere in the package
can be checked with exact integer equality.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

# Exact signed integer count of tick-value quanta.
Money = int

# PnL-contribution sign of an order's side.
SELL = +1
BUY = -1


@dataclass(frozen=True)
class Instrument:
    """A tradable instrument.

    multiplier is the currency value of one full price point per unit of
    quantity; tick_size is the price increment in currency.  The tick grid
    belongs to the price process (PriceProcessConfig.grid_min/grid_max).
    """
    symbol: str = "SIM"
    multiplier: int = 1
    tick_size: Decimal = Decimal("0.01")

    def __post_init__(self) -> None:
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (Decimal(self.tick_size).is_finite() and self.tick_size > 0):
            raise ValueError(f"tick_size must be finite and > 0, "
                             f"got {self.tick_size}")


@dataclass(frozen=True)
class Order:
    """One fill: (id, time, sign, price, quantity).

    price is an integer tick index; sign is +1 (sell) or -1 (buy).
    """
    id: int
    time: int
    sign: int
    price: int
    quantity: int

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"order id must be >= 1, got {self.id}")
        if self.time < 0:
            raise ValueError(f"order time must be >= 0, got {self.time}")
        if self.sign not in (SELL, BUY):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")


class OrderLog(Sequence[Order]):
    """Append-only fills as a list of (5, k) column blocks: id, time, sign,
    price, quantity, in int64, or as objects where a value does not fit.
    Logs share blocks (S and S* the bulk fills they both take), so a block
    is never written after it is appended.  Read as a Sequence[Order], each Order is
    built, and validated, on access; a log equals a log or list of the same
    rows."""

    def __init__(self, orders: Iterable[Order] = ()):
        rows = [(o.id, o.time, o.sign, o.price, o.quantity) for o in orders]
        self._blocks = [int64_array(rows).reshape(-1, 5).T]

    def append(self, *row: int) -> np.ndarray:
        """Append one row, id, time, sign, price, quantity, as a (5, 1) block; return it."""
        self._blocks.append(block := int64_array(row).reshape(5, 1))
        return block

    def append_block(self, block: np.ndarray) -> None:
        """Append a (5, k) block of rows; the log keeps it as it is."""
        self._blocks.append(block)

    def columns(self) -> np.ndarray:
        """Every row so far, joined afresh: the log keeps only its blocks."""
        return np.concatenate(self._blocks, axis=1)

    def __len__(self) -> int:
        return sum(block.shape[1] for block in self._blocks)

    def __getitem__(self, index):
        rows = self.columns()[:, index].T.tolist()
        return [Order(*row) for row in rows] if isinstance(index, slice) else Order(*rows)

    def __iter__(self):
        return (Order(*row) for row in self.columns().T.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, OrderLog):
            return bool(np.array_equal(self.columns(), other.columns()))
        return list(self) == list(other) if isinstance(other, (list, tuple)) else NotImplemented

    def __repr__(self) -> str:
        return f"OrderLog({list(self)!r})"


def int64_array(values) -> np.ndarray:
    """values as an int64 array, or as an object array where one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def quanta_to_currency(quanta: Money, instrument: Instrument) -> Decimal:
    """Render a quanta amount in currency.

    Quanta already carry the multiplier (they are multiplier * ticks * qty),
    so rendering only scales by the tick size.
    """
    return quanta * instrument.tick_size


def fill_price(raw_price: int, sign: int, half_spread: int) -> int:
    """Side-adjusted fill price: buys fill at P + spread, sells at P - spread."""
    return raw_price - sign * half_spread
