from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesim.market import (BUY, SELL, Instrument, Order, OrderLog, fill_price,
                            quanta_to_currency)

CENT = Instrument("SIM", 1, Decimal("0.01"))


def test_quanta_rendering_scales_by_tick_size_only():
    # quanta already include the multiplier
    assert quanta_to_currency(500, CENT) == Decimal("5.00")
    assert quanta_to_currency(-250, CENT) == Decimal("-2.50")


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([SELL, BUY]),
       st.integers(min_value=9000, max_value=11000),
       st.integers(min_value=1, max_value=1000))
def test_order_accepts_valid_fields(oid, time, sign, price, qty):
    o = Order(oid, time, sign, price, qty)
    assert o.sign in (SELL, BUY)
    assert o.quantity >= 1


@pytest.mark.parametrize("kwargs", [
    dict(id=0, time=0, sign=SELL, price=10000, quantity=1),
    dict(id=1, time=-1, sign=SELL, price=10000, quantity=1),
    dict(id=1, time=0, sign=0, price=10000, quantity=1),
    dict(id=1, time=0, sign=2, price=10000, quantity=1),
    dict(id=1, time=0, sign=BUY, price=10000, quantity=0),
])
def test_order_rejects_invalid_fields(kwargs):
    with pytest.raises(ValueError):
        Order(**kwargs)


def test_instrument_validation():
    with pytest.raises(ValueError):
        Instrument("X", 0, Decimal("0.01"))
    with pytest.raises(ValueError):
        Instrument("X", 1, Decimal("0"))
    for tick in ("NaN", "sNaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match="tick_size"):
            Instrument("X", 1, Decimal(tick))


def test_fill_price_adjustment():
    # buys pay up, sells receive less
    assert fill_price(10000, BUY, 2) == 10002
    assert fill_price(10000, SELL, 2) == 9998
    assert fill_price(10000, BUY, 0) == 10000
    assert fill_price(10000, SELL, 0) == 10000


# -- the order log -------------------------------------------------------------

def _block(*rows):
    return np.array(rows, dtype=np.int64).T


def test_order_log_keeps_append_order_across_rows_and_blocks():
    log = OrderLog()
    log.append(1, 1, SELL, 100, 1)
    log.append_block(_block((2, 2, BUY, 101, 1), (3, 2, SELL, 99, 1)))
    log.append(4, 3, BUY, 100, 2)
    log.append(5, 4, SELL, 102, 1)
    assert [o.id for o in log] == [1, 2, 3, 4, 5]    # joins and keeps
    log.append_block(_block((6, 5, BUY, 98, 1)))
    log.append(7, 6, SELL, 97, 3)
    assert [o.id for o in log] == [1, 2, 3, 4, 5, 6, 7]
    assert len(log) == 7
    assert log[3] == Order(4, 3, BUY, 100, 2)
    assert log[-1] == Order(7, 6, SELL, 97, 3)
    assert log[1:3] == [Order(2, 2, BUY, 101, 1), Order(3, 2, SELL, 99, 1)]
    with pytest.raises(IndexError):
        log[7]
    assert all(type(v) is int for o in log for v in vars(o).values())


def test_order_log_equals_by_value():
    orders = [Order(1, 0, SELL, 100, 1), Order(2, 3, BUY, 101, 2)]
    log = OrderLog()
    log.append_block(_block((1, 0, SELL, 100, 1)))
    log.append(2, 3, BUY, 101, 2)
    assert log == OrderLog(orders) == orders
    assert orders == log and tuple(orders) == log
    assert log != orders[:1] and log != OrderLog(orders[:1])
    assert log != OrderLog([orders[0], Order(2, 3, BUY, 102, 2)])
    assert OrderLog() == [] and OrderLog() != "" and OrderLog() != 0


def test_order_log_holds_values_beyond_int64_as_object_columns():
    log = OrderLog()
    log.append_block(_block((1, 0, BUY, 5, 1)))
    log.append(2, 1, SELL, 2 ** 63, 2)
    assert log.columns().dtype == object
    assert list(log) == [Order(1, 0, BUY, 5, 1), Order(2, 1, SELL, 2 ** 63, 2)]


def test_order_log_validates_orders_on_access():
    log = OrderLog()
    log.append(1, 0, 0, 100, 1)      # sign 0 is not a fill
    assert len(log) == 1
    with pytest.raises(ValueError, match="sign"):
        log[0]
