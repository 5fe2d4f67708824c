from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesim.market import (BUY, SELL, Instrument, Order, fill_price,
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
