import builtins
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import accounting
from edgesim.accounting import (FIFO, LIFO, match_lots, pnl_decomposed,
                                pnl_direct, pnl_via_position, position_value,
                                signed_open_position)
from edgesim.market import BUY, SELL, Instrument, Order, OrderLog

INST = Instrument("SIM", 1, Decimal("0.01"))


def o(id_, sign, price, qty, time=0):
    return Order(id_, time, sign, price, qty)


orders_strategy = st.lists(
    st.tuples(st.sampled_from([SELL, BUY]),
              st.integers(min_value=9000, max_value=11000),
              st.integers(min_value=1, max_value=20)),
    max_size=50,
).map(lambda rows: [o(i + 1, s, p, q) for i, (s, p, q) in enumerate(rows)])

price_strategy = st.integers(min_value=9000, max_value=11000)


# -- signed open position -----------------------------------------------------

def test_position_empty():
    assert signed_open_position([]) == 0


def test_position_net_long():
    assert signed_open_position([o(1, BUY, 10000, 5), o(2, SELL, 10100, 2)]) == 3


def test_position_symmetric_cancellation():
    assert signed_open_position([o(1, BUY, 10000, 1), o(2, SELL, 10500, 1)]) == 0


# -- position value ------------------------------------------------------------

def test_position_value_zero():
    for price in (9000, 10400, 11000):
        assert position_value(0, price, INST) == 0


def test_position_value_products():
    assert position_value(3, 10400, INST) == 31200
    assert position_value(-2, 10000, INST) == -20000


# -- direct PnL ---------------------------------------------------------------

def test_pnl_direct_empty():
    assert pnl_direct([], 10000, INST) == 0


def test_pnl_direct_single_buy():
    # bought at 10000, marked at 10500: +500 quanta ($5.00 at cent ticks)
    assert pnl_direct([o(1, BUY, 10000, 1)], 10500, INST) == 500


def test_pnl_direct_offsetting_pair_is_flat():
    orders = [o(1, SELL, 10200, 2), o(2, BUY, 10200, 2)]
    for price in (9000, 10200, 11000):
        assert pnl_direct(orders, price, INST) == 0


# -- direct PnL over int64 columns ------------------------------------------------

@st.composite
def wide_orders(draw):
    """Orders with prices up to +-2**62 and quantities up to 2**62, at
    magnitudes drawn per example so that the sums land on both sides of
    2**63, and a mark price of the same magnitude."""
    price = st.integers(-2 ** draw(st.integers(0, 62)), 2 ** draw(st.integers(0, 62)))
    quantity = st.integers(1, 2 ** draw(st.integers(0, 62)))
    rows = draw(st.lists(st.tuples(st.sampled_from([SELL, BUY]), price, quantity),
                         max_size=30))
    return [o(i + 1, s, p, q) for i, (s, p, q) in enumerate(rows)], draw(price)


@settings(max_examples=500)
@given(wide_orders(), st.sampled_from([1, 7, 2 ** 20]))
def test_pnl_direct_equals_the_python_int_sum(orders_and_price, multiplier):
    orders, price = orders_and_price
    inst = Instrument("W", multiplier, Decimal("0.01"))
    expected = multiplier * sum(x.sign * (x.price - price) * x.quantity
                                for x in orders)
    assert pnl_direct(OrderLog(orders), price, inst) == expected
    assert pnl_direct(orders, price, inst) == expected


# (rows of (sign, price, quantity), mark price, multiplier, summed in int64):
# int64 exactly while m * max|p - P| * n * max q < 2**63.
INT64_EDGES = {
    "bound 2**63-1": ([(SELL, 2 ** 63 - 1, 1)], 0, 1, True),
    "bound 2**63-1 via m": ([(BUY, -7, 1)], 0, (2 ** 63 - 1) // 7, True),
    "bound 2**63": ([(SELL, 2 ** 62, 2)], 0, 1, False),
    "bound 2**63 via n": ([(BUY, -2 ** 62, 1), (BUY, -2 ** 62, 1)], 0, 1, False),
    "bound 2**63 via m": ([(BUY, -2 ** 62, 1)], 0, 2, False),
    "p - P beyond int64": ([(SELL, 2 ** 62, 1)], -2 ** 62, 1, False),
    "P beyond int64": ([(SELL, 3, 1)], 2 ** 63, 1, False),
    # prices near 2**55, as where the blocked engine's int64 guard fails
    "2**55 narrow spread": ([(SELL, 2 ** 55 + 40, 1), (BUY, 2 ** 55, 1)] * 50,
                            2 ** 55 + 20, 1, True),
    "2**55 under the bound": ([(SELL, 2 ** 55, 2 ** 8 - 1)], 0, 1, True),
    "2**55 at the bound": ([(SELL, 2 ** 55, 2 ** 8)], 0, 1, False),
    "2**55 sum passes 2**63": ([(SELL, 2 ** 55, 2 ** 7)] * 2, 0, 1, False),
}


@pytest.mark.parametrize("edge", INT64_EDGES)
def test_pnl_direct_sums_in_int64_exactly_up_to_the_bound(edge, monkeypatch):
    rows, price, multiplier, in_int64 = INT64_EDGES[edge]
    # Only the Python-int sum calls sum().
    python_sums = []
    monkeypatch.setattr(accounting, "sum", lambda terms: python_sums.append(1)
                        or builtins.sum(terms), raising=False)
    orders = [o(i + 1, s, p, q) for i, (s, p, q) in enumerate(rows)]
    expected = multiplier * builtins.sum(s * (p - price) * q for s, p, q in rows)
    inst = Instrument("W", multiplier, Decimal("0.01"))
    assert pnl_direct(OrderLog(orders), price, inst) == expected
    assert bool(python_sums) is not in_int64


def test_pnl_direct_over_object_columns():
    log = OrderLog([o(1, BUY, 5, 1)])
    log.append(2, 1, SELL, 2 ** 63, 2)
    assert log.columns().dtype == object
    assert pnl_direct(log, 10, INST) == 5 + (2 ** 63 - 10) * 2


# -- position form ------------------------------------------------------------

def test_pnl_via_position_single_buy():
    orders = [o(1, BUY, 10000, 1)]
    assert pnl_via_position(orders, 10500, INST) == 500
    assert pnl_via_position(orders, 10500, INST) == pnl_direct(orders, 10500, INST)


@given(orders_strategy, price_strategy)
def test_pnl_forms_agree(orders, price):
    assert pnl_via_position(orders, price, INST) == pnl_direct(orders, price, INST)


# -- lot matching ---------------------------------------------------------------

def test_match_lots_fifo_trace():
    orders = [o(1, BUY, 10000, 1), o(2, BUY, 10100, 1), o(3, SELL, 10500, 1)]
    matches, unmatched = match_lots(orders, FIFO)
    assert [(m.sell_price, m.buy_price, m.quantity) for m in matches] == \
        [(10500, 10000, 1)]
    assert [(u.sign, u.price, u.quantity) for u in unmatched] == [(BUY, 10100, 1)]


def test_match_lots_lifo_trace():
    orders = [o(1, BUY, 10000, 1), o(2, BUY, 10100, 1), o(3, SELL, 10500, 1)]
    matches, unmatched = match_lots(orders, LIFO)
    assert [(m.sell_price, m.buy_price, m.quantity) for m in matches] == \
        [(10500, 10100, 1)]
    assert [(u.sign, u.price, u.quantity) for u in unmatched] == [(BUY, 10000, 1)]


def test_match_lots_single_order():
    matches, unmatched = match_lots([o(1, SELL, 10500, 1)], FIFO)
    assert matches == []
    assert [(u.sign, u.price, u.quantity) for u in unmatched] == [(SELL, 10500, 1)]


def test_match_lots_partial_split():
    # a 5-lot buy consumed by two sells, residual stays open
    orders = [o(1, BUY, 10000, 5), o(2, SELL, 10200, 2), o(3, SELL, 10300, 2)]
    matches, unmatched = match_lots(orders, FIFO)
    assert [(m.sell_price, m.buy_price, m.quantity) for m in matches] == \
        [(10200, 10000, 2), (10300, 10000, 2)]
    assert [(u.sign, u.price, u.quantity) for u in unmatched] == [(BUY, 10000, 1)]


def test_match_lots_rejects_unknown_method():
    with pytest.raises(ValueError):
        match_lots([], "average_cost")


@settings(max_examples=200)
@given(orders_strategy, st.sampled_from([FIFO, LIFO]))
def test_match_lots_conserves_quantities(orders, method):
    matches, unmatched = match_lots(orders, method)
    matched_qty = sum(m.quantity for m in matches)
    for sign in (SELL, BUY):
        total = sum(x.quantity for x in orders if x.sign == sign)
        open_qty = sum(u.quantity for u in unmatched if u.sign == sign)
        assert matched_qty + open_qty == total
    assert len({u.sign for u in unmatched}) <= 1


# -- decomposition ---------------------------------------------------------------

def test_pnl_decomposed_fifo_example():
    orders = [o(1, BUY, 10000, 1), o(2, BUY, 10100, 1), o(3, SELL, 10500, 1)]
    b = pnl_decomposed(*match_lots(orders, FIFO), 10400, INST)
    assert (b.realized, b.unrealized, b.total) == (500, 300, 800)


def test_pnl_decomposed_lifo_example():
    orders = [o(1, BUY, 10000, 1), o(2, BUY, 10100, 1), o(3, SELL, 10500, 1)]
    b = pnl_decomposed(*match_lots(orders, LIFO), 10400, INST)
    assert (b.realized, b.unrealized, b.total) == (400, 400, 800)


def test_pnl_decomposed_empty():
    b = pnl_decomposed([], [], 10000, INST)
    assert (b.realized, b.unrealized, b.total) == (0, 0, 0)


@settings(max_examples=300)
@given(orders_strategy, price_strategy)
def test_matching_invariance(orders, price):
    direct = pnl_direct(orders, price, INST)
    fifo = pnl_decomposed(*match_lots(orders, FIFO), price, INST)
    lifo = pnl_decomposed(*match_lots(orders, LIFO), price, INST)
    assert fifo.total == direct
    assert lifo.total == direct
    assert fifo.realized + fifo.unrealized == fifo.total
    assert lifo.realized + lifo.unrealized == lifo.total


@given(orders_strategy, price_strategy,
       st.integers(min_value=-500, max_value=500))
def test_translation_invariance(orders, price, k):
    shifted = [Order(x.id, x.time, x.sign, x.price + k, x.quantity)
               for x in orders]
    assert pnl_direct(shifted, price + k, INST) == pnl_direct(orders, price, INST)
