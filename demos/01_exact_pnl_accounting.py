"""Exact PnL accounting: three routes to the same integer.

The accounting layer works entirely in integer "quanta" (multiplier x
ticks x quantity), so every identity below is exact equality, not
floating-point closeness.
"""

from decimal import Decimal

from edgesim import (FIFO, LIFO, Instrument, Order, match_lots,
                     pnl_decomposed, pnl_direct, pnl_via_position,
                     quanta_to_currency, signed_open_position)

inst = Instrument("DEMO", multiplier=1, tick_size=Decimal("0.01"))

# A small fill history: two buys, then a sell that closes one lot.
orders = [
    Order(id=1, time=5, sign=-1, price=10000, quantity=1),   # buy  @ 100.00
    Order(id=2, time=9, sign=-1, price=10100, quantity=1),   # buy  @ 101.00
    Order(id=3, time=14, sign=+1, price=10500, quantity=1),  # sell @ 105.00
]
mark = 10400  # current price 104.00

print("signed open position:", signed_open_position(orders), "(long one lot)")

direct = pnl_direct(orders, mark, inst)
via_pos = pnl_via_position(orders, mark, inst)
print(f"direct form:   {direct} quanta = {quanta_to_currency(direct, inst)}")
print(f"position form: {via_pos} quanta (identical by construction)")
assert direct == via_pos

# The realized/unrealized split depends on the lot matching method...
for method in (FIFO, LIFO):
    matches, unmatched = match_lots(orders, method)
    b = pnl_decomposed(matches, unmatched, mark, inst)
    print(f"{method.upper():4s}: realized {b.realized:4d}  unrealized "
          f"{b.unrealized:4d}  total {b.total}")
    assert b.total == direct

# ...but the total never does.  FIFO matches the oldest buy (10000) so more
# of the profit is realized; LIFO matches the newer buy (10100).
print("totals agree across matching methods and with both direct forms")

# Shifting every price and the mark by the same amount changes nothing:
shift = 137
shifted = [Order(o.id, o.time, o.sign, o.price + shift, o.quantity)
           for o in orders]
assert pnl_direct(shifted, mark + shift, inst) == direct
print(f"translation by {shift} ticks leaves the PnL unchanged: {direct} quanta")
