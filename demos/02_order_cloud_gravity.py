"""The order cloud and its gravity center.

The gravity center is the quantity-weighted average price of every fill
so far.  It usually falls between grid prices, so it is carried as an
exact rational; the strict inequalities of the delay/release events are
decided by integer cross-multiplication, never by rounding.

The cloud lives inside the overlay engine.  With delays switched off the
engine mirrors every fill, so each one joins the cloud.
"""

from fractions import Fraction

from edgesim import DominanceEngine, DominanceParams

engine = DominanceEngine(DominanceParams(), grid_min=9000, grid_max=11000,
                         half_spread=0, delay_draw=lambda: False)
print("an empty cloud has no gravity center:", engine.gravity())

fills = [  # (order id, time, sign, price, quantity); sign +1 sells
    (1, 1, +1, 10200, 2),   # sell 2 @ 102.00
    (2, 4, -1, 10000, 3),   # buy  3 @ 100.00
]
for order_id, time, sign, price, qty in fills:
    action = engine.on_base_fill(order_id, sign, qty, time, price, price)
    c = engine.gravity()
    print(f"after fill {order_id} ({action}): gravity center = {c} "
          f"(~{float(c):.2f} ticks)")

c = engine.gravity()
assert c == Fraction(2 * 10200 + 3 * 10000, 5) == 10080
assert 10000 <= c <= 10200
print("the center sits inside [min fill, max fill]: 10000 <=", c, "<= 10200")

# A third fill drags the average; the arithmetic stays exact.
engine.on_base_fill(3, -1, 1, 9, 10033, 10033)
print("after an odd lot the center is a true rational:", engine.gravity())
