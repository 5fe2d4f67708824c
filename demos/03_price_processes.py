"""Price generators on the tick grid and their recurrence.

Both shipped processes live on a finite grid with reflecting edges, so
they are positively recurrent: any interior level is reached in finite
expected time.  estimate_hitting_time measures that empirically.
"""

from fractions import Fraction

import numpy as np

from edgesim import (PriceProcessConfig, estimate_hitting_time, next_price,
                     substream, walk_block)
from edgesim.prices import STREAM_PRICE

config = PriceProcessConfig(kind="reflecting_walk", grid_min=9000,
                            grid_max=11000, start_price=10000,
                            stay_probability=Fraction(1, 2))

# Step literally, one tick at a time, on master seed 7's price substream:
# next_price maps this tick's price to the next one.
rng = substream(7, STREAM_PRICE)
price = config.start_price
path = []
for _ in range(10):
    price = next_price(price, rng, config)
    path.append(price)
print("first ten ticks:", path)

# The block generator draws uniforms in bulk but walks the same path.
again = walk_block(config.start_price, substream(7, STREAM_PRICE), 10, config)
assert again.tolist() == path
print("bulk generator reproduces the scalar path exactly")

long_path = walk_block(config.start_price, substream(7, 0), 200_000, config)
print(f"200k ticks stay inside the grid: min {long_path.min()}, "
      f"max {long_path.max()}")

# Hitting times: how long until the price exceeds start + xi?
plain = PriceProcessConfig(stay_probability=Fraction(0))
for xi in (25, 50, 100):
    s = estimate_hitting_time(plain, 10000, xi, "above",
                              samples=2000, cap=10_000_000, master_seed=11)
    # Reflected symmetric walk, first passage to b = start + xi + 1
    # (strictly above the threshold): E[T] = (b - x) * (b + x - 2 * gmin).
    d = xi + 1
    theory = d * (d + 2 * (10000 - 9000))
    print(f"xi={xi:4d}: {s.count_finite}/2000 hit, mean {s.mean:9.0f} "
          f"(theory {theory}), max {s.max}")

# The mean-reverting variant pulls toward the grid center.
mr = PriceProcessConfig(kind="mean_reverting_walk", grid_min=9000,
                        grid_max=11000, start_price=9500,
                        stay_probability=Fraction(0),
                        reversion_strength=Fraction(1, 2))
mr_path = walk_block(9500, substream(13, 0), 100_000, mr)
print(f"mean-reverting walk started at 9500; long-run mean "
      f"{mr_path.mean():.0f} (center is 10000)")
