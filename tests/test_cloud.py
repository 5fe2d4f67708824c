"""The order cloud as the engine keeps it: fills folded through a
DominanceEngine with delays off, so every fill joins the cloud, against
the gravity center recomputed from the whole fill history."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim.dominance import MIRROR, DominanceEngine, DominanceParams
from edgesim.market import BUY, SELL

fills_strategy = st.lists(
    st.tuples(st.sampled_from([SELL, BUY]),
              st.integers(min_value=9000, max_value=11000),
              st.integers(min_value=1, max_value=10)),
    max_size=30)


def fold(fills, engine=None):
    """Feed (sign, price, qty) fills to an engine that never delays."""
    if engine is None:
        engine = DominanceEngine(DominanceParams(), 9000, 11000, 0,
                                 lambda: False)
    for sign, price, qty in fills:
        assert engine.on_base_fill(1, sign, qty, 0, price, price) == MIRROR
    return engine


def batch_gravity(fills):
    """Oracle: the quantity-weighted average of the whole fill history."""
    total = sum(qty for _, _, qty in fills)
    if total == 0:
        return None
    return Fraction(sum(price * qty for _, price, qty in fills), total)


def test_first_fill():
    assert fold([(SELL, 10200, 2)]).gravity() == 10200


def test_accumulation():
    # sells and buys weigh alike: (2 * 10200 + 3 * 10000) / 5
    engine = fold([(SELL, 10200, 2)])
    fold([(BUY, 10000, 3)], engine)
    assert engine.gravity() == Fraction(2 * 10200 + 3 * 10000, 5)


def test_gravity_undefined_when_empty():
    assert fold([]).gravity() is None


def test_gravity_weighted_average():
    engine = fold([(SELL, 10200, 2), (BUY, 10000, 3)])
    assert engine.gravity() == Fraction(50400, 5)
    assert engine.gravity() == 10080
    # an odd lot makes the center a true rational
    fold([(BUY, 10033, 1)], engine)
    assert engine.gravity() == Fraction(50400 + 10033, 6)


@given(st.integers(min_value=9000, max_value=11000),
       st.lists(st.tuples(st.sampled_from([SELL, BUY]),
                          st.integers(min_value=1, max_value=10)),
                min_size=1, max_size=10))
def test_gravity_constant_price(price, lots):
    assert fold([(s, price, q) for s, q in lots]).gravity() == price


@settings(max_examples=200)
@given(fills_strategy)
def test_incremental_equals_batch(fills):
    assert fold(fills).gravity() == batch_gravity(fills)


@settings(max_examples=100)
@given(fills_strategy, st.randoms(use_true_random=False))
def test_permutation_invariance_of_totals(fills, rnd):
    shuffled = list(fills)
    rnd.shuffle(shuffled)
    assert fold(fills).gravity() == fold(shuffled).gravity()


@settings(max_examples=200)
@given(fills_strategy)
def test_gravity_between_min_and_max(fills):
    center = fold(fills).gravity()
    if not fills:
        assert center is None
    else:
        prices = [price for _, price, _ in fills]
        assert min(prices) <= center <= max(prices)


@settings(max_examples=150)
@given(fills_strategy)
def test_gravity_on_every_prefix(fills):
    engine = fold([])
    for i in range(len(fills)):
        fold(fills[i:i + 1], engine)
        assert engine.gravity() == batch_gravity(fills[:i + 1])
