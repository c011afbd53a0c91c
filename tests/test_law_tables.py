"""The law registry on pools that are not suits: the verdict and first
counterexample of every law, pinned, and a bound on the operator calls of
the two costliest laws."""

import random

import pytest

from ifg import algebra
from ifg.algebra import AlgebraContext, Element

from test_algebra import _non_suit_pairs, _sampled_double_suits

# Elements that refute every law the registry expects to fail.
WITNESSES = {
    (2, 1): (Element(7, 1), Element(9, 1), Element(1, 3)),
    (3, 1): (Element(55, 233), Element(169, 155)),
    (2, 2): (Element(5355, 45555), Element(19911, 32425)),
}

POOLS = [(2, 1, 0), (2, 1, 1), (3, 1, 0), (3, 1, 1), (2, 2, 0), (2, 2, 1)]


def golden_pool(size, nvars, seed):
    """Four pairs that are not suits, two of them made rooted, two double
    suits and the witnesses last, so that a law meets the random elements
    before its witness."""
    ctx = AlgebraContext(size, nvars)
    rng = random.Random(seed)
    pool = _non_suit_pairs(ctx, rng, 4)
    pool += [Element(x.plus | 1, x.minus | 1)
             for x in _non_suit_pairs(ctx, rng, 2)]
    pool += _sampled_double_suits(ctx, rng, 2)
    return ctx, pool + list(WITNESSES[size, nvars])


# The first counterexample of each law that fails, the same on every pool
# of POOLS, as computed by law checks that called the operators inside
# their loops; every other law holds.
FAILS = {
    "absorption-eq": "x + (x * y) != x, J=[] K=[]",
    "associativity-mixed-eq": "sum J=[] K=[0]",
    "cyl-product-plus-eq": "C(x * C(y)) !=+ C(x) * C(y)",
    "distributivity-eq": "x *_J (y +_K z), J=[] K=[]",
    "excluded-middle": "x + ~x != 1",
}


@pytest.mark.parametrize("size,nvars,seed", POOLS)
def test_law_results_are_pinned(size, nvars, seed):
    ctx, pool = golden_pool(size, nvars, seed)
    got = {name: algebra.check_law(name, ctx, pool)
           for name in algebra.law_names()}
    assert {name: detail for name, detail in got.items()
            if detail is not None} == FAILS


# Operator calls on golden_pool(2, 2, 0) when every call sat inside the
# loops: 108800 for cyl-product, 72000 for associativity-nested-slash.
LOOP_CALLS = {"cyl-product": 108800, "associativity-nested-slash": 72000}


@pytest.mark.parametrize("name", sorted(LOOP_CALLS))
def test_law_reads_its_tables(name):
    """The operations that do not depend on an inner loop's variables are
    computed once per check, so the check makes at most about half the
    operator calls it made with every call inside the loops."""
    ctx, pool = golden_pool(2, 2, 0)
    calls = [0]
    for op in ("add", "mul", "cyl", "dual_cyl"):
        def counted(*args, _op=getattr(ctx, op)):
            calls[0] += 1
            return _op(*args)
        setattr(ctx, op, counted)
    assert algebra.check_law(name, ctx, pool) is None
    assert calls[0] <= 0.55 * LOOP_CALLS[name]
