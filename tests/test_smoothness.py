import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from relations_oracle import trial_divide

from sssfactor.numtheory import is_probable_prime, primes_below
from sssfactor.smoothness import (
    FILTER_SPLIT_RATIO,
    Smoothness,
    build_context,
    classify,
    remainders,
    smooth_batch,
    smooth_batch_exact,
    smooth_filter,
)


def next_prime_from(n):
    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n


def test_product_tree_root_is_plain_product():
    rng = random.Random(10)
    for size in (1, 2, 3, 7, 64, 100):
        values = [rng.randrange(1, 10**12) for _ in range(size)]
        assert build_context(values).eta == math.prod(values)


def test_remainders_match_direct_mod():
    rng = random.Random(11)
    values = [rng.randrange(2, 10**9) for _ in range(37)]
    z = rng.randrange(10**200, 10**201)
    assert remainders(z, values) == [z % v for v in values]


@pytest.mark.parametrize("where", ["leaves", "mid-tree", "never"])
def test_remainders_wherever_the_tree_stops(where):
    # the tree stops at the first level whose first node has more than an
    # eighth of the bits of z; the remainders must be those of the whole
    # tree wherever that level is, also when a node of it is above z
    rng = random.Random(15)
    values = [rng.randrange(2**60, 2**61) for _ in range(40)]
    z = {
        "leaves": rng.randrange(2**400, 2**401),
        # level 2 (about 244 bits) stops it, level 1 (about 122) not
        "mid-tree": rng.randrange(2**1900, 2**1901),
        "never": math.prod(values) ** 9 + 1,
    }[where]
    assert remainders(z, values) == [z % v for v in values]
    assert remainders(z, [values[0]]) == [z % values[0]]
    assert remainders(z, values[:3] + [z + 1]) == [z % v for v in values[:3]] + [z]


def test_eta_is_the_product_of_the_primes():
    primes = [2, 3, 5, 7, 65537]
    ctx = build_context(primes)
    assert ctx.primes == tuple(primes)
    assert ctx.eta == math.prod(primes)
    split = build_context(primes_below(5000))
    for part in (split, split.part_small, split.part_large):
        assert part.eta == math.prod(part.primes)


def test_smooth_batch_examples():
    ctx = build_context([2, 3, 5, 7])
    assert smooth_batch(ctx, [30, 49, 22, 143]) == [1, 1, 11, 143]
    assert smooth_batch(ctx, [1]) == [1]
    assert smooth_batch(ctx, [11]) == [11]  # prime beyond the base
    with pytest.raises(ValueError):
        smooth_batch(ctx, [0])


def test_smooth_batch_exact_strips_high_powers():
    ctx = build_context([2, 3, 5, 7])
    assert smooth_batch_exact(ctx, [2**100 * 11]) == [11]
    assert smooth_batch_exact(ctx, [7 * 7]) == [1]
    # the repeated gcds strip the extreme power as well
    assert smooth_batch(ctx, [2**100 * 11]) == [11]


def test_smooth_batch_exact_equals_trial_division():
    primes = primes_below(1000)
    ctx = build_context(primes)
    rng = random.Random(12)
    values = [rng.randrange(1, 10**12) for _ in range(1000)]
    got = smooth_batch_exact(ctx, values)
    for x, g in zip(values, got):
        assert g == trial_divide(x, primes)[2]


PROPERTY_PRIMES = primes_below(2000)
SPLIT_CONTEXT = build_context(PROPERTY_PRIMES)
# primes just above the base, which no context here may strip
OUTSIDE_PRIMES = [next_prime_from(2000), next_prime_from(10**6), next_prime_from(10**12)]


@st.composite
def base_power_products(draw):
    """A product of base-prime powers: 2 up to the 100th power, the largest
    prime up to the 4th, a few others in between, and sometimes primes
    outside the base on top."""
    x = 2 ** draw(st.integers(0, 100)) * PROPERTY_PRIMES[-1] ** draw(st.integers(0, 4))
    for p in draw(st.lists(st.sampled_from(PROPERTY_PRIMES), max_size=6)):
        x *= p ** draw(st.integers(1, 12))
    for p in draw(st.lists(st.sampled_from(OUTSIDE_PRIMES), max_size=3)):
        x *= p ** draw(st.integers(1, 3))
    return x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(base_power_products(), min_size=1, max_size=20))
def test_smooth_batch_equals_trial_division_on_base_powers(values):
    # the whole context and each part of the filter's partition
    for ctx in (SPLIT_CONTEXT, SPLIT_CONTEXT.part_small, SPLIT_CONTEXT.part_large):
        want = [trial_divide(x, ctx.primes)[2] for x in values]
        assert smooth_batch(ctx, values) == want


def test_smooth_batch_soundness_and_miss_rate():
    primes = primes_below(1000)
    ctx = build_context(primes)
    rng = random.Random(13)
    values = [rng.randrange(1, 10**10) for _ in range(2000)]
    got = smooth_batch(ctx, values)
    smooth_total = 0
    missed = 0
    for x, g in zip(values, got):
        truth = trial_divide(x, primes)[2]
        # the batch is exact: it returns the non-smooth part itself
        assert g == truth
        if g == 1:
            assert truth == 1  # soundness: claimed smooth must be smooth
        if truth == 1:
            smooth_total += 1
            if g != 1:
                missed += 1
    assert smooth_total > 0
    assert missed <= 0.01 * smooth_total


def test_smooth_filter_threshold():
    primes = primes_below(5000)
    ctx = build_context(primes)
    assert len(ctx.part_small.primes) == len(primes) // 10
    assert ctx.part_small.primes + ctx.part_large.primes == ctx.primes

    # the search's cutoff: p_max**2, room for two more base primes
    cutoff = primes[-1] ** 2
    assert primes[-1] == 4999
    values = [
        2**40 * 4993 * 4999,  # pass 1 leaves 4993 * 4999: kept, finishes at 1
        3 * 4999 * 5003,      # pass 1 leaves 4999 * 5003, above the cutoff
        4999**2,              # at the cutoff: dropped
        7 * 5003,             # a partial: kept, finishes at 5003
        2**10 * 3**7,         # smooth over pass 1 alone
        next_prime_from(10**30),  # untouched by pass 1: dropped
    ]
    # pass 1 alone: the residuals over the smallest primes
    kept = smooth_filter(ctx, values, cutoff)
    assert dict(kept) == {0: 4993 * 4999, 3: 5003, 4: 1}
    # pass 2, as the search runs it, finishes them over the rest
    finished = smooth_batch(ctx.part_large, [g for _, g in kept])
    assert dict(zip((i for i, _ in kept), finished)) == {0: 1, 3: 5003, 4: 1}


def test_split_context_eta_is_the_whole_product():
    # a split context multiplies its parts' products instead of building a
    # third tree over the whole base; the product is the same
    primes = primes_below(5000)
    split = build_context(primes)
    assert split.part_small is not None
    assert split.eta == math.prod(primes)
    unsplit = build_context([3])  # nothing left to split
    assert unsplit.part_small is None and unsplit.eta == 3


@pytest.mark.parametrize("size", [2, 3, 9, 10, 11, 19, 20, 21, 303])
def test_build_context_splits_every_list_of_two_or_more_primes(size):
    # the smallest len / FILTER_SPLIT_RATIO primes, at least one, and the
    # rest; the parts themselves are not split again
    primes = primes_below(2000)[:size]
    ctx = build_context(primes)
    cut = max(1, size // FILTER_SPLIT_RATIO)
    assert FILTER_SPLIT_RATIO == 10
    assert ctx.part_small.primes == tuple(primes[:cut])
    assert ctx.part_large.primes == tuple(primes[cut:])
    for part in (ctx.part_small, ctx.part_large):
        assert part.part_small is None and part.part_large is None
        assert part.eta == math.prod(part.primes)
    assert ctx.eta == math.prod(primes)


def test_smooth_filter_requires_partition():
    # a context of one prime, or none, has nothing to split
    for primes in ([7], []):
        ctx = build_context(primes)
        with pytest.raises(ValueError):
            smooth_filter(ctx, [10], 30)


def test_smooth_filter_agrees_with_plain_batch_on_smooth_values():
    # anything the plain batch calls smooth and pass 1 keeps, pass 2 must
    # finish at 1 as well; and whatever pass 1 keeps, both passes together
    # leave the residual of the plain batch
    primes = primes_below(2000)
    ctx = build_context(primes)
    rng = random.Random(14)
    values = [rng.randrange(1, 10**8) for _ in range(500)]
    plain = smooth_batch(ctx, values)
    kept = smooth_filter(ctx, values, 10**3)
    assert 0 < len(kept) < len(values)
    filtered = dict(zip((i for i, _ in kept), smooth_batch(ctx.part_large, [g for _, g in kept])))
    for i, g in enumerate(plain):
        if g == 1 and i in filtered:
            assert filtered[i] == 1
    for i, g in filtered.items():
        assert g == plain[i]


def test_classify():
    assert classify(1, 128 * 1000) is Smoothness.FULL
    assert classify(127999, 128 * 1000) is Smoothness.PARTIAL
    assert classify(128000, 128 * 1000) is Smoothness.REJECT
    assert classify(2, 1000) is Smoothness.PARTIAL
    with pytest.raises(ValueError):
        classify(0, 1000)
