import math
import random

import pytest

from sssfactor.numtheory import is_probable_prime, primes_below
from sssfactor.smoothness import (
    ETA_MIN_POWER,
    Smoothness,
    build_context,
    classify,
    product_tree,
    remainders,
    smooth_batch,
    smooth_batch_exact,
    smooth_filter,
    tree_root,
)


def oracle_nonsmooth_part(x, primes):
    for p in primes:
        while x % p == 0:
            x //= p
        if x == 1:
            break
    return x


def next_prime_from(n):
    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n


def test_product_tree_root_is_plain_product():
    rng = random.Random(10)
    for size in (1, 2, 3, 7, 64, 100):
        values = [rng.randrange(1, 10**12) for _ in range(size)]
        assert tree_root(product_tree(values)) == math.prod(values)


def test_remainders_match_direct_mod():
    rng = random.Random(11)
    values = [rng.randrange(2, 10**9) for _ in range(37)]
    z = rng.randrange(10**200, 10**201)
    assert remainders(z, values) == [z % v for v in values]


def test_eta_boosting():
    ctx = build_context([2, 3, 5, 7, 65537])
    for p in [2, 3, 5, 7, 65537]:
        e = 0
        eta = ctx.eta
        while eta % p == 0:
            eta //= p
            e += 1
        assert p**e > ETA_MIN_POWER, p
    # and no prime outside the context divides it
    rest = ctx.eta
    for p in ctx.primes:
        while rest % p == 0:
            rest //= p
    assert ctx.primes == (2, 3, 5, 7, 65537) and rest == 1


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
    # the default single-gcd variant misses the extreme power
    assert smooth_batch(ctx, [2**100 * 11]) != [11]


def test_smooth_batch_exact_equals_trial_division():
    primes = primes_below(1000)
    ctx = build_context(primes)
    rng = random.Random(12)
    values = [rng.randrange(1, 10**12) for _ in range(1000)]
    got = smooth_batch_exact(ctx, values)
    for x, g in zip(values, got):
        assert g == oracle_nonsmooth_part(x, primes)


def test_smooth_batch_soundness_and_miss_rate():
    primes = primes_below(1000)
    ctx = build_context(primes)
    rng = random.Random(13)
    values = [rng.randrange(1, 10**10) for _ in range(2000)]
    got = smooth_batch(ctx, values)
    smooth_total = 0
    missed = 0
    for x, g in zip(values, got):
        truth = oracle_nonsmooth_part(x, primes)
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
    ctx = build_context(primes, split_ratio=10)
    assert len(ctx.part_small.primes) == len(primes) // 10
    assert ctx.part_small.primes + ctx.part_large.primes == ctx.primes

    kept_prime = next_prime_from(10**30)       # below 10^(80/2 - 5)
    dropped_prime = next_prime_from(10**36)    # above it
    smooth_val = 2**10 * 3**7                  # survives and finishes at 1
    results = dict(
        smooth_filter(ctx, [kept_prime, dropped_prime, smooth_val], 80)
    )
    assert 1 not in results          # 10^36 residual was discarded
    assert results[0] == kept_prime  # untouched by either pass
    assert results[2] == 1


def test_split_context_eta_is_the_whole_product():
    # a split context multiplies its parts' products instead of building a
    # third tree over the whole base; the product is the same
    primes = primes_below(5000)
    whole = build_context(primes)
    for ratio in (2, 10, 10**6):
        split = build_context(primes, split_ratio=ratio)
        assert split.part_small is not None
        assert split.eta == whole.eta
    unsplit = build_context([3], split_ratio=10)  # nothing left to split
    assert unsplit.part_small is None and unsplit.eta == build_context([3]).eta


def test_smooth_filter_requires_partition():
    ctx = build_context([2, 3, 5, 7])
    with pytest.raises(ValueError):
        smooth_filter(ctx, [10], 30)


def test_smooth_filter_agrees_with_plain_batch_on_smooth_values():
    # anything the plain batch calls smooth and the filter keeps must agree
    primes = primes_below(2000)
    ctx = build_context(primes, split_ratio=10)
    rng = random.Random(14)
    values = [rng.randrange(1, 10**8) for _ in range(500)]
    plain = smooth_batch(ctx, values)
    filtered = dict(smooth_filter(ctx, values, 16))
    for i, g in enumerate(plain):
        if g == 1 and i in filtered:
            assert filtered[i] == 1


def test_classify():
    assert classify(1, 128 * 1000) is Smoothness.FULL
    assert classify(127999, 128 * 1000) is Smoothness.PARTIAL
    assert classify(128000, 128 * 1000) is Smoothness.REJECT
    assert classify(2, 1000) is Smoothness.PARTIAL
    with pytest.raises(ValueError):
        classify(0, 1000)
