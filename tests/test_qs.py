import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiprimes import generate_semiprime
from sieve_oracle import interval_survivors, progressions, sieve_interval as oracle_interval

from sssfactor.engine import RunConfig, factor
from sssfactor.factorbase import build_factor_bases, poly_value, table_sizes
from sssfactor.numtheory import isqrt_ceil
from sssfactor.qs import BLOCK_INTERVALS, Sieve, run_sieve, sieve_interval
from sssfactor.smoothness import build_context

TOY_N = 10403  # 101 * 103
# a qs-35d panel composite: k = 61 and kN = 1 mod 4, so the progressions
# mod 4 go into the pattern
K61 = 29100640830005092842290581694238229
# a 35-digit composite on which k = 5 is forced: 5 then has one root, and
# its one progression goes into the pattern
N35 = generate_semiprime(35, random.Random(35))[0]
PATTERN_BASES = [pytest.param(K61, 61, id="k61"), pytest.param(N35, 5, id="k5")]


def oracle_weight(n, fb, x, length):
    """Recompute the log mass the sieve should have accumulated at x."""
    shift = isqrt_ceil(n)
    value = poly_value(x, n, shift)
    total = 0
    if value % 2 == 0:
        total += 1
    if n % 4 == 1 and value % 4 == 0:
        total += 1
    for p in fb.odd_primes:
        w = (p - 1).bit_length()
        if value % p == 0:
            total += w
        if p * p <= length and value % (p * p) == 0:
            total += w
    return total


def test_sieve_accumulates_exact_prime_log_mass():
    fb, _ = build_factor_bases(TOY_N, 8, 4)
    length = 256
    for start in (0, -256, 300):
        for threshold in (1, 5, 9):
            got = Sieve(fb, length).block(start, [threshold])[0]
            expected = [
                x
                for x in range(start, start + length)
                if oracle_weight(TOY_N, fb, x, length) >= threshold
            ]
            assert got == expected, (start, threshold)


def test_sieve_threshold_zero_returns_everything():
    fb, _ = build_factor_bases(TOY_N, 8, 4)
    assert Sieve(fb, 64).block(0, [0])[0] == list(range(64))


def test_sieve_finds_all_smooth_values_at_default_threshold():
    # the threshold leaves exactly the partial-cofactor allowance as slack,
    # so detection is promised for smooth values above that allowance (on a
    # toy instance, f can degenerate to e.g. f(0) = 1, which carries no log
    # mass at all; at production scale |f| dwarfs the bound everywhere)
    fb, _ = build_factor_bases(TOY_N, 8, 4)
    shift = isqrt_ceil(TOY_N)
    length = 512
    floor = fb.partial_bound
    sieve = Sieve(fb, length)
    checked = 0
    for start in (0, -512):
        candidates = set(sieve.block(start, [sieve.threshold(start)])[0])
        for x in range(start, start + length):
            value = abs(poly_value(x, TOY_N, shift))
            if value <= floor:
                continue
            for p in fb.primes:
                while value % p == 0:
                    value //= p
            if value == 1:
                assert x in candidates, f"smooth x={x} missed"
                checked += 1
    assert checked > 10  # the oracle actually exercised smooth values


def test_run_sieve_residual_is_the_cofactor():
    # the relation store takes a find's residual as its cofactor: it must be
    # exactly what trial division over the base leaves, for fulls and
    # partials alike
    fb, _ = build_factor_bases(TOY_N, 8, 4)
    shift = isqrt_ceil(TOY_N)
    sieve = Sieve(fb, 256)
    ctx = build_context(fb.primes)
    fulls = partials = 0
    for index in range(8):
        found = run_sieve(sieve, ctx, index)
        fulls += found.fulls
        partials += found.partials
        for x, residual in found.finds:
            cofactor = abs(poly_value(x, TOY_N, shift))
            for p in fb.primes:
                while cofactor % p == 0:
                    cofactor //= p
            assert residual == cofactor < fb.partial_bound
    assert fulls and partials


def test_qs_factor_small():
    result = factor(8051, RunConfig(algo="qs"))
    assert result.factors == [(83, 1), (97, 1)]
    result = factor(91, RunConfig(algo="qs"))
    assert result.factors == [(7, 1), (13, 1)]


def test_qs_factor_through_real_sieve():
    # factors beyond the scanned primes, so the full pipeline must run
    n = 1299709 * 1299721
    result = factor(n, RunConfig(algo="qs", seed=3))
    assert result.success
    assert result.factors == [(1299709, 1), (1299721, 1)]
    assert result.stats.rounds > 0


def test_qs_and_subsum_agree_on_shared_semiprimes():
    rng = random.Random(17)
    for digits in (16, 20):
        lo = 10 ** (digits // 2 - 1)
        p = q = 0
        while p == q:
            p, q = (next_prime(rng.randrange(lo, 10 * lo)) for _ in range(2))
        n = p * q
        via_qs = factor(n, RunConfig(seed=1, algo="qs"))
        via_sss = factor(n, RunConfig(seed=1, algo="sss"))
        assert via_qs.factors == via_sss.factors == sorted(
            [(p, 1), (q, 1)]
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    digits=st.integers(8, 20),
    seed=st.integers(0, 2**32),
    m=st.integers(8, 60),
    length=st.sampled_from([16, 60, 256, 1000]),
    first=st.integers(0, 3 * BLOCK_INTERVALS),
    resume=st.integers(1, 2 * BLOCK_INTERVALS + 2),
)
def test_block_sieve_matches_per_interval_oracle(digits, seed, m, length, first, resume):
    # both sides, from a block's first interval across the next boundary, and
    # a fresh sieve resuming inside the old block; lengths so short that some
    # primes exceed the interval while others still get a square progression
    n, _, _ = generate_semiprime(digits, random.Random(seed))
    fb, _ = build_factor_bases(n, m, 4)
    sieve = Sieve(fb, length)
    indices = range(first, first + 2 * BLOCK_INTERVALS + 3)
    for index in indices:
        assert sieve_interval(sieve, index) == interval_survivors(fb, index, length), index
    resumed = Sieve(fb, length)
    for index in indices[resume:]:
        assert sieve_interval(resumed, index) == interval_survivors(fb, index, length), index


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32),
    length=st.sampled_from([16, 60, 256]),
    start=st.integers(-5000, 5000),
    thresholds=st.lists(st.integers(0, 40), min_size=1, max_size=BLOCK_INTERVALS + 2),
)
def test_block_is_each_interval_sieved_alone(seed, length, start, thresholds):
    # any start, not only multiples of the length, and any thresholds
    n, _, _ = generate_semiprime(12, random.Random(seed))
    fb, _ = build_factor_bases(n, 30, 4)
    got = Sieve(fb, length).block(start, thresholds)
    assert got == [
        oracle_interval(fb, start + j * length, length, t)
        for j, t in enumerate(thresholds)
    ]


def test_block_sieve_matches_oracle_at_35_digits():
    # production sizes: 65536-value intervals, past the first block per side
    n, _, _ = generate_semiprime(35, random.Random(35))
    fb, _ = build_factor_bases(n, *table_sizes(35))
    sieve = Sieve(fb)
    survivors = 0
    for index in range(2 * BLOCK_INTERVALS + 3):
        got = sieve_interval(sieve, index)
        assert got == interval_survivors(fb, index), index
        survivors += len(got)
    assert survivors > 0


def production_sieve(n, multiplier):
    fb, _ = build_factor_bases(n, *table_sizes(35), multiplier)
    return Sieve(fb)


@pytest.mark.parametrize("n, multiplier", PATTERN_BASES)
def test_pattern_and_strided_adds_take_every_progression_once(n, multiplier):
    sieve = production_sieve(n, multiplier)
    fb, length = sieve.fb, sieve.length
    listed = list(zip(sieve.mods.tolist(), sieve.roots.tolist(), sieve.weights.tolist()))
    assert sorted(listed) == sorted(progressions(fb, length))
    patterned, strided = listed[: sieve.patterned], listed[sieve.patterned :]
    # the smallest moduli, as many as keep their lcm within a block
    block = length * BLOCK_INTERVALS
    assert max(m for m, _, _ in patterned) <= min(m for m, _, _ in strided)
    assert sieve.period == math.lcm(*(m for m, _, _ in patterned)) <= block
    assert math.lcm(sieve.period, strided[0][0]) > block
    # the pattern is the byte sum of exactly those progressions from x = 0
    x = np.arange(sieve.period)
    expected = sum(np.where(x % m == r, w, 0) for m, r, w in patterned)
    assert sieve.pattern.tolist() == expected.tolist()
    if multiplier == 5:
        assert [m for m, _, _ in patterned].count(5) == 1
    else:
        assert [m for m, _, _ in patterned].count(4) == 2


@pytest.mark.parametrize("n, multiplier", PATTERN_BASES)
def test_pattern_block_matches_oracle_at_production_sizes(n, multiplier):
    # blocks three times as long as the engine's, below 0, across it and
    # above it, none starting on a period boundary; every third interval at
    # a low threshold, so that most bytes with any log mass are compared
    sieve = production_sieve(n, multiplier)
    length = sieve.length
    count = 3 * BLOCK_INTERVALS
    for start in (-count * length - 4321, -(count // 2) * length + 777, 5 * length + 99):
        assert start % sieve.period
        starts = [start + j * length for j in range(count)]
        thresholds = [20 if j % 3 == 0 else sieve.threshold(s) for j, s in enumerate(starts)]
        got = sieve.block(start, thresholds)
        assert got == [
            oracle_interval(sieve.fb, s, length, t) for s, t in zip(starts, thresholds)
        ], start


def next_prime(n):
    from sssfactor.numtheory import is_probable_prime

    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n
