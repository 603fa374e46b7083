import random

from sssfactor.engine import RunConfig, factor
from sssfactor.factorbase import build_factor_bases, poly_value
from sssfactor.numtheory import isqrt_ceil
from sssfactor.qs import sieve_interval, sieve_threshold

TOY_N = 10403  # 101 * 103


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
            got = sieve_interval(TOY_N, fb, start, length, threshold)
            expected = [
                x
                for x in range(start, start + length)
                if oracle_weight(TOY_N, fb, x, length) >= threshold
            ]
            assert got == expected, (start, threshold)


def test_sieve_threshold_zero_returns_everything():
    fb, _ = build_factor_bases(TOY_N, 8, 4)
    assert sieve_interval(TOY_N, fb, 0, 64, 0) == list(range(64))


def test_sieve_finds_all_smooth_values_at_default_threshold():
    # the threshold leaves exactly the partial-cofactor allowance as slack,
    # so detection is promised for smooth values above that allowance (on a
    # toy instance, f can degenerate to e.g. f(0) = 1, which carries no log
    # mass at all; at production scale |f| dwarfs the bound everywhere)
    fb, _ = build_factor_bases(TOY_N, 8, 4)
    shift = isqrt_ceil(TOY_N)
    length = 512
    floor = 128 * fb.p_max
    checked = 0
    for start in (0, -512):
        threshold = sieve_threshold(TOY_N, start, length, floor)
        candidates = set(sieve_interval(TOY_N, fb, start, length, threshold))
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


def next_prime(n):
    from sssfactor.numtheory import is_probable_prime

    n |= 1
    while not is_probable_prime(n):
        n += 2
    return n
