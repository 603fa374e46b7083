import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numtheory_oracle import legendre, square_root

from sssfactor.factorbase import legendre_symbols
from sssfactor.numtheory import (
    is_perfect_power,
    is_probable_prime,
    isqrt_ceil,
    primes_below,
    small_primes,
    tonelli_shanks,
)


def squares_mod(p):
    return {x * x % p for x in range(1, p)}


def symbol(a, p):
    """(a|p) from the vectorized Euler test, for one pair."""
    return int(legendre_symbols(np.array([a % p]), np.array([p]))[0])


def test_legendre_examples():
    assert symbol(1, 7) == 1
    assert symbol(3, 7) == -1  # not among the squares mod 7
    assert symbol(2, 7) == 1   # 3^2 = 9 = 2 mod 7


def test_legendre_matches_exhaustive_enumeration():
    # every a against every odd p below 200, as one array
    a, p = np.array(
        [(a, p) for p in primes_below(200)[1:] for a in range(p)], dtype=np.int64
    ).T
    residues = {q: squares_mod(q) for q in primes_below(200)[1:]}
    expected = [
        0 if ai == 0 else (1 if ai in residues[pi] else -1)
        for ai, pi in zip(a.tolist(), p.tolist())
    ]
    assert legendre_symbols(a, p).tolist() == expected


def test_tonelli_rejects_bad_modulus():
    for p in (2, 1, 0, -7, 10):
        with pytest.raises(ValueError):
            tonelli_shanks(3, p)
    # an odd composite raises too, rather than search forever for a z
    # with z**((p - 1)/2) = -1
    for p in (9, 21, 45, 65):
        for n in (1, 3):
            with pytest.raises(ValueError):
                tonelli_shanks(n, p)


def test_tonelli_examples():
    assert tonelli_shanks(2, 7) == 3  # smaller of {3, 4}, found by scanning
    assert tonelli_shanks(0, 7) == 0
    assert tonelli_shanks(4, 13) == 2  # smaller of {2, 11}


def test_tonelli_matches_scan_oracle_small_primes():
    for p in primes_below(100):
        if p == 2:
            continue
        for n in range(p):
            roots = sorted(x for x in range(p) if x * x % p == n)
            if roots:
                assert tonelli_shanks(n, p) == roots[0]
            else:
                with pytest.raises(ValueError):
                    tonelli_shanks(n, p)


def test_tonelli_root_property_random():
    rng = random.Random(1)
    primes = [p for p in primes_below(10**6) if p > 10**5]
    for _ in range(200):
        p = rng.choice(primes)
        n = rng.randrange(1, p)
        if pow(n, (p - 1) // 2, p) != 1:
            with pytest.raises(ValueError):
                tonelli_shanks(n, p)
            continue
        s = tonelli_shanks(n, p)
        assert (s * s - n) % p == 0
        assert 0 <= s <= p - s  # smaller root


# p - 1 = q * 2**e with e from 1 to 27, and primes above 2**31 and 2**64:
# tonelli_shanks works on Python ints of any size
HIGH_TWO_POWERS = (
    3, 5, 13, 17, 97, 193, 257, 7681, 65537, 786433, 469762049, 998244353,
    2013265921, 2147483629, 2**31 + 11, 2**89 - 1, 18446744073709551557,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from(HIGH_TWO_POWERS), x=st.integers(0, 2**100))
def test_tonelli_matches_the_oracle_on_high_powers_of_two(p, x):
    assert tonelli_shanks(x * x, p) == square_root(x * x, p) == min(x % p, p - x % p)
    z = next(z for z in range(2, p) if legendre(z, p) == -1)
    with pytest.raises(ValueError, match="no square root"):
        tonelli_shanks(z * x * x, p) if x % p else tonelli_shanks(z, p)


def test_isqrt_ceil():
    assert isqrt_ceil(91) == 10
    assert isqrt_ceil(100) == 10
    assert isqrt_ceil(0) == 0
    with pytest.raises(ValueError):
        isqrt_ceil(-1)
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 10**40)
        r = isqrt_ceil(n)
        assert r * r >= n and (r - 1) * (r - 1) < n


def test_is_probable_prime_small_against_sieve():
    primes = set(primes_below(10000))
    for n in range(2, 10000):
        assert is_probable_prime(n) == (n in primes), n


@pytest.mark.parametrize(
    "n,verdict",
    [
        (97, True),
        (91, False),
        (2, True),
        (561, False),            # Carmichael
        (3215031751, False),     # strong pseudoprime to bases 2,3,5,7
        # strong pseudoprimes to smaller witness sets, up to psi_12 and
        # psi_13, the least ones to the first 12 and 13 primes
        (2047, False),
        (1373653, False),
        (9080191, False),
        (25326001, False),
        (4759123141, False),
        (1122004669633, False),
        (2152302898747, False),
        (3474749660383, False),
        (341550071728321, False),
        (3825123056546413051, False),
        (318665857834031151167461, False),
        (3317044064679887385961981, False),
        (2**61 - 1, True),       # Mersenne prime
        (2**67 - 1, False),      # 193707721 * 761838257287
        (10**30 + 57, True),
        (10**30 + 59, False),
    ],
)
def test_is_probable_prime_known_cases(n, verdict):
    assert is_probable_prime(n) is verdict


def test_is_probable_prime_large_deterministic():
    n = 2**127 - 1  # prime, above the deterministic witness range
    assert is_probable_prime(n)
    assert is_probable_prime(n * (2**89 - 1)) is False


def test_is_perfect_power():
    assert is_perfect_power(8) == (2, 3)
    assert is_perfect_power(91) is None
    assert is_perfect_power(10**6) == (10, 6)  # maximal exponent, not (100, 3)
    assert is_perfect_power(2**64) == (2, 64)
    assert is_perfect_power(3**5 * 2) is None
    assert is_perfect_power((10**20 + 39) ** 2) == (10**20 + 39, 2)
    assert is_perfect_power(2**210) == (2, 210)  # 210 = 2 * 3 * 5 * 7
    assert is_perfect_power(6**35) == (6, 35)
    assert is_perfect_power(2**61 - 1) is None


def test_small_primes():
    assert small_primes(4) == [2, 3, 5, 7]
    assert small_primes(1) == [2]
    assert small_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = small_primes(100000)
    assert len(ps) == 100000
    assert ps[-1] == 1299709  # the 100000th prime
    with pytest.raises(ValueError):
        small_primes(0)


def test_primes_below_matches_trial_division():
    # every limit below 600, the edges 0-3 included; the sieve is read out
    # with numpy, and the list must still hold Python ints
    for limit in range(600):
        got = primes_below(limit)
        assert got == [q for q in range(2, limit) if all(q % d for d in range(2, math.isqrt(q) + 1))]
        assert all(type(q) is int for q in got)
