import random

import numpy as np
import pytest

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
