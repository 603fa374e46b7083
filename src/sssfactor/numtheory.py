"""Arbitrary-precision number-theoretic primitives.

Plain Python ints throughout.  All functions are pure and safe to call
concurrently from any number of threads.
"""

import itertools
import math
import random

__all__ = [
    "FoundFactor",
    "tonelli_shanks",
    "isqrt_ceil",
    "is_probable_prime",
    "is_perfect_power",
    "small_primes",
    "primes_below",
]


class FoundFactor(Exception):
    """A nontrivial divisor fell out of a computation early.

    Used as control flow: whoever stumbles on a divisor (factor-base scan,
    cofactor gcd, failed inversion) raises, and the engine turns it into an
    early success.
    """

    def __init__(self, divisor: int):
        super().__init__(f"found nontrivial divisor {divisor}")
        self.divisor = divisor


def tonelli_shanks(n: int, p: int) -> int:
    """Smaller square root s of n modulo the odd prime p (0 <= s < p).

    The second root is p - s.  Raises ValueError when n is a non-residue.
    """
    if p <= 2 or p % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {p}")
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
    else:
        # p = 1 mod 4: full Tonelli-Shanks with p - 1 = q * 2^e, q odd, and
        # a non-residue z.  2 is one exactly when p = 3, 5 mod 8; when p =
        # 1 mod 8 it is a residue, so an even z is a non-residue only if
        # z/2 is one, and the odd z suffice.
        e = ((p - 1) & (1 - p)).bit_length() - 1
        q, half = (p - 1) >> e, (p - 1) // 2
        z = 2 if p % 8 == 5 else 3
        while pow(z, half, p) != p - 1:
            z += 2
            if z >= p:
                raise ValueError(f"modulus must be an odd prime, got {p}")
        m, c = e, pow(z, q, p)
        r = pow(n, q // 2, p)
        t, r = r * r % p * n % p, r * n % p  # n**q and n**((q + 1)/2)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1 and i < m:
                t2 = t2 * t2 % p
                i += 1
            if i == m:  # n**((p - 1)/2) = -1, or p is no prime
                break
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t = t * c % p
            r = r * b % p
    if r * r % p != n:
        raise ValueError(f"{n} has no square root modulo {p}")
    return min(r, p - r)


def isqrt_ceil(n: int) -> int:
    """ceil(sqrt(n)), exactly."""
    if n < 0:
        raise ValueError("negative argument")
    r = math.isqrt(n)
    return r if r * r == n else r + 1


# The first 13 primes as Miller-Rabin witnesses decide every n below psi_13
# (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _miller_rabin(n: int, bases) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality check.

    Deterministic below psi_13 = 3.3e24 with the first 13 primes as
    witnesses; above that, 40 pseudo-random bases seeded from n itself, so
    the verdict is stable across runs.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _PSI_13:
        return _miller_rabin(n, _WITNESSES)
    rng = random.Random(n)
    return _miller_rabin(n, [rng.randrange(2, n - 1) for _ in range(40)])


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + e - 1) // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def is_perfect_power(n: int):
    """Return (b, e) with b**e == n and e >= 2 maximal, or None.

    Only prime exponents are tried: n = c**E is a perfect e-th power for
    every prime e dividing E, and recursing on the base b = c**(E/e)
    recovers the rest of the exponent.
    """
    if n < 4:
        return None
    for e in primes_below(n.bit_length() + 1):
        b = _iroot(n, e)
        if b ** e == n:
            inner = is_perfect_power(b)
            return (b, e) if inner is None else (inner[0], inner[1] * e)
    return None


def primes_below(limit: int) -> list[int]:
    """All primes < limit, ascending (Eratosthenes)."""
    if limit <= 2:
        return []
    sieve = bytearray((1,)) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
    return list(itertools.compress(range(limit), sieve))


def small_primes(count: int) -> list[int]:
    """The first `count` primes, ascending."""
    if count < 1:
        raise ValueError("count must be positive")
    if count < 6:
        return primes_below(14)[:count]
    # Rosser: p_n < n*(ln n + ln ln n) for n >= 6
    bound = count * (math.log(count) + math.log(math.log(count)))
    primes = primes_below(int(bound) + 2)
    while len(primes) < count:
        bound *= 1.3
        primes = primes_below(int(bound) + 2)
    return primes[:count]
