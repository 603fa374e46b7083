"""Seeded random primes and balanced semiprimes, the inputs of many tests.

The same rng state gives the same numbers, so a test that draws its input
from a fixed random.Random(seed) always factors the same composite.
"""

import random

from sssfactor.numtheory import is_probable_prime


def random_prime(digits: int, rng: random.Random) -> int:
    """A random probable prime with exactly `digits` digits."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    while True:
        candidate = rng.randrange(lo, hi) | 1
        if is_probable_prime(candidate):
            return candidate


def generate_semiprime(digits: int, rng: random.Random) -> tuple[int, int, int]:
    """A d-digit product of two distinct probable primes of about equal size."""
    if digits < 2:
        raise ValueError("semiprimes need at least 2 digits")
    hi = (digits + 1) // 2
    lo = digits // 2
    while True:
        p = random_prime(hi, rng)
        q = random_prime(lo, rng)
        n = p * q
        if p != q and len(str(n)) == digits:
            return n, p, q
