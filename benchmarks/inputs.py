"""Seeded balanced-semiprime inputs, independent of the library.

The generator has its own primality test on purpose: a change to
sssfactor.numtheory or sssfactor.cli can then never change what the
benchmark feeds the program, and the digest recorded with every result
shows that two commits ran identical inputs.
"""

import hashlib
import random
from typing import NamedTuple

# deterministic Miller-Rabin witnesses below 3.3e24; larger values also get
# random witnesses from the generator's own stream
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXTRA_WITNESSES = 16


class Semiprime(NamedTuple):
    n: int
    p: int  # the smaller factor
    q: int


def _is_prime(v: int, rng: random.Random) -> bool:
    if v < 2:
        return False
    for w in _WITNESSES:
        if v % w == 0:
            return v == w
    d, s = v - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    extra = [rng.randrange(2, v - 1) for _ in range(_EXTRA_WITNESSES)]
    for a in (*_WITNESSES, *extra):
        y = pow(a, d, v)
        if y in (1, v - 1):
            continue
        for _ in range(s - 1):
            y = y * y % v
            if y == v - 1:
                break
        else:
            return False
    return True


def _random_prime(digits: int, rng: random.Random) -> int:
    while True:
        v = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        if _is_prime(v, rng):
            return v


def balanced_semiprimes(digits: int, count: int, seed: int, tag: str) -> list[Semiprime]:
    """count semiprimes p*q with exactly `digits` digits, p and q distinct
    primes of digits//2 and digits - digits//2 digits.  The list is a pure
    function of (digits, count, seed, tag)."""
    if digits < 4 or count < 1:
        raise ValueError("need at least 4 digits and one input")
    rng = random.Random(f"{tag}:{digits}:{seed}")
    out = []
    while len(out) < count:
        a = _random_prime(digits // 2, rng)
        b = _random_prime(digits - digits // 2, rng)
        n = a * b
        if a != b and len(str(n)) == digits:
            out.append(Semiprime(n, min(a, b), max(a, b)))
    return out


def digest(inputs) -> str:
    """Short sha256 over the input list, to show two runs used the same inputs."""
    text = "\n".join(f"{s.n}={s.p}*{s.q}" for s in inputs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
