"""Pure-Python reference versions of the collision search, for tests.

These are the per-prime big-int transforms and the Counter scan that the
int64 array search in sssfactor.search replaced.  The array versions must
return the same values and the same hits in the same order; the helpers
below convert between the two transform layouts.
"""

from collections import Counter

import numpy as np

from sssfactor.search import CollisionHit, Transforms


def invert_M(modulus: int, large_primes) -> dict[int, int]:
    """M^-1 mod p for every large prime; these primes never divide M."""
    return {p: pow(modulus, -1, p) for p in large_primes}


def root_transforms(x: int, inverses: dict[int, int], roots: dict) -> list[tuple[int, int, int]]:
    """(p, r1, r2) with r_k = (s_k - x) * M^-1 mod p, i.e. the residues of
    the j for which p divides f(x + j*M)."""
    out = []
    for p, inv in inverses.items():
        s1, s2 = roots[p]
        out.append((p, (s1 - x) * inv % p, (s2 - x) * inv % p))
    return out


def collision_scan(
    transforms, q: int, modulus: int, x: int, threshold: int = 3
) -> list[CollisionHit]:
    """Collision offsets for the pair (x, M/q), counted with a Counter over
    (alpha, alpha - p) for both roots of every prime, in prime order."""
    if modulus % q:
        raise ValueError(f"{q} does not divide the modulus")
    m_prime = modulus // q
    offsets = []
    extend = offsets.extend
    for p, r1, r2 in transforms:
        a1 = q * r1 % p
        a2 = q * r2 % p
        extend((a1, a1 - p, a2, a2 - p))
    return [
        CollisionHit(alpha, count, x + alpha * m_prime, m_prime)
        for alpha, count in Counter(offsets).items()
        if count >= threshold
    ]


def as_tuples(transforms: Transforms) -> list[tuple[int, int, int]]:
    """Array transforms in the oracle layout [(p, r1, r2), ...]."""
    primes, r = transforms
    return list(zip(primes.tolist(), *r.tolist()))


def as_arrays(tuples) -> Transforms:
    """Oracle-layout transforms as int64 arrays."""
    rows = np.array(tuples, dtype=np.int64).reshape(-1, 3)
    return Transforms(rows[:, 0].copy(), rows[:, 1:].T.copy())
