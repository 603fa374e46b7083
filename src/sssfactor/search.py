"""The subsum relation search.

One round picks k random small-base primes, builds the initial candidate
pair (x, M) by CRT, and then walks through k local variants of x (one
root swap per chosen prime).  For each variant the roots of f modulo all
large factor-base primes are mapped into the j-line of x + j*M; an offset
alpha that shows up for at least three different large primes certifies
that f(x + alpha * m') gains three large prime divisors on top of the
known smooth part m'.  Those candidates go to the batch smoothness test
and the survivors are handed to the sink as full or partial relations.

After the random index choice everything in a round is deterministic, so
a fixed seed replays the exact relation stream.
"""

import math
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .crt import CrtPrecomp, get_x, swap_root
from .factorbase import FactorBase, SmallFactorBase, poly_value
from .numtheory import isqrt_ceil
from .smoothness import (
    Smoothness,
    SmoothnessContext,
    classify,
    smooth_batch,
    smooth_batch_exact,
    smooth_filter,
)

__all__ = [
    "CollisionHit",
    "RoundStats",
    "pick_indices",
    "invert_M",
    "root_transforms",
    "collision_scan",
    "search_round",
]


class CollisionHit(NamedTuple):
    alpha: int
    count: int     # number of distinct large primes hitting this offset
    x_bar: int     # x + alpha * m_prime
    m_prime: int   # the known smooth divisor of f(x_bar)


class RoundStats(NamedTuple):
    fulls: int
    partials: int
    candidates: int
    filtered: int  # candidates dropped by the two-pass filter


def pick_indices(k: int, n: int, rng) -> list[int]:
    """k distinct indices from range(n), sorted; reproducible from the rng."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return sorted(rng.sample(range(n), k))


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
    """Collision offsets for the pair (x, M/q).

    q * r_k mod p rescales the stored transforms to the modulus M/q with
    two multiplications per prime instead of an inversion; q = 1 scans the
    base pair itself.  Each large prime contributes its four offsets
    (alpha and alpha - p for both roots, pairwise distinct), so the count
    of an offset equals the number of distinct large primes dividing
    f(x + alpha * m').
    """
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


def search_round(
    n: int,
    fb: FactorBase,
    sb: SmallFactorBase,
    pre: CrtPrecomp,
    ctx: SmoothnessContext,
    k: int,
    rng,
    sink,
    *,
    collision_threshold: int = 3,
    partial_multiplier: int = 128,
    filter_delta: int | None = None,
    exact_batch: bool = False,
) -> RoundStats:
    """One full search round; emits relations through sink.ingest(x_bar, g).

    filter_delta switches the smoothness pass to the two-stage filter
    (the context must then carry a partition).  The candidates of each
    variant are batch-tested together at the end of that variant's scans.
    """
    shift = isqrt_ceil(n)
    digits = len(str(n))
    p_max = fb.p_max
    indices = pick_indices(k, sb.n, rng)
    moduli = [sb.primes[i] for i in indices]
    modulus = math.prod(moduli)
    inverses = invert_M(modulus, fb.large_primes(sb.n))

    rep = [0] * sb.n
    for i in indices:
        rep[i] = 1
    x, _ = get_x(rep, sb, pre, fb.roots)

    fulls = partials = candidates = filtered = 0
    for i in indices:
        x = swap_root(x, i, 1, modulus, pre)
        transforms = root_transforms(x, inverses, fb.roots)
        p_i = sb.primes[i]
        batch: dict[int, int] = {}  # x_bar -> |f(x_bar) / m_prime|
        # q = 1 scans the base pair (x, M) itself
        for q in chain((1,), moduli):
            if q != 1 and q == p_i:
                continue
            for hit in collision_scan(transforms, q, modulus, x, collision_threshold):
                if hit.x_bar in batch:
                    continue
                f_val = poly_value(hit.x_bar, n, shift)
                value, rem = divmod(f_val, hit.m_prime)
                if rem:
                    raise AssertionError("collision modulus does not divide f")
                batch[hit.x_bar] = abs(value)
        if not batch:
            continue
        candidates += len(batch)
        keys = list(batch)
        values = list(batch.values())
        if filter_delta is not None:
            pairs = smooth_filter(ctx, values, digits, filter_delta)
            filtered += len(values) - len(pairs)
            found = [(keys[j], g) for j, g in pairs]
        else:
            test = smooth_batch_exact if exact_batch else smooth_batch
            found = zip(keys, test(ctx, values))
        for x_bar, g in found:
            kind = classify(g, p_max, partial_multiplier)
            if kind is Smoothness.FULL:
                sink.ingest(x_bar, 1)
                fulls += 1
            elif kind is Smoothness.PARTIAL:
                sink.ingest(x_bar, g)
                partials += 1
    return RoundStats(fulls, partials, candidates, filtered)
