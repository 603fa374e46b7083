"""The subsum relation search.

One round picks k random small-base primes, builds the initial candidate
pair (x, M) by CRT, and then walks through k local variants of x (one
root swap per chosen prime).  For each variant the roots of f modulo all
large factor-base primes are mapped into the j-line of x + j*M; an offset
alpha that shows up for at least three different large primes certifies
that f(x + alpha * m') gains three large prime divisors on top of the
known smooth part m'.  Those candidates go to the batch smoothness test
and the survivors are handed to the sink as full or partial relations.

The search works on int64 numpy arrays over the large primes.  Once per
round it builds the limb weights 2**(30 j) mod p and M^-1 mod p; once per
variant it reduces x through its 30-bit limbs and maps both roots; once per
rescaling q it forms the 4L offsets and counts them with np.bincount.
Only the hits become Python ints again, for x_bar = x + alpha * m' and the
exact division of f(x_bar) by m'.  Every product of two residues stays
below 2**63 because the factor base keeps all primes below 2**31 (see
factorbase.MAX_PRIME).  Hits come out in the order in which their offsets
first appear, prime by prime, so the relation stream is the same as that
of the per-prime Python loop the tests keep as an oracle.

After the random index choice everything in a round is deterministic, so
a fixed seed replays the exact relation stream.
"""

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

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
    "RoundTable",
    "Transforms",
    "round_table",
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


_LIMB_BITS = 30
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# terms summed before a reduction: acc + 3 * 2**30 * 2**31 stays below 2**63
_LIMBS_PER_SUM = 3


class RoundTable(NamedTuple):
    """One round's large primes and what the round's modulus M fixes about
    them, as int64 arrays over the L large primes."""

    primes: np.ndarray    # (L,)
    roots: np.ndarray     # (2, L): the roots s1, s2 of f mod p
    weights: np.ndarray   # (J, L): 2**(30 j) mod p, J limbs cover 0 <= v < M
    inverses: np.ndarray  # (L,): M^-1 mod p


class Transforms(NamedTuple):
    """r_k = (s_k - x) * M^-1 mod p for both roots of every large prime."""

    primes: np.ndarray  # (L,)
    r: np.ndarray       # (2, L)


def _residues(value: int, weights: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """value mod p for every prime (0 <= value < 2**(30 J)), as the sum of
    value's 30-bit limbs times the weights 2**(30 j) mod p."""
    if value >> (_LIMB_BITS * len(weights)):
        raise ValueError("value has more limbs than the weight table")
    acc = np.zeros_like(primes)
    for j in range(0, len(weights), _LIMBS_PER_SUM):
        rows = weights[j : j + _LIMBS_PER_SUM]
        limbs = [(value >> (_LIMB_BITS * (j + i))) & _LIMB_MASK for i in range(len(rows))]
        acc = (acc + np.array(limbs, dtype=np.int64) @ rows) % primes
    return acc


def round_table(modulus: int, primes: np.ndarray, roots: np.ndarray) -> RoundTable:
    """Limb weights and M^-1 mod p for one round's modulus.

    The inverse is M^(p-2) mod p by square and multiply over the bits of
    p - 2; the large primes never divide M.
    """
    limbs = -(-modulus.bit_length() // _LIMB_BITS)
    weights = np.empty((limbs, len(primes)), dtype=np.int64)
    weights[0] = 1
    for j in range(1, limbs):
        weights[j] = (weights[j - 1] << _LIMB_BITS) % primes
    base = _residues(modulus, weights, primes)
    exponent = primes - 2
    inverses = np.ones_like(primes)
    for _ in range(int(primes.max(initial=0)).bit_length()):
        inverses = np.where(exponent & 1, inverses * base % primes, inverses)
        base = base * base % primes
        exponent >>= 1
    return RoundTable(primes, roots, weights, inverses)


def root_transforms(x: int, table: RoundTable) -> Transforms:
    """r_k = (s_k - x) * M^-1 mod p, i.e. the residues of the j for which p
    divides f(x + j*M), for both roots s_k of every large prime; |x| < M.

    s_k - x stays unreduced in (-p, 2p); one reduction after the
    multiplication suffices because 2p * p < 2**63 and numpy's % takes the
    sign of p.
    """
    primes = table.primes
    xr = _residues(abs(x), table.weights, primes)
    diff = table.roots + xr if x < 0 else table.roots - xr
    return Transforms(primes, diff * table.inverses % primes)


def collision_scan(
    transforms: Transforms, q: int, modulus: int, x: int, threshold: int = 3
) -> list[CollisionHit]:
    """Collision offsets for the pair (x, M/q), in order of first occurrence.

    q * r_k mod p rescales the stored transforms to the modulus M/q with
    two multiplications per prime instead of an inversion; q = 1 scans the
    base pair itself.  Each large prime contributes its four offsets
    (alpha and alpha - p for both roots, pairwise distinct), so the count
    of an offset equals the number of distinct large primes dividing
    f(x + alpha * m').  Offsets are laid out prime by prime as
    (a1, a1 - p, a2, a2 - p) and hits are listed by their first position
    in that sequence, which fixes the candidate and relation order.
    """
    if modulus % q:
        raise ValueError(f"{q} does not divide the modulus")
    m_prime = modulus // q
    primes, r = transforms
    a = (q * r % primes).T  # (L, 2)
    offsets = np.empty((len(primes), 4), dtype=np.int64)
    offsets[:, 0::2] = a
    offsets[:, 1::2] = a - primes[:, None]
    flat = offsets.ravel()
    shifted = flat + int(primes.max(initial=0))
    counts = np.bincount(shifted)[shifted]
    where = np.flatnonzero(counts >= threshold)
    # dict keeps each alpha at its first position
    first = dict(zip(flat[where].tolist(), counts[where].tolist()))
    return [
        CollisionHit(alpha, count, x + alpha * m_prime, m_prime)
        for alpha, count in first.items()
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
    table = round_table(modulus, *fb.large_arrays(sb.n))

    rep = [0] * sb.n
    for i in indices:
        rep[i] = 1
    x, _ = get_x(rep, sb, pre, fb.roots)

    fulls = partials = candidates = filtered = 0
    for i in indices:
        x = swap_root(x, i, 1, modulus, pre)
        transforms = root_transforms(x, table)
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
