"""The subsum relation search.

One round picks k random small-base primes (SUBSUM_SIZE: 6 for sss, 7
for sssf), builds the initial candidate pair (x, M) by a CRT over those k
primes alone (crt.get_x), and then walks through k local variants of x
(one root swap per chosen prime, crt.swap_root).
For each variant the roots of f modulo all large factor-base primes are
mapped into the j-line of x + j*M; an offset alpha that shows up for at
least COLLISION_THRESHOLD = 3 different large primes certifies that
f(x + alpha * m') gains three large prime divisors on top of the known
smooth part m'.  Those candidates go to the batch smoothness test (the
two-pass filter when the context carries a partition, as for sssf) and
the survivors are handed to the sink as full or partial relations.

The search works on int64 numpy arrays over the large primes.  Once per
round it builds the limb weights 2**(30 j) mod p and M^-1 mod p.  Once per
variant it reduces x through its 30-bit limbs, maps both roots and runs one
collision scan for all of the variant's rescalings q: it forms the 4L
offsets of every q in one array and counts each q's offsets with
np.bincount.  Every product of two residues stays below 2**63 because the
factor base keeps all primes below 2**31 (see factorbase.MAX_PRIME).  Hits
come out q by q, and for each q in the order in which their offsets first
appear, prime by prime, so the relation stream is the same as that of the
per-prime Python loop the tests keep as an oracle.

Only the hits become Python ints again.  Their values need no square and
no division: with t = x + ceil(sqrt(N)),
f(x + alpha * m') / m' = f(x)/m' + alpha * (2t + alpha * m'), and f(x)/m'
is divided out once per (variant, q).  That division must be exact, which
checks every hit of that q because x_bar = x mod m'.

After the random index choice everything in a round is deterministic, so
a fixed seed replays the exact relation stream.  round_finds is that
deterministic part: from the round's indices it returns the finds and the
round's counts, and it touches nothing else, so the engine can run it in a
worker process and ingest the finds in the parent.  search_round is one
round in one process: pick_indices, round_finds, then sink.ingest for each
find in order.
"""

import math
import time
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .crt import CrtPrecomp, get_x, swap_root
from .factorbase import (
    FactorBase,
    SmallFactorBase,
    limb_count,
    limb_weights,
    poly_value,
    residues,
)
from .numtheory import isqrt_ceil
from .smoothness import (
    FILTER_DELTA,
    Smoothness,
    SmoothnessContext,
    classify,
    smooth_batch,
    smooth_filter,
)
# Not used by the search; benchmarks/spans.py still traces the name here.
from .smoothness import smooth_batch_exact  # noqa: F401

__all__ = [
    "COLLISION_THRESHOLD",
    "SUBSUM_SIZE",
    "RoundStats",
    "pick_indices",
    "RoundTable",
    "Transforms",
    "round_table",
    "root_transforms",
    "collision_scan",
    "hit_values",
    "round_finds",
    "search_round",
]


# distinct large primes an offset needs before its value is batch-tested
COLLISION_THRESHOLD = 3

# small-base primes k per subsum modulus M, by variant
SUBSUM_SIZE = {"sss": 6, "sssf": 7}


class RoundStats(NamedTuple):
    fulls: int
    partials: int
    candidates: int
    filtered: int   # candidates dropped by the two-pass filter
    seconds: float  # wall time of finding the round's relations, ingest excluded


def pick_indices(k: int, n: int, rng) -> list[int]:
    """k distinct indices from range(n), sorted; reproducible from the rng."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return sorted(rng.sample(range(n), k))


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


def round_table(modulus: int, primes: np.ndarray, roots: np.ndarray) -> RoundTable:
    """Limb weights and M^-1 mod p for one round's modulus.

    The inverse is M^(p-2) mod p by square and multiply over the bits of
    p - 2; the large primes never divide M.
    """
    weights = limb_weights(primes, limb_count(modulus))
    base = residues(modulus, weights, primes)
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
    xr = residues(abs(x), table.weights, primes)
    diff = table.roots + xr if x < 0 else table.roots - xr
    return Transforms(primes, diff * table.inverses % primes)


def collision_scan(
    transforms: Transforms, qs, modulus: int, threshold: int = COLLISION_THRESHOLD
) -> list[tuple[int, int]]:
    """Collision offsets of one variant for every rescaling q in qs, as
    (index into qs, alpha) pairs: q by q, and for each q in order of first
    occurrence.

    q * r_k mod p rescales the stored transforms to the modulus m' = M/q
    with two multiplications per prime instead of an inversion; q = 1 scans
    the base pair itself.  All rescalings are formed in one (Q, L, 4)
    array.  Each large prime contributes its four offsets (alpha and
    alpha - p for both roots, pairwise distinct), so the count of an offset
    equals the number of distinct large primes dividing f(x + alpha * m').
    Offsets are laid out prime by prime as (a1, a1 - p, a2, a2 - p), and
    each q is counted with its own np.bincount over the 2 * p_max offsets
    it can reach; hits are listed by their first position in that sequence,
    which fixes the candidate and relation order.
    """
    for q in qs:
        if modulus % q:
            raise ValueError(f"{q} does not divide the modulus")
    primes, r = transforms
    p_max = int(primes.max(initial=0))
    a = np.array(qs, dtype=np.int64)[:, None, None] * r.T % primes[:, None]
    shifted = np.empty((len(qs), len(primes), 4), dtype=np.int64)
    shifted[:, :, 0::2] = a + p_max
    shifted[:, :, 1::2] = shifted[:, :, 0::2] - primes[:, None]
    hits: list[tuple[int, int]] = []
    for j, row in enumerate(shifted.reshape(len(qs), -1)):
        where = np.flatnonzero(np.bincount(row)[row] >= threshold)
        # dict keeps each alpha at its first position
        alphas = dict.fromkeys((row[where] - p_max).tolist())
        hits.extend(zip(repeat(j), alphas))
    return hits


def hit_values(
    n: int, shift: int, x: int, modulus: int, qs, hits
) -> dict[int, int]:
    """x_bar -> |f(x_bar) / m'| for the hits of one variant, the first hit
    of each x_bar kept.

    With t = x + shift and m' = M/q, f(x + alpha * m') / m' equals
    f(x)/m' + alpha * (2t + alpha * m'), so each hit costs no square and no
    division.  f(x)/m' is divided out once per q, and a remainder raises:
    x_bar = x mod m', so this is the divisibility check of every hit.
    """
    f_x = poly_value(x, n, shift)
    two_t = 2 * (x + shift)
    per_q = []
    for q in qs:
        m_prime = modulus // q
        base, rem = divmod(f_x, m_prime)
        if rem:
            raise AssertionError("collision modulus does not divide f")
        per_q.append((m_prime, base))
    values: dict[int, int] = {}
    for j, alpha in hits:
        m_prime, base = per_q[j]
        x_bar = x + alpha * m_prime
        if x_bar not in values:
            values[x_bar] = abs(base + alpha * (two_t + alpha * m_prime))
    return values


def round_finds(
    n: int,
    fb: FactorBase,
    sb: SmallFactorBase,
    pre: CrtPrecomp,
    ctx: SmoothnessContext,
    indices: list[int],
    partial_bound: int,
    *,
    filter_delta: int = FILTER_DELTA,
) -> tuple[list[tuple[int, int]], RoundStats]:
    """The finds of the round over the small-base primes at indices, as
    (x_bar, g) pairs in stream order, with the round's RoundStats.

    Finds are classified against partial_bound.  A context with a
    partition (the sssf variant) switches the smoothness pass to the
    two-stage filter with cutoff offset filter_delta.  Each variant is
    scanned once for all its rescalings, and its candidates are batch-tested
    together.  Nothing outside the returned values changes, so a round can
    run in any process that holds the bases.
    """
    t0 = time.perf_counter()
    shift = isqrt_ceil(n)
    digits = len(str(n))
    moduli = [sb.primes[i] for i in indices]
    modulus = math.prod(moduli)
    table = round_table(modulus, *fb.large_arrays(sb.n))

    x, _ = get_x(zip(indices, repeat(1)), pre)

    finds: list[tuple[int, int]] = []
    fulls = partials = candidates = filtered = 0
    for i in indices:
        x = swap_root(x, i, 1, modulus, pre)
        transforms = root_transforms(x, table)
        # q = 1 scans the base pair (x, M) itself
        qs = [1] + [q for q in moduli if q != sb.primes[i]]
        hits = collision_scan(transforms, qs, modulus)
        if not hits:
            continue
        batch = hit_values(n, shift, x, modulus, qs, hits)
        candidates += len(batch)
        keys = list(batch)
        values = list(batch.values())
        if ctx.part_small is not None:
            pairs = smooth_filter(ctx, values, digits, filter_delta)
            filtered += len(values) - len(pairs)
            found = [(keys[j], g) for j, g in pairs]
        else:
            found = zip(keys, smooth_batch(ctx, values))
        for x_bar, g in found:
            kind = classify(g, partial_bound)
            if kind is Smoothness.REJECT:
                continue
            if kind is Smoothness.FULL:
                fulls += 1
            else:
                partials += 1
            finds.append((x_bar, g))
    stats = RoundStats(fulls, partials, candidates, filtered, time.perf_counter() - t0)
    return finds, stats


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
    filter_delta: int = FILTER_DELTA,
) -> RoundStats:
    """One full search round: k indices drawn from rng, the round's finds
    (round_finds, classified against sink.partial_bound) and then, in
    order, sink.ingest(x_bar, g) for each of them."""
    indices = pick_indices(k, sb.n, rng)
    finds, stats = round_finds(
        n, fb, sb, pre, ctx, indices, sink.partial_bound, filter_delta=filter_delta
    )
    for x_bar, g in finds:
        sink.ingest(x_bar, g)
    return stats
