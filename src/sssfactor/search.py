"""The subsum relation search on f(x) = (x + ceil(sqrt(kN)))**2 - kN.

kN is the number being factored times the factor base's Knuth-Schroeppel
multiplier.  The factor base carries f, and the functions below read kN
and ceil(sqrt(kN)) from it (fb.kn, fb.shift), and the bound on a partial
relation's cofactor (fb.partial_bound).  The small base, whose primes form
the moduli, comes from the CRT tables (crt.CrtPrecomp.primes).  The search
uses only the paired primes of the base (factorbase.FactorBase.paired): a
prime dividing the multiplier has a single root, so its four collision
offsets would not be distinct.

One round picks k random small-base primes (subsum_size: 6 below
SUBSUM_DIGITS digits, 7 from there on), builds the initial candidate pair
(x, M) by a CRT over those k primes alone (crt.get_x), and then walks
through k local variants of x (one root swap per chosen prime,
crt.swap_root).
For each variant the roots of f modulo all large factor-base primes are
mapped into the j-line of x + j*M; an offset alpha that shows up for at
least COLLISION_THRESHOLD = 3 different large primes certifies that
f(x + alpha * m') gains three large prime divisors on top of the known
smooth part m'.  The scan returns the product of those primes with each
hit, and both m' and that product are divided out of the value before the
two-pass smoothness test, so its filter judges only what the search does
not already know.  The survivors are the round's finds: full or partial
relations, each with the residual that trial division of f(x_bar) over
the base leaves.  A rescaling of a later variant can land on an x_bar
that an earlier one produced; such a repeat is dropped before the test,
so the round tests, counts and emits each x_bar once.

The search works on int64 numpy arrays over the large primes.  Once per
round it builds the limb weights 2**(30 j) mod p and M^-1 mod p.  Once per
variant it reduces x through its 30-bit limbs, maps both roots and runs one
collision scan for all of the variant's rescalings q: it forms the 4L
offsets of every q in one array and counts them with one np.add.at into
one uint8 count array, each q in its own span; the engine keeps both
arrays for all the rounds of a collection (ScanBuffers).  Every product of
two residues stays below 2**63 because the factor base keeps all primes
below 2**31 (see factorbase.MAX_PRIME).  Hits come out q by q, and for
each q in the order in which their offsets first appear, prime by prime,
so the relation stream is the same as that of the per-prime Python loop
the tests keep as an oracle.

Only the hits become Python ints again.  Their values need no square: with
t = x + ceil(sqrt(kN)),
f(x + alpha * m') / m' = f(x)/m' + alpha * (2t + alpha * m'), and f(x)/m'
is divided out once per (variant, q).  That division must be exact, which
checks every hit of that q because x_bar = x mod m'; so must the division
by the hit's collision primes, which checks the scan.

A round's only random draw is its index list (pick_indices), which the
engine draws from one rng per composite, so a fixed seed replays the exact
relation stream.  search_round is everything after the draw: from the
round's indices it returns the round as a Round value, its finds and
counts, and it touches nothing else, so the engine runs it in whichever
process computes the round.  It stores nothing: the engine's collection
loop ingests every round's finds.
"""

import time
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .crt import CrtPrecomp, get_x, swap_root
from .factorbase import (
    FactorBase,
    limb_count,
    limb_weights,
    poly_value,
    pow_mod,
    residues,
)
from .smoothness import (
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
    "SUBSUM_DIGITS",
    "subsum_size",
    "Round",
    "pick_indices",
    "RoundTable",
    "Transforms",
    "ScanBuffers",
    "round_table",
    "root_transforms",
    "scan_buffers",
    "collision_scan",
    "hit_values",
    "search_round",
]


# distinct large primes an offset needs before its value is batch-tested
COLLISION_THRESHOLD = 3

# digit count from which a subsum modulus M takes k = 7 small-base primes
# instead of 6 (README, "Batch smoothness")
SUBSUM_DIGITS = 35


def subsum_size(digit_count: int) -> int:
    """k, the small-base primes per subsum modulus, for an input with that
    many digits."""
    return 6 if digit_count < SUBSUM_DIGITS else 7


class Round(NamedTuple):
    """One round's finds and counts (a search round, or a sieved interval)."""

    finds: list     # (x_bar, g) full and partial relations, in stream order
    fulls: int
    partials: int
    candidates: int
    filtered: int   # candidates dropped by the two-pass filter
    seconds: float  # wall time of finding the round's relations


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

    The inverse is M^(p-2) mod p; the large primes never divide M.
    """
    weights = limb_weights(primes, limb_count(modulus))
    inverses = pow_mod(residues(modulus, weights, primes), primes - 2, primes)
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


class ScanBuffers(NamedTuple):
    """Work arrays that collision scans reuse, so that a scan allocates no
    array of the size of the factor base.  Keep them for more than a round:
    made for every round, the 300 KB count array of 50 digits comes from
    fresh pages each time, 109 minor page faults a round in a fresh
    process."""

    offsets: np.ndarray  # (Q, L, 4) int64: the offsets of up to Q rescalings
    counts: np.ndarray   # (Q * 2 * p_max,) uint8: zero between scans
    ones: np.ndarray     # (Q * 4L,) uint8: np.add.at with a scalar 1 is ~10x slower


def scan_buffers(rescalings: int, primes: np.ndarray) -> ScanBuffers:
    """Buffers for scans of up to `rescalings` rescalings over primes."""
    p_max = int(primes.max(initial=0))
    return ScanBuffers(
        np.empty((rescalings, len(primes), 4), dtype=np.int64),
        np.zeros(rescalings * 2 * p_max, dtype=np.uint8),
        np.ones(rescalings * 4 * len(primes), dtype=np.uint8),
    )


def collision_scan(
    transforms: Transforms,
    qs,
    modulus: int,
    threshold: int = COLLISION_THRESHOLD,
    buffers: ScanBuffers | None = None,
) -> list[tuple[int, int, int]]:
    """Collision offsets of one variant for every rescaling q in qs, as
    (index into qs, alpha, product) triples: q by q, and for each q in
    order of first occurrence; product is that of the large primes whose
    offsets met on (q, alpha), each of which divides f(x + alpha * m').

    q * r_k mod p rescales the stored transforms to the modulus m' = M/q
    with two multiplications per prime instead of an inversion; q = 1 scans
    the base pair itself.  All rescalings are formed in one (Q, L, 4)
    array.  Each large prime contributes its four offsets (alpha and
    alpha - p for both roots, pairwise distinct), so the count of an offset
    equals the number of distinct large primes dividing f(x + alpha * m').
    Offsets are laid out prime by prime as (a1, a1 - p, a2, a2 - p), and
    the j-th q counts into its own span of 2 * p_max cells of one count
    array, the offsets it can reach, so one np.add.at counts them all.
    The spans of qs are then reset with one contiguous fill, which leaves
    the count array all zero again.  Hits are listed q by q, each by its
    first position in that sequence, which fixes the candidate and
    relation order.  Each position of an offset names its prime, so the
    positions of a hit's cell give its primes.  buffers, from scan_buffers
    over the same primes and at least len(qs) rescalings, holds the arrays,
    so that successive scans reuse them; without it the scan makes its own.
    """
    for q in qs:
        if modulus % q:
            raise ValueError(f"{q} does not divide the modulus")
    primes, r = transforms
    if buffers is None:
        buffers = scan_buffers(len(qs), primes)
    p_max = int(primes.max(initial=0))
    span = 2 * p_max
    shifted = buffers.offsets[: len(qs)]
    even, odd = shifted[:, :, 0::2], shifted[:, :, 1::2]
    np.multiply(np.array(qs, dtype=np.int64)[:, None, None], r.T, out=even)
    np.remainder(even, primes[:, None], out=even)
    np.add(even, (np.arange(len(qs)) * span + p_max)[:, None, None], out=even)
    np.subtract(even, primes[:, None], out=odd)
    cells = shifted.reshape(-1)
    # a count is at most the number of distinct large primes dividing
    # f(x + alpha * m'), a value of a few hundred bits: fewer than 100
    # primes above the small base, so a uint8 count cannot wrap
    counts = buffers.counts
    np.add.at(counts, cells, buffers.ones[: len(cells)])
    where = np.flatnonzero(counts[cells] >= threshold)
    # every offset lies in its q's span, so one contiguous fill resets all
    # the cells the scan touched, at a fraction of the cost of a scatter
    # over them (README, "Collision search")
    counts[: len(qs) * span] = 0
    # a cell is one (q, alpha), and each of its positions one prime whose
    # offset met there; dict keeps each cell at its first position
    products: dict[int, int] = {}
    for c, p in zip(cells[where].tolist(), primes[where // 4 % len(primes)].tolist()):
        products[c] = products.get(c, 1) * p
    return [(c // span, c % span - p_max, product) for c, product in products.items()]


def hit_values(fb: FactorBase, x: int, modulus: int, qs, hits) -> dict[int, int]:
    """x_bar -> |f(x_bar) / m'| / P for the hits of one variant, the first
    hit of each x_bar kept; f is the factor base's polynomial and P the
    product of the hit's collision primes (collision_scan).

    With t = x + fb.shift and m' = M/q, f(x + alpha * m') / m' equals
    f(x)/m' + alpha * (2t + alpha * m'), so each hit costs no square.
    f(x)/m' is divided out once per q, and a remainder raises: x_bar = x
    mod m', so this is the divisibility check of every hit.  A remainder
    of the division by P raises too.  P holds base primes only, so the
    value keeps the residual that trial division over the base leaves.
    """
    f_x = poly_value(x, fb.kn, fb.shift)
    two_t = 2 * (x + fb.shift)
    per_q = []
    for q in qs:
        m_prime = modulus // q
        base, rem = divmod(f_x, m_prime)
        if rem:
            raise AssertionError("collision modulus does not divide f")
        per_q.append((m_prime, base))
    values: dict[int, int] = {}
    for j, alpha, product in hits:
        m_prime, base = per_q[j]
        x_bar = x + alpha * m_prime
        if x_bar not in values:
            value, rem = divmod(abs(base + alpha * (two_t + alpha * m_prime)), product)
            if rem:
                raise AssertionError("collision primes do not divide f")
            values[x_bar] = value
    return values


def search_round(
    fb: FactorBase,
    pre: CrtPrecomp,
    ctx: SmoothnessContext,
    indices: list[int],
    buffers: ScanBuffers | None = None,
) -> Round:
    """The round over the small-base primes at indices: its finds, as
    (x_bar, g) pairs in stream order, and its counts.

    The small base is pre.primes, and the collision primes are the paired
    primes of fb beyond it.  Finds are classified against fb.partial_bound.
    The smoothness test takes two passes over ctx's partition: pass 1
    (smooth_filter) keeps a value whose residual after the smallest primes
    lies below fb.p_max**2, room for two more base primes or one partial
    cofactor on top of the collision primes already divided out, and pass
    2 (smooth_batch over ctx.part_large) finishes the values kept.
    Each variant is scanned once for all its rescalings, and its candidates
    are batch-tested together, less those that an earlier variant of the
    round already produced.  The scans use buffers, scan_buffers over the
    large primes for len(indices) rescalings, which a caller may keep from
    round to round in one process; without them the round makes its own.
    Nothing else outside the returned value changes, so a round can run in
    any process that holds the bases.
    """
    t0 = time.perf_counter()
    small = pre.primes
    moduli = [small[i] for i in indices]
    x, modulus = get_x(zip(indices, repeat(1)), pre)
    table = round_table(modulus, *fb.large_arrays(len(small)))
    if buffers is None:
        buffers = scan_buffers(len(indices), table.primes)

    finds: list[tuple[int, int]] = []
    fulls = partials = candidates = filtered = 0
    # x_bar already batch-tested in this round: another variant's rescaling
    # can land on it again
    seen: set[int] = set()
    for i in indices:
        x = swap_root(x, i, 1, modulus, pre)
        transforms = root_transforms(x, table)
        # q = 1 scans the base pair (x, M) itself
        qs = [1] + [q for q in moduli if q != small[i]]
        hits = collision_scan(transforms, qs, modulus, buffers=buffers)
        if not hits:
            continue
        batch = hit_values(fb, x, modulus, qs, hits)
        if not seen.isdisjoint(batch):
            batch = {x_bar: v for x_bar, v in batch.items() if x_bar not in seen}
            if not batch:
                continue
        seen.update(batch)
        candidates += len(batch)
        keys = list(batch)
        kept = smooth_filter(ctx, list(batch.values()), fb.p_max**2)
        filtered += len(batch) - len(kept)
        residuals = smooth_batch(ctx.part_large, [g for _, g in kept])
        for (j, _), g in zip(kept, residuals):
            x_bar = keys[j]
            kind = classify(g, fb.partial_bound)
            if kind is Smoothness.REJECT:
                continue
            if kind is Smoothness.FULL:
                fulls += 1
            else:
                partials += 1
            finds.append((x_bar, g))
    seconds = time.perf_counter() - t0
    return Round(finds, fulls, partials, candidates, filtered, seconds)
