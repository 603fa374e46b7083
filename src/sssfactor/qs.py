"""Single-polynomial quadratic sieve baseline.

Deliberately basic: one polynomial f(x) = (x + ceil(sqrt(N)))**2 - N,
sieved over intervals of SIEVE_LENGTH values on both sides of 0 (0, -L, L,
-2L, ...), rounded base-2 prime logs in byte accumulators, prime squares
up to the interval length sieved once.  One interval is one round of the
engine's collection loop: survivors go through the shared batch
smoothness check, and run_sieve returns them as a search.Round that the
engine ingests like a search round's, so the comparison against the
subsum search differs only in how candidates are generated.

The progressions (modulus, root, weight) depend only on N, Hensel lifts
mod p**2 included, so a Sieve builds them once per composite.  It sieves
BLOCK_INTERVALS consecutive intervals of one side at a time, one strided
add per progression over the whole block: per interval, numpy's per-call
overhead cost more than the element work.  Every interval keeps its own
threshold, and a position's byte sum does not depend on the block around
it, so each interval has exactly the survivors it has when sieved alone.

The same holds across processes: the engine's forked workers inherit the
Sieve and get 2 * BLOCK_INTERVALS consecutive intervals at a time, one
block per side, and any worker's blocks give every interval the survivors
that the calling process would.
"""

import time

import numpy as np

from .factorbase import FactorBase, poly_value
from .numtheory import isqrt_ceil
from .search import Round
from .smoothness import Smoothness, SmoothnessContext, classify, smooth_batch

__all__ = ["Sieve", "sieve_interval", "sieve_threshold", "run_sieve"]

SIEVE_LENGTH = 65536
# intervals of one side sieved per pass; a block's byte array is
# BLOCK_INTERVALS * SIEVE_LENGTH bytes
BLOCK_INTERVALS = 8


def _ceil_log2(v: int) -> int:
    return (v - 1).bit_length() if v > 1 else 0


def sieve_threshold(n: int, start: int, length: int, partial_bound: int) -> int:
    """ceil(log2 |f(mid)|) minus the partial-cofactor allowance
    log2(partial_bound), so that candidates leading to partial relations
    still clear the bar."""
    shift = isqrt_ceil(n)
    mid = start + length // 2
    f_mid = abs(poly_value(mid, n, shift))
    return max(_ceil_log2(f_mid) - _ceil_log2(partial_bound), 1)


def interval_start(index: int, length: int) -> int:
    """First x of interval number index: 0, -L, L, -2L, 2L, ..."""
    side = index % 2
    step = index // 2
    return step * length if side == 0 else -(step + 1) * length


class Sieve:
    """The sieve of one composite: its progressions, built once, and the
    survivors of the last block sieved on each side.

    Each root s of f mod p is a progression x = s mod p of weight
    ceil(log2 p); so is each root lifted mod p**2 when p**2 <= length, the
    interval length.  The prime 2 adds 1 on x = N + shift mod 2 and, when
    N = 1 mod 4, 1 more on the two classes mod 4 where f = 0 mod 4.
    Accumulators are bytes, which is ample for inputs up to 100 digits.
    """

    def __init__(self, n: int, fb: FactorBase, partial_bound: int,
                 length: int = SIEVE_LENGTH):
        self.n = n
        self.shift = shift = isqrt_ceil(n)
        self.length = length
        self.partial_bound = partial_bound
        mods, roots, weights = [2], [(n + shift) % 2], [1]
        if n % 4 == 1:
            mods += [4, 4]
            roots += [(1 - shift) % 4, (3 - shift) % 4]
            weights += [1, 1]
        for p in fb.odd_primes:
            weight = (p - 1).bit_length()
            pair = fb.roots[p]
            mods += [p, p]
            roots += pair
            weights += [weight, weight]
            pp = p * p
            if pp <= length:
                for s in pair:
                    # Hensel lift: f'(s) = 2(s + shift) is invertible mod p
                    f_s = poly_value(s, n, shift)
                    roots.append((s - f_s * pow(2 * (s + shift), -1, pp)) % pp)
                    mods.append(pp)
                    weights.append(weight)
        self.mods = np.array(mods, dtype=np.int64)
        self.roots = np.array(roots, dtype=np.int64)
        self.weights = np.array(weights, dtype=np.int64)
        # the same as Python ints, which the strided adds take
        self._strides = list(zip(self.mods.tolist(), self.weights.tolist()))
        # side -> (first step, survivor lists of that step and the next ones)
        self.blocks: dict[int, tuple[int, list[list[int]]]] = {}

    def block(self, start: int, thresholds) -> list[list[int]]:
        """Survivors of the intervals [start + j L, start + (j + 1) L), one
        list per threshold and in that order, each x ascending: the x
        whose byte sum reaches the interval's threshold."""
        length = self.length
        size = length * len(thresholds)
        logs = np.zeros(size, dtype=np.uint8)
        offsets = ((self.roots - start) % self.mods).tolist()
        for off, (mod, weight) in zip(offsets, self._strides):
            if off < size:
                logs[off::mod] += weight
        out = []
        for j, threshold in enumerate(thresholds):
            hits = np.flatnonzero(logs[j * length : (j + 1) * length] >= threshold)
            out.append((hits + (start + j * length)).tolist())
        return out


def sieve_interval(sieve: Sieve, index: int) -> list[int]:
    """Survivors of interval number index, ascending.

    Served from the side's current block; an interval outside it starts a
    new block of K = BLOCK_INTERVALS steps at its step s, which on side 0
    covers [sL, (s + K)L) and on side 1 [-(s + K)L, -sL).
    """
    side, step = index % 2, index // 2
    first, lists = sieve.blocks.get(side, (0, []))
    if not first <= step < first + len(lists):
        length = sieve.length
        first = step
        starts = [interval_start(2 * (step + j) + side, length)
                  for j in range(BLOCK_INTERVALS)]
        if side:
            starts.reverse()  # the block runs upwards from its lowest x
        lists = sieve.block(starts[0], [
            sieve_threshold(sieve.n, s, length, sieve.partial_bound) for s in starts
        ])
        if side:
            lists.reverse()
        sieve.blocks[side] = (first, lists)
    return lists[step - first]


def run_sieve(sieve: Sieve, ctx: SmoothnessContext, index: int) -> Round:
    """Sieve interval number index (0, -L, L, -2L, ... with L = SIEVE_LENGTH)
    and return its full and partial relations, classified against
    sieve.partial_bound.

    Candidates are the sieve survivors, and nothing is filtered.
    """
    t0 = time.perf_counter()
    xs = sieve_interval(sieve, index)
    values = [abs(poly_value(x, sieve.n, sieve.shift)) for x in xs]
    finds = []
    fulls = partials = 0
    for x, g in zip(xs, smooth_batch(ctx, values)):
        kind = classify(g, sieve.partial_bound)
        if kind is Smoothness.REJECT:
            continue
        if kind is Smoothness.FULL:
            fulls += 1
        else:
            partials += 1
        finds.append((x, g))
    return Round(finds, fulls, partials, len(xs), 0, time.perf_counter() - t0)
