"""Single-polynomial quadratic sieve baseline.

Deliberately basic: one polynomial f(x) = (x + ceil(sqrt(kN)))**2 - kN,
the one the subsum search uses (k is the factor base's Knuth-Schroeppel
multiplier, and the Sieve reads kN and ceil(sqrt(kN)) from the factor
base), sieved over intervals of SIEVE_LENGTH values on both sides of 0
(0, -L, L, -2L, ...), rounded base-2 prime logs in byte accumulators,
prime squares up to the interval length sieved once.  One interval is one
round of the engine's collection loop: survivors go through the shared
batch smoothness check, and run_sieve returns them as a search.Round that
the engine ingests like a search round's, so the comparison against the
subsum search differs only in how candidates are generated.

The progressions (modulus, root, weight) depend only on kN, Hensel lifts
mod p**2 included, so a Sieve builds them once per composite.  It sieves
BLOCK_INTERVALS consecutive intervals of one side at a time, one strided
add per progression over the whole block: per interval, numpy's per-call
overhead cost more than the element work.  Every interval keeps its own
threshold, and a position's byte sum does not depend on the block around
it, so each interval has exactly the survivors it has when sieved alone.

The smallest moduli (2 to 13, sometimes 17, at 35 digits) would stride over
the whole block for little log mass.  The Sieve takes the progressions in
ascending modulus while the lcm of their moduli stays within a block and
sieves them once into a byte pattern one period (that lcm) long.  A block
starts as that pattern read from start mod period, filled by a few copies
that double it, and only the other progressions are added to it.  Byte
addition mod 256 does not depend on order, so every byte, and so every
survivor, is the one that strided adds of all progressions give.  The
small-prime variation (Silverman, 1987) drops these primes and lowers the
threshold instead; the pattern keeps their exact sums.

The same holds across processes: each of the engine's forked workers
builds its own Sieve from the collection's plan and gets 2 *
BLOCK_INTERVALS consecutive intervals at a time, one block per side, and
any worker's blocks give every interval the survivors that the calling
process would.
"""

import math
import time

import numpy as np

from .factorbase import FactorBase, poly_value
from .search import Round
from .smoothness import Smoothness, SmoothnessContext, classify, smooth_batch

__all__ = ["Sieve", "sieve_interval", "run_sieve"]

SIEVE_LENGTH = 65536
# intervals of one side sieved per pass; a block's byte array is
# BLOCK_INTERVALS * SIEVE_LENGTH bytes
BLOCK_INTERVALS = 8


def _ceil_log2(v: int) -> int:
    return (v - 1).bit_length() if v > 1 else 0


def interval_start(index: int, length: int) -> int:
    """First x of interval number index: 0, -L, L, -2L, 2L, ..."""
    side = index % 2
    step = index // 2
    return step * length if side == 0 else -(step + 1) * length


class Sieve:
    """The sieve of one composite: its progressions, built once, and the
    survivors of the last block sieved on each side.  f is the factor
    base's polynomial (fb.kn, fb.shift).

    Each root s of f mod p is a progression x = s mod p of weight
    ceil(log2 p); so is each root lifted mod p**2 when p**2 <= length, the
    interval length.  A prime dividing the multiplier has one root and
    divides f only once, so it gets one progression and no lift.  The
    prime 2 adds 1 on x = kN + shift mod 2 and, when kN = 1 mod 4, 1 more
    on the two classes mod 4 where f = 0 mod 4.  Accumulators are bytes,
    which is ample for inputs up to 100 digits.

    mods, roots and weights list the progressions in ascending modulus.
    The first `patterned` of them, as many as keep the lcm of their moduli
    within a block (length * BLOCK_INTERVALS), are sieved once into
    `pattern`, the byte sums of one `period`, that lcm, from x = 0; block()
    adds only the others.
    """

    def __init__(self, fb: FactorBase, partial_bound: int, length: int = SIEVE_LENGTH):
        self.fb = fb
        kn, shift = fb.kn, fb.shift
        self.length = length
        self.partial_bound = partial_bound
        mods, roots, weights = [2], [(kn + shift) % 2], [1]
        if kn % 4 == 1:
            mods += [4, 4]
            roots += [(1 - shift) % 4, (3 - shift) % 4]
            weights += [1, 1]
        for p in fb.odd_primes:
            weight = (p - 1).bit_length()
            pair = fb.roots[p]
            if pair[0] == pair[1]:
                mods.append(p)
                roots.append(pair[0])
                weights.append(weight)
                continue
            mods += [p, p]
            roots += pair
            weights += [weight, weight]
            pp = p * p
            if pp <= length:
                for s in pair:
                    # Hensel lift: f'(s) = 2(s + shift) is invertible mod p
                    f_s = poly_value(s, kn, shift)
                    roots.append((s - f_s * pow(2 * (s + shift), -1, pp)) % pp)
                    mods.append(pp)
                    weights.append(weight)
        # in ascending modulus, so that the pattern takes the first ones
        mods, roots, weights = zip(*sorted(zip(mods, roots, weights)))
        self.mods = np.array(mods, dtype=np.int64)
        self.roots = np.array(roots, dtype=np.int64)
        self.weights = np.array(weights, dtype=np.int64)
        # the first progressions, while the lcm of their moduli fits in a
        # block, are sieved once over one period of that lcm, the pattern
        period, patterned = 1, 0
        for mod in mods:
            lcm = math.lcm(period, mod)
            if lcm > length * BLOCK_INTERVALS:
                break
            period, patterned = lcm, patterned + 1
        self.period, self.patterned = period, patterned
        self.pattern = np.zeros(period, dtype=np.uint8)
        for mod, root, weight in zip(mods[:patterned], roots, weights):
            self.pattern[root::mod] += weight
        # the other moduli and weights as Python ints, which the strided
        # adds take
        self._strides = list(zip(mods[patterned:], weights[patterned:]))
        # side -> (first step, survivor lists of that step and the next ones)
        self.blocks: dict[int, tuple[int, list[list[int]]]] = {}

    def threshold(self, start: int) -> int:
        """The threshold of the interval [start, start + length):
        ceil(log2 |f(mid)|) minus the partial-cofactor allowance
        log2(partial_bound), so that candidates leading to partial
        relations still clear the bar."""
        f_mid = abs(poly_value(start + self.length // 2, self.fb.kn, self.fb.shift))
        return max(_ceil_log2(f_mid) - _ceil_log2(self.partial_bound), 1)

    def block(self, start: int, thresholds) -> list[list[int]]:
        """Survivors of the intervals [start + j L, start + (j + 1) L), one
        list per threshold and in that order, each x ascending: the x
        whose byte sum reaches the interval's threshold."""
        length = self.length
        size = length * len(thresholds)
        logs = np.empty(size, dtype=np.uint8)
        # logs[i] = pattern[(start + i) mod period]: one period from x =
        # start, wrapping round the pattern's end, then copies of the filled
        # prefix, a whole number of periods, each doubling it
        head = self.pattern[start % self.period :][:size]
        logs[: len(head)] = head
        filled = min(self.period, size)
        logs[len(head) : filled] = self.pattern[: filled - len(head)]
        while filled < size:
            count = min(filled, size - filled)
            logs[filled : filled + count] = logs[:count]
            filled += count
        rest = slice(self.patterned, None)
        offsets = ((self.roots[rest] - start) % self.mods[rest]).tolist()
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
        lists = sieve.block(starts[0], [sieve.threshold(s) for s in starts])
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
    kn, shift = sieve.fb.kn, sieve.fb.shift
    values = [abs(poly_value(x, kn, shift)) for x in xs]
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
