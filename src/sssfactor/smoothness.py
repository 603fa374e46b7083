"""Batch smoothness detection with product and remainder trees.

One big product eta of the factor-base primes is computed once; a batch
of candidates is then reduced against it with a remainder tree, and a
single gcd per candidate strips the smooth part.  eta is boosted so that
every prime power dividing it exceeds 2^15, which makes the repeated
squaring of the textbook algorithm unnecessary in practice: residual 1
still guarantees smoothness, and only candidates with extreme prime-power
multiplicities can be missed.  smooth_batch_exact keeps the squaring step
and matches trial division bit for bit; nothing in the search uses it, and
it stays as the reference that the acceptance suite checks.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Smoothness",
    "SmoothnessContext",
    "product_tree",
    "tree_root",
    "remainders",
    "build_context",
    "smooth_batch",
    "smooth_batch_exact",
    "smooth_filter",
    "classify",
]

# every prime power dividing the boosted product must exceed this
ETA_MIN_POWER = 1 << 15


def product_tree(values) -> list[list[int]]:
    """Balanced product tree; level 0 is the leaves, the last level the root."""
    level = list(values)
    if not level:
        raise ValueError("empty leaf list")
    tree = [level]
    while len(level) > 1:
        level = [
            level[i] * level[i + 1] if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
        tree.append(level)
    return tree


def tree_root(tree: list[list[int]]) -> int:
    return tree[-1][0]


def remainders(z: int, values) -> list[int]:
    """z mod v for every v, via a remainder tree over the values."""
    if not values:
        return []
    tree = product_tree(values)
    rems = [z % tree_root(tree)]
    for level in reversed(tree[:-1]):
        rems = [rems[i // 2] % v for i, v in enumerate(level)]
    return rems


def _boosted_power(p: int) -> int:
    power = p
    while power <= ETA_MIN_POWER:
        power *= p
    return power


@dataclass(frozen=True, eq=False)
class SmoothnessContext:
    primes: tuple[int, ...]
    eta: int  # boosted product
    part_small: Optional["SmoothnessContext"] = None  # smallest primes (filter pass 1)
    part_large: Optional["SmoothnessContext"] = None  # the rest (filter pass 2)


def build_context(primes, split_ratio: int | None = None) -> SmoothnessContext:
    """Precompute the boosted product for a prime list.

    With split_ratio r, the primes are additionally partitioned into the
    smallest len/r ones and the rest, each with its own context, for the
    two-pass filter.
    """
    primes = tuple(primes)
    eta = tree_root(product_tree([_boosted_power(p) for p in primes]))
    part_small = part_large = None
    if split_ratio is not None:
        if split_ratio < 2:
            raise ValueError("split ratio must be at least 2")
        cut = max(1, len(primes) // split_ratio)
        if cut < len(primes):
            part_small = build_context(primes[:cut])
            part_large = build_context(primes[cut:])
    return SmoothnessContext(primes, eta, part_small, part_large)


def smooth_batch(ctx: SmoothnessContext, candidates) -> list[int]:
    """Non-smooth residual of each candidate against the boosted product.

    Residual 1 means the candidate factors completely over ctx.primes.
    """
    if not candidates:
        return []
    for x in candidates:
        if x <= 0:
            raise ValueError(f"candidates must be positive, got {x}")
    return [
        x // math.gcd(x, y) for x, y in zip(candidates, remainders(ctx.eta, candidates))
    ]


def smooth_batch_exact(ctx: SmoothnessContext, candidates) -> list[int]:
    """Exact non-smooth parts: the remainder is squared until the exponent
    of every shared prime is at least log2 of the candidate, so arbitrary
    multiplicities are stripped.  Matches trial division exactly."""
    if not candidates:
        return []
    for x in candidates:
        if x <= 0:
            raise ValueError(f"candidates must be positive, got {x}")
    out = []
    for x, y in zip(candidates, remainders(ctx.eta, candidates)):
        if y:
            cap = 2
            while cap < x:
                y = y * y % x
                cap = cap * cap
        out.append(x // math.gcd(x, y))
    return out


def smooth_filter(ctx: SmoothnessContext, candidates, digits: int, delta: int):
    """Two-pass batch: strip the smallest primes first, keep only candidates
    whose residual dropped below 10**(digits/2 - delta), then finish the
    survivors against the rest of the base.

    Returns (index, residual) pairs, indices into the input list.
    """
    if ctx.part_small is None or ctx.part_large is None:
        raise ValueError("context was built without a partition")
    first = smooth_batch(ctx.part_small, candidates)
    # g < 10^(digits/2 - delta), squared to stay in integers for odd digits
    cutoff_sq = 10 ** max(digits - 2 * delta, 0)
    kept = [(i, g) for i, g in enumerate(first) if g * g < cutoff_sq]
    second = smooth_batch(ctx.part_large, [g for _, g in kept])
    return [(i, g) for (i, _), g in zip(kept, second)]


class Smoothness(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"
    REJECT = "reject"


def classify(residual: int, p_max: int, multiplier: int = 128) -> Smoothness:
    """Full relation, usable partial (cofactor below multiplier * p_max),
    or reject."""
    if residual < 1:
        raise ValueError("residuals are positive")
    if residual == 1:
        return Smoothness.FULL
    if residual < multiplier * p_max:
        return Smoothness.PARTIAL
    return Smoothness.REJECT
