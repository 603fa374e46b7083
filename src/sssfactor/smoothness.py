"""Batch smoothness detection with product and remainder trees.

One big product eta of the factor-base primes, each prime once, is
computed once per context, by the same product-tree levels (_parents)
that the remainder tree builds.  A batch of candidates is reduced against it
with a remainder tree, and d = gcd(x, eta mod x) is then the product of
the base primes that divide x.  Dividing d out and taking d = gcd(x, d)
again until it is 1 strips every power of them, so the residual equals
that of trial division (Bernstein, "How to find smooth parts of
integers", 2004).  The plain product keeps eta, and with it the top
division of the remainder tree, as small as the base allows, and the
remainder tree stops growing once its nodes are long against eta.
smooth_batch_exact reaches the same residuals by repeated squaring of the
remainder; nothing in the search uses it, and it stays as the reference
that the acceptance suite checks.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "FILTER_SPLIT_RATIO",
    "Smoothness",
    "SmoothnessContext",
    "remainders",
    "build_context",
    "smooth_batch",
    "smooth_batch_exact",
    "smooth_filter",
    "classify",
]

# the two-pass filter (sssf): pass 1 uses the smallest |F| / FILTER_SPLIT_RATIO
# primes, and pass 2 the rest
FILTER_SPLIT_RATIO = 10


def _parents(level: list[int]) -> list[int]:
    """The next level of a product tree: products of neighbouring pairs."""
    return [
        level[i] * level[i + 1] if i + 1 < len(level) else level[i]
        for i in range(0, len(level), 2)
    ]


def remainders(z: int, values) -> list[int]:
    """z mod v for every v, via a remainder tree over the values.

    The product tree stops at the first level whose first node has more
    than an eighth of the bits of z, and z is reduced mod each node of
    that level directly, which is exact at any level.  Above it, the
    products and the remainders of longer nodes would cost more than
    those direct reductions save: the sssf filter's first pass reduces an
    eta shorter than the product of its candidates (README, "Batch
    smoothness").
    """
    if not values:
        return []
    tree = [list(values)]
    stop = z.bit_length()
    while len(tree[-1]) > 1 and 8 * tree[-1][0].bit_length() <= stop:
        tree.append(_parents(tree[-1]))
    rems = [z % v for v in tree[-1]]
    for level in reversed(tree[:-1]):
        rems = [rems[i // 2] % v for i, v in enumerate(level)]
    return rems


@dataclass(frozen=True, eq=False)
class SmoothnessContext:
    primes: tuple[int, ...]
    eta: int  # product of the primes, each once
    part_small: Optional["SmoothnessContext"] = None  # smallest primes (filter pass 1)
    part_large: Optional["SmoothnessContext"] = None  # the rest (filter pass 2)


def build_context(primes, split_ratio: int | None = None) -> SmoothnessContext:
    """Precompute the product of a prime list, each prime once, by the
    levels of a product tree (_parents), as remainders builds them.

    With split_ratio r, the primes are additionally partitioned into the
    smallest len/r ones and the rest, each with its own context and the
    product of its own primes, for the two-pass filter; eta is then the
    product of the two parts' etas.
    """
    primes = tuple(primes)
    if split_ratio is not None:
        if split_ratio < 2:
            raise ValueError("split ratio must be at least 2")
        cut = max(1, len(primes) // split_ratio)
        if cut < len(primes):
            part_small = build_context(primes[:cut])
            part_large = build_context(primes[cut:])
            eta = part_small.eta * part_large.eta
            return SmoothnessContext(primes, eta, part_small, part_large)
    level = list(primes) or [1]  # the empty product is 1
    while len(level) > 1:
        level = _parents(level)
    return SmoothnessContext(primes, level[0])


def smooth_batch(ctx: SmoothnessContext, candidates) -> list[int]:
    """Non-smooth part of each candidate: what is left once every power of
    ctx.primes is divided out, as trial division would leave it.

    d = gcd(x, eta mod x) is the product of the primes of ctx that divide
    x; each further gcd(x, d) is the product of those that still divide x,
    so the loop runs as often as the highest exponent.  Residual 1 means
    the candidate factors completely over ctx.primes.
    """
    if not candidates:
        return []
    for x in candidates:
        if x <= 0:
            raise ValueError(f"candidates must be positive, got {x}")
    out = []
    for x, y in zip(candidates, remainders(ctx.eta, candidates)):
        d = math.gcd(x, y)
        x //= d
        while d > 1:
            d = math.gcd(x, d)
            x //= d
        out.append(x)
    return out


def smooth_batch_exact(ctx: SmoothnessContext, candidates) -> list[int]:
    """smooth_batch by the textbook route: the remainder is squared until
    the exponent of every shared prime is at least log2 of the candidate,
    and one gcd strips every multiplicity.  Matches trial division
    exactly."""
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


def smooth_filter(ctx: SmoothnessContext, candidates, cutoff: int):
    """Two-pass batch: strip the smallest primes first, keep only candidates
    whose residual dropped below cutoff, then finish the survivors against
    the rest of the base.

    Returns (index, residual) pairs, indices into the input list.
    """
    if ctx.part_small is None or ctx.part_large is None:
        raise ValueError("context was built without a partition")
    first = smooth_batch(ctx.part_small, candidates)
    kept = [(i, g) for i, g in enumerate(first) if g < cutoff]
    second = smooth_batch(ctx.part_large, [g for _, g in kept])
    return [(i, g) for (i, _), g in zip(kept, second)]


class Smoothness(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"
    REJECT = "reject"


def classify(residual: int, partial_bound: int) -> Smoothness:
    """Full relation, usable partial (residual below partial_bound), or
    reject."""
    if residual < 1:
        raise ValueError("residuals are positive")
    if residual == 1:
        return Smoothness.FULL
    if residual < partial_bound:
        return Smoothness.PARTIAL
    return Smoothness.REJECT
