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

Every context of two or more primes is also split into its smallest
primes and the rest, each part with its own product, for the search's
two-pass filter: smooth_filter is pass 1, which strips the smallest primes
and keeps the candidates whose residual falls below a cutoff, and the
search finishes those with smooth_batch over the rest.  The whole product
is that of the two parts' products; the qs sieve reads it.
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

# the two-pass filter: pass 1 uses the smallest |F| / FILTER_SPLIT_RATIO
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
    those direct reductions save: the filter's first pass reduces an
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


def _context(primes: tuple[int, ...]) -> SmoothnessContext:
    """The unsplit context of primes: their product, each prime once, by
    the levels of a product tree (_parents), as remainders builds them."""
    level = list(primes) or [1]  # the empty product is 1
    while len(level) > 1:
        level = _parents(level)
    return SmoothnessContext(primes, level[0])


def build_context(primes) -> SmoothnessContext:
    """Precompute the product of a prime list, each prime once.

    A list of two or more primes is partitioned into the smallest
    len / FILTER_SPLIT_RATIO ones (at least one) and the rest, each with
    the product of its own primes, for the two-pass filter; eta is then
    the product of the two parts' etas.
    """
    primes = tuple(primes)
    if len(primes) < 2:
        return _context(primes)
    cut = max(1, len(primes) // FILTER_SPLIT_RATIO)
    part_small, part_large = _context(primes[:cut]), _context(primes[cut:])
    return SmoothnessContext(primes, part_small.eta * part_large.eta, part_small, part_large)


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
    """Pass 1 of the two-pass filter: strip the smallest primes of ctx
    (ctx.part_small) and keep the candidates whose residual dropped below
    cutoff, as (index, residual) pairs, indices into the input list.
    Pass 2 is smooth_batch over ctx.part_large, on the residuals kept.
    """
    if ctx.part_small is None:
        raise ValueError("a context of fewer than two primes has no partition")
    first = smooth_batch(ctx.part_small, candidates)
    return [(i, g) for i, g in enumerate(first) if g < cutoff]


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
