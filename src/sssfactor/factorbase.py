"""Factor bases for the polynomial f(x) = (x + ceil(sqrt(N)))**2 - N.

The factor base keeps 2 plus every odd prime p among the first 2m primes
with (N|p) = 1 (for the others f has no root, so they can never divide a
candidate value).  Each kept odd prime carries the two roots of f mod p.
The small factor base is the prefix of the first n odd primes; its
products form the moduli of the subsum search.  The odd primes and their
roots are also kept as int64 arrays for the vectorized collision search
and root test, which need every prime below 2**31 to keep their products
inside int64.  limb_weights() and residues() reduce one big integer
modulo every prime of such an array; the search and the relation store
share them.
"""

from dataclasses import dataclass, field

import numpy as np

from .numtheory import (
    FoundFactor,
    is_perfect_power,
    is_probable_prime,
    isqrt_ceil,
    legendre,
    small_primes,
    tonelli_shanks,
)

__all__ = [
    "MAX_PRIME",
    "FactorBase",
    "SmallFactorBase",
    "poly_value",
    "limb_count",
    "limb_weights",
    "residues",
    "table_sizes",
    "build_factor_bases",
]


def poly_value(x: int, n: int, shift: int) -> int:
    """f(x) = (x + shift)**2 - n, with shift = ceil(sqrt(n))."""
    t = x + shift
    return t * t - n


# The collision search and the root test multiply residues mod p in int64;
# with every prime below 2**31 each such product, and each partial sum of
# them, stays below 2**63 (see residues() and search.py).
MAX_PRIME = 2**31

LIMB_BITS = 30
_LIMB_MASK = (1 << LIMB_BITS) - 1
# terms summed before a reduction: acc + 3 * 2**30 * 2**31 stays below 2**63
_LIMBS_PER_SUM = 3


def limb_count(value: int) -> int:
    """30-bit limbs that hold 0 <= value; at least one."""
    return max(1, -(-value.bit_length() // LIMB_BITS))


def limb_weights(primes: np.ndarray, limbs: int) -> np.ndarray:
    """(limbs, L) int64 table of 2**(30 j) mod p for every prime."""
    weights = np.empty((limbs, len(primes)), dtype=np.int64)
    weights[0] = 1
    for j in range(1, limbs):
        weights[j] = (weights[j - 1] << LIMB_BITS) % primes
    return weights


def residues(value: int, weights: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """value mod p for every prime (0 <= value < 2**(30 J)), as the sum of
    value's 30-bit limbs times the weights 2**(30 j) mod p."""
    if value >> (LIMB_BITS * len(weights)):
        raise ValueError("value has more limbs than the weight table")
    acc = 0
    for j in range(0, len(weights), _LIMBS_PER_SUM):
        rows = weights[j : j + _LIMBS_PER_SUM]
        limbs = [(value >> (LIMB_BITS * (j + i))) & _LIMB_MASK for i in range(len(rows))]
        acc = (acc + np.array(limbs, dtype=np.int64) @ rows) % primes
    return acc


@dataclass(frozen=True, eq=False)
class FactorBase:
    """Ordered factor base: primes[0] == 2, then odd primes with roots.

    odd_array and root_array hold the odd primes and their roots (shape
    (2, len(odd_primes))) as int64, in the order of `primes`.
    """

    primes: tuple[int, ...]
    roots: dict  # odd prime -> (s1, s2) with f(s) = 0 mod p
    odd_array: np.ndarray = field(init=False, repr=False)
    root_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.primes[-1] >= MAX_PRIME:
            raise ValueError(
                f"factor-base prime {self.primes[-1]} is not below 2**31"
            )
        odd = self.primes[1:]
        roots = [self.roots[p] for p in odd]
        object.__setattr__(self, "odd_array", np.array(odd, dtype=np.int64))
        object.__setattr__(
            self, "root_array", np.array(roots, dtype=np.int64).reshape(-1, 2).T.copy()
        )

    @property
    def odd_primes(self) -> tuple[int, ...]:
        return self.primes[1:]

    def large_primes(self, n: int) -> tuple[int, ...]:
        """The odd primes beyond the first n (the collision primes)."""
        return self.primes[1 + n :]

    def large_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """large_primes(n) and their roots as int64 arrays (views)."""
        return self.odd_array[n:], self.root_array[:, n:]

    @property
    def p_max(self) -> int:
        return self.primes[-1]


@dataclass(frozen=True, eq=False)
class SmallFactorBase:
    """The first n odd primes of the parent factor base."""

    primes: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.primes)


# (max_digits, m, n) tiers; the 75-77 digit gap is folded into the next
# higher tier, and anything beyond the table reuses the last row.
_SIZE_TABLE = (
    (18, 60, 12),
    (25, 150, 30),
    (34, 200, 40),
    (36, 300, 60),
    (38, 400, 80),
    (40, 500, 100),
    (42, 600, 120),
    (44, 700, 140),
    (48, 1000, 200),
    (52, 1200, 240),
    (56, 2000, 400),
    (60, 4000, 800),
    (66, 6000, 1200),
    (74, 10000, 2000),
    (80, 30000, 6000),
    (88, 50000, 10000),
    (94, 60000, 12000),
    (100, 100000, 20000),
)


def table_sizes(digit_count: int) -> tuple[int, int]:
    """Default factor-base sizes (m, n) for an input with that many digits."""
    if digit_count < 1:
        raise ValueError("digit count must be positive")
    for max_digits, m, n in _SIZE_TABLE:
        if digit_count <= max_digits:
            return m, n
    return _SIZE_TABLE[-1][1], _SIZE_TABLE[-1][2]


def build_factor_bases(n: int, m: int, small_n: int):
    """Scan the first 2m primes and build (FactorBase, SmallFactorBase).

    Odd primes with (n|p) != 1 are dropped; on average about half survive,
    so the base ends up near the target size m.  If any scanned prime
    divides n outright, FoundFactor is raised immediately -- that prime is
    a much cheaper answer than anything the search could produce.
    """
    if n % 2 == 0:
        raise ValueError("input must be odd")
    if is_probable_prime(n):
        raise ValueError("input is prime")
    if is_perfect_power(n):
        raise ValueError("input is a perfect power")
    shift = isqrt_ceil(n)
    kept = [2]
    roots = {}
    for p in small_primes(2 * m)[1:]:
        a = n % p
        if a == 0:
            raise FoundFactor(p)
        if legendre(a, p) != 1:
            continue
        s = tonelli_shanks(a, p)
        r1 = (s - shift) % p
        r2 = (-s - shift) % p
        if poly_value(r1, n, shift) % p or poly_value(r2, n, shift) % p:
            raise AssertionError(f"bad root pair for p={p}")  # unreachable
        kept.append(p)
        roots[p] = (r1, r2)
    fb = FactorBase(tuple(kept), roots)
    sb = SmallFactorBase(tuple(kept[1 : 1 + small_n]))
    return fb, sb
