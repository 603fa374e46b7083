"""Factor bases for the polynomial f(x) = (x + ceil(sqrt(kN)))**2 - kN.

k is the Knuth-Schroeppel multiplier (choose_multiplier): the odd
squarefree k < 100 for which the small primes divide f most often, k = 1
unless another k scores strictly higher.  A relation built from f holds
mod kN and so mod N.  The factor base carries f: build_factor_bases
computes kN and ceil(sqrt(kN)) once and stores them on the FactorBase
(kn, shift) next to k, and the search, the sieve and the relation store
read them from there.

The factor base keeps 2 plus every odd prime p among the first 2m primes
with (kN|p) = 1 (for the others f has no root, so they can never divide a
candidate value), and the primes that divide k.  Each kept odd prime
carries the two roots of f mod p; a prime dividing k divides f at one root
only, and exactly once, so it carries that root twice.  The search uses
only the primes with two distinct roots (the paired primes): the small
factor base is the first n of them, a plain tuple of primes, and its
products form the moduli of the subsum search; the rest are the collision
primes.  The base also owns the partial bound, p_max times
PARTIAL_MULTIPLIER: a partial relation's cofactor lies below it, and the
search, the sieve and the relation store all read it from here.  The odd
primes and their roots are also kept as int64 arrays for the vectorized
collision search and root test, which need every prime below 2**31 to
keep their products inside int64.  limb_weights() and residues() reduce
one big integer modulo every prime of such an array, and pow_mod() raises
residues to a power; the search and the relation store share them, and
the base takes its Legendre symbols (legendre_symbols) and square roots
(square_roots) of kN over such arrays too.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numtheory import (
    FoundFactor,
    is_perfect_power,
    is_probable_prime,
    isqrt_ceil,
    primes_below,
    small_primes,
    tonelli_shanks,
)

__all__ = [
    "MAX_PRIME",
    "MULTIPLIERS",
    "PARTIAL_MULTIPLIER",
    "FactorBase",
    "poly_value",
    "limb_count",
    "limb_weights",
    "residues",
    "pow_mod",
    "legendre_symbols",
    "square_roots",
    "choose_multiplier",
    "table_sizes",
    "build_factor_bases",
]


def poly_value(x: int, n: int, shift: int) -> int:
    """f(x) = (x + shift)**2 - n, with shift = ceil(sqrt(n)); n is the
    polynomial's modulus kN."""
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


def pow_mod(base: np.ndarray, exponent: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """base**exponent mod p elementwise, by square and multiply over the
    bits of the exponents; 0 <= base < p < 2**31 and exponent >= 0, the
    three broadcast against each other."""
    result = np.ones(np.broadcast(base, exponent, primes).shape, dtype=np.int64)
    for _ in range(int(np.max(exponent, initial=0)).bit_length()):
        result = np.where(exponent & 1, result * base % primes, result)
        base = base * base % primes
        exponent = exponent >> 1
    return result


def legendre_symbols(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The Legendre symbols (a|p) elementwise, 0 <= a < p, by Euler's
    criterion; every p an odd prime."""
    r = pow_mod(a, (primes - 1) // 2, primes)
    return np.where(r == primes - 1, -1, r)


def square_roots(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The smaller square root min(s, p - s) of a mod p elementwise, 0 <= a
    < p, every p an odd prime below 2**31; ValueError when some a is a
    non-residue, or a root fails its check s**2 = a mod p.

    One formula per residue class of p (Crandall and Pomerance, Prime
    Numbers, Algorithm 2.3.8): s = a**((p + 1)/4) when p = 3 mod 4, and
    Atkin's s = a b (i - 1), with b = (2a)**((p - 5)/8) and i = 2a b**2,
    when p = 5 mod 8; one pow_mod serves both classes.  p = 1 mod 8 takes
    the scalar tonelli_shanks, one prime at a time: a vectorized
    Tonelli-Shanks would make every prime pay for the largest power of 2
    in p - 1.
    """
    s = np.empty_like(a)
    one_mod_8 = primes % 8 == 1
    fast, slow = np.flatnonzero(~one_mod_8), np.flatnonzero(one_mod_8)
    p, x = primes[fast], a[fast]
    atkin = p % 8 == 5
    two_x = 2 * x % p
    b = pow_mod(np.where(atkin, two_x, x), np.where(atkin, p >> 3, (p + 1) >> 2), p)
    i = two_x * (b * b % p) % p
    s[fast] = np.where(atkin, x * b % p * ((i - 1) % p) % p, b)
    s[slow] = [tonelli_shanks(v, q) for v, q in zip(a[slow].tolist(), primes[slow].tolist())]
    bad = np.flatnonzero((s * s - a) % primes)
    if len(bad):
        j = bad[0]
        raise ValueError(f"no square root of {a[j]} modulo {primes[j]}")
    return np.minimum(s, primes - s)


# a partial's cofactor must stay below this multiple of p_max
PARTIAL_MULTIPLIER = 128

# Knuth-Schroeppel multipliers tried: the odd squarefree k < 100, k = 1 first
MULTIPLIERS = tuple(k for k in range(1, 100, 2) if all(k % (p * p) for p in (3, 5, 7)))

# The Knuth-Schroeppel function (Silverman, Math. Comp. 48, 1987) sums the
# expected log p that p contributes to f over 2 and the odd primes below
# 1000: 2 log p / (p - 1) when (kN|p) = 1, log p / p when p divides kN, and
# by kN mod 8 for p = 2.  The terms are integers in units of 2**-40 nats,
# so a score does not depend on the order of the sum, and the choice is the
# same on every host.
_KS_PRIMES = primes_below(1000)[1:]
_KS_P = np.array(_KS_PRIMES, dtype=np.int64)
_KS_K = np.array(MULTIPLIERS, dtype=np.int64)
_KS_CHI = legendre_symbols(_KS_K[:, None] % _KS_P, _KS_P)  # (k|p)


def _nats(values) -> np.ndarray:
    return np.array([round(v * 2**40) for v in values], dtype=np.int64)


_KS_SPLIT = _nats(2 * math.log(p) / (p - 1) for p in _KS_PRIMES)
_KS_RAMIFIED = _nats(math.log(p) / p for p in _KS_PRIMES)
_KS_TWO = _nats(math.log(2) * w for w in (0, 2, 0, 0.5, 0, 1, 0, 0.5))  # by kN mod 8
_KS_SIZE = _nats(-math.log(k) / 2 for k in MULTIPLIERS)


def choose_multiplier(n: int) -> int:
    """The multiplier k in MULTIPLIERS that maximises the Knuth-Schroeppel
    function of kN for the odd n,

        -log(k) / 2 + sum over p of E[exponent of p in f] * log p,

    the first maximum, so k = 1 unless another k scores strictly higher.
    (kN|p) is (k|p) (N|p): a table of (k|p) and one vectorized symbol (N|p)
    per prime.
    """
    chi = _KS_CHI * legendre_symbols(
        np.array([n % p for p in _KS_PRIMES], dtype=np.int64), _KS_P
    )
    scores = (
        np.where(chi == 1, _KS_SPLIT, np.where(chi == 0, _KS_RAMIFIED, 0)).sum(axis=1)
        + _KS_TWO[_KS_K * (n % 8) % 8]
        + _KS_SIZE
    ).tolist()
    return MULTIPLIERS[scores.index(max(scores))]


@dataclass(frozen=True, eq=False)
class FactorBase:
    """Ordered factor base of f = (x + shift)**2 - kN, with k = multiplier
    and shift = ceil(sqrt(kN)): primes[0] == 2, then odd primes with roots.
    The base is the one owner of f: everything that evaluates f reads kn
    and shift from here.  It owns the partial bound too, the exclusive bound
    on a partial relation's cofactor, p_max times PARTIAL_MULTIPLIER.

    odd_array and root_array hold the odd primes and their roots (shape
    (2, len(odd_primes))) as int64, in the order of `primes`.  paired,
    pair_array and pair_roots hold the same for the paired primes, those
    with two distinct roots: every odd prime that does not divide k.
    """

    primes: tuple[int, ...]
    roots: dict  # odd prime -> (s1, s2) with f(s) = 0 mod p; s1 == s2 when p | k
    multiplier: int
    kn: int      # the polynomial's modulus, multiplier times the number factored
    shift: int   # ceil(sqrt(kn))
    partial_bound: int = field(init=False)
    odd_array: np.ndarray = field(init=False, repr=False)
    root_array: np.ndarray = field(init=False, repr=False)
    paired: tuple[int, ...] = field(init=False, repr=False)
    pair_array: np.ndarray = field(init=False, repr=False)
    pair_roots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.primes[-1] >= MAX_PRIME:
            raise ValueError(
                f"factor-base prime {self.primes[-1]} is not below 2**31"
            )
        odd = self.primes[1:]
        roots = [self.roots[p] for p in odd]
        odd_array = np.array(odd, dtype=np.int64)
        root_array = np.array(roots, dtype=np.int64).reshape(-1, 2).T.copy()
        two_roots = root_array[0] != root_array[1]
        pair_array = odd_array[two_roots]
        for name, value in (
            ("partial_bound", PARTIAL_MULTIPLIER * self.p_max),
            ("odd_array", odd_array),
            ("root_array", root_array),
            ("paired", tuple(pair_array.tolist())),
            ("pair_array", pair_array),
            ("pair_roots", root_array[:, two_roots]),
        ):
            object.__setattr__(self, name, value)

    @property
    def odd_primes(self) -> tuple[int, ...]:
        return self.primes[1:]

    def large_primes(self, n: int) -> tuple[int, ...]:
        """The paired primes beyond the first n (the collision primes)."""
        return self.paired[n:]

    def large_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """large_primes(n) and their roots as int64 arrays (views)."""
        return self.pair_array[n:], self.pair_roots[:, n:]

    @property
    def p_max(self) -> int:
        return self.primes[-1]


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


def build_factor_bases(n: int, m: int, small_n: int, multiplier: int = 1):
    """Scan the first 2m primes and build the factor base of f = (x +
    ceil(sqrt(kN)))**2 - kN, k = multiplier and N = n, and the small base,
    the first small_n of its paired primes: (fb, fb.paired[:small_n]).

    Odd primes with (kN|p) = -1 are dropped; on average about half survive,
    so the base ends up near the target size m.  The symbols come from one
    vectorized Euler test, only the primes with (kN|p) = 1 take a square
    root (square_roots), and both roots of every kept prime come from one
    array expression.  A prime dividing k stays with its one root.  If any
    scanned prime divides n outright, FoundFactor is raised for the first
    -- that prime is a much cheaper answer than anything the search could
    produce.
    """
    if n % 2 == 0:
        raise ValueError("input must be odd")
    if is_probable_prime(n):
        raise ValueError("input is prime")
    if is_perfect_power(n):
        raise ValueError("input is a perfect power")
    if multiplier not in MULTIPLIERS:
        raise ValueError(f"multiplier {multiplier} is not an odd squarefree k < 100")
    kn = multiplier * n
    shift = isqrt_ceil(kn)
    scanned = small_primes(2 * m)[1:]
    odd = np.array(scanned, dtype=np.int64)
    residue = np.array([kn % p for p in scanned], dtype=np.int64)
    symbols = legendre_symbols(residue, odd)
    for p in odd[symbols == 0].tolist():
        if n % p == 0:
            raise FoundFactor(p)
    kept = symbols >= 0
    odd, residue, split = odd[kept], residue[kept], symbols[kept] == 1
    primes = odd.tolist()
    shifted = np.array([shift % p for p in primes], dtype=np.int64)
    # p | k, and p**2 does not divide kN: f = 0 mod p only where x + shift
    # = 0 mod p, and f is never 0 mod p**2; s = 0 gives that root twice
    s = np.zeros_like(odd)
    s[split] = square_roots(residue[split], odd[split])
    roots = dict(zip(primes, zip(((s - shifted) % odd).tolist(), ((-s - shifted) % odd).tolist())))
    fb = FactorBase((2, *primes), roots, multiplier, kn, shift)
    return fb, fb.paired[:small_n]
