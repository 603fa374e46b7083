"""Relation store, large-prime combining, GF(2) solving, square assembly.

A full relation is a congruence a^2 = (-1)^sign * prod(p^e_p) mod N with
every prime in the factor base.  A partial relation carries one extra
cofactor r below the partial bound; two partials sharing r merge into the
full relation (a1 * a2 * r^-1)^2 = y1 * y2 mod N.  Exponent vectors are
recomputed by trial division when a find is ingested -- the search only
certifies divisibility, it does not track which primes divide what.
"""

import math
from dataclasses import dataclass

from .factorbase import FactorBase, poly_value
from .numtheory import FoundFactor, NotInvertibleError, isqrt_ceil, mod_inverse

__all__ = [
    "NotSmoothError",
    "Relation",
    "PartialRelation",
    "RelationStore",
    "factor_over_base",
    "needed_count",
    "solve_dependencies",
    "assemble_square",
    "extract_factor",
]


class NotSmoothError(ValueError):
    """Trial division left a cofactor > 1; it rides along on the exception."""

    def __init__(self, value: int, cofactor: int):
        super().__init__(f"{value} is not smooth (cofactor {cofactor})")
        self.cofactor = cofactor


@dataclass(frozen=True)
class Relation:
    x: int                      # a with a^2 = (-1)^sign * prod p^e mod N
    sign: int                   # exponent of -1 (0 or 1)
    exponents: tuple[int, ...]  # aligned with the factor-base primes


@dataclass(frozen=True)
class PartialRelation:
    x: int
    cofactor: int
    sign: int
    exponents: tuple[int, ...]


def _trial_divide(value: int, primes) -> tuple[int, tuple[int, ...], int]:
    """(sign, exponents, cofactor) of value over the prime list."""
    if value == 0:
        raise ValueError("cannot factor zero")
    sign = 0
    if value < 0:
        sign = 1
        value = -value
    exps = [0] * len(primes)
    for i, p in enumerate(primes):
        while value % p == 0:
            exps[i] += 1
            value //= p
        if value == 1:
            break
    return sign, tuple(exps), value


def factor_over_base(value: int, primes) -> tuple[int, tuple[int, ...]]:
    """Exponent vector of a fully smooth value; NotSmoothError otherwise."""
    sign, exps, cofactor = _trial_divide(value, primes)
    if cofactor != 1:
        raise NotSmoothError(value, cofactor)
    return sign, exps


def needed_count(primes, slack: int = 10) -> int:
    """Relations to collect before linear algebra: one per prime, one for
    the sign dimension, plus slack spare dependencies."""
    return len(primes) + 1 + slack


class RelationStore:
    """Collects full and partial relations for one number N.

    Fulls are deduplicated by their x; partials are keyed by cofactor and
    combined on the second hit.  Every stored relation is re-verified
    against its defining congruence.
    """

    def __init__(
        self,
        n: int,
        fb: FactorBase,
        *,
        slack: int = 10,
        partial_multiplier: int = 128,
        use_partials: bool = True,
    ):
        self.n = n
        self.primes = fb.primes
        self.shift = isqrt_ceil(n)
        self.partial_bound = partial_multiplier * fb.p_max
        self.use_partials = use_partials
        self.target = needed_count(self.primes, slack)
        self.fulls: dict[int, Relation] = {}
        self.partials: dict[int, PartialRelation] = {}
        self.native_count = 0
        self.combined_count = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(self, x_bar: int, residual: int) -> None:
        """Accept a search find: x_bar with batch residual 1 (full) or a
        small residual (partial candidate).  May raise FoundFactor."""
        f_val = poly_value(x_bar, self.n, self.shift)
        sign, exps, cofactor = _trial_divide(f_val, self.primes)
        rel_x = (x_bar + self.shift) % self.n
        if residual == 1 and cofactor != 1:
            raise AssertionError(
                f"batch reported {f_val} smooth but cofactor {cofactor} remains"
            )
        if cofactor == 1:
            self._add_full(Relation(rel_x, sign, exps), combined=False)
            return
        if not self.use_partials:
            return
        if cofactor >= self.partial_bound:
            return
        g = math.gcd(cofactor, self.n)
        if 1 < g < self.n:
            raise FoundFactor(g)
        self._combine(PartialRelation(rel_x, cofactor, sign, exps))

    def add_full(self, rel: Relation) -> None:
        self._add_full(rel, combined=False)

    def add_partial_and_combine(self, prel: PartialRelation):
        """Store a partial, or emit the combined full relation when a
        partner with the same cofactor already exists."""
        if not 1 < prel.cofactor:
            raise ValueError("partial cofactor must exceed 1")
        return self._combine(prel)

    def _combine(self, prel: PartialRelation):
        other = self.partials.get(prel.cofactor)
        if other is None:
            self.partials[prel.cofactor] = prel
            return None
        if other.x == prel.x:
            return None  # same find twice; combining would be degenerate
        try:
            inv = mod_inverse(prel.cofactor, self.n)
        except NotInvertibleError as exc:
            raise FoundFactor(exc.gcd) from exc
        x = other.x * prel.x % self.n * inv % self.n
        rel = Relation(
            x,
            (other.sign + prel.sign) % 2,
            tuple(a + b for a, b in zip(other.exponents, prel.exponents)),
        )
        self._add_full(rel, combined=True)
        return rel

    def _add_full(self, rel: Relation, combined: bool) -> None:
        self._verify(rel)
        if rel.x in self.fulls:
            return
        self.fulls[rel.x] = rel
        if combined:
            self.combined_count += 1
        else:
            self.native_count += 1

    def _verify(self, rel: Relation) -> None:
        rhs = 1
        for p, e in zip(self.primes, rel.exponents):
            if e:
                rhs = rhs * pow(p, e, self.n) % self.n
        if rel.sign:
            rhs = self.n - rhs
        if (rel.x * rel.x - rhs) % self.n:
            raise ValueError(f"relation {rel} violates its congruence mod {self.n}")

    # -- bookkeeping ---------------------------------------------------------

    def have_enough(self) -> bool:
        return len(self.fulls) >= self.target

    def raise_target(self, extra: int) -> None:
        self.target += extra

    # -- dumps ---------------------------------------------------------------

    def fulls_csv(self) -> str:
        header = "x,sign," + ",".join(f"e_{p}" for p in self.primes)
        lines = [header]
        for rel in self.fulls.values():
            lines.append(
                f"{rel.x},{rel.sign}," + ",".join(str(e) for e in rel.exponents)
            )
        return "\n".join(lines) + "\n"

    def partials_csv(self) -> str:
        header = "x,r,sign," + ",".join(f"e_{p}" for p in self.primes)
        lines = [header]
        for prel in self.partials.values():
            lines.append(
                f"{prel.x},{prel.cofactor},{prel.sign},"
                + ",".join(str(e) for e in prel.exponents)
            )
        return "\n".join(lines) + "\n"


def solve_dependencies(relations) -> list[list[int]]:
    """Subsets of relation indices whose exponent vectors sum to zero mod 2.

    Bit-packed Gaussian elimination; bit 0 is the sign column, bit j+1 the
    j-th prime, and pivots are always taken at the lowest set bit, so the
    elimination order follows the prime index.
    """
    pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (row, combination)
    deps: list[list[int]] = []
    for i, rel in enumerate(relations):
        row = rel.sign & 1
        for j, e in enumerate(rel.exponents):
            if e & 1:
                row |= 1 << (j + 1)
        combo = 1 << i
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = (row, combo)
                break
            prow, pcombo = pivots[low]
            row ^= prow
            combo ^= pcombo
        else:
            deps.append([j for j in range(i + 1) if (combo >> j) & 1])
    return deps


def assemble_square(subset, relations, primes, n: int) -> tuple[int, int]:
    """(X, Y) with X^2 = Y^2 mod n from a dependency subset."""
    big_x = 1
    sign_total = 0
    totals = [0] * len(primes)
    for j in subset:
        rel = relations[j]
        big_x = big_x * rel.x % n
        sign_total += rel.sign
        for i, e in enumerate(rel.exponents):
            totals[i] += e
    if sign_total % 2 or any(e % 2 for e in totals):
        raise AssertionError("subset is not a dependency")
    big_y = 1
    for p, e in zip(primes, totals):
        if e:
            big_y = big_y * pow(p, e // 2, n) % n
    if (big_x * big_x - big_y * big_y) % n:
        raise AssertionError("assembled squares disagree")
    return big_x, big_y


def extract_factor(big_x: int, big_y: int, n: int):
    """gcd(X - Y, n) when it is nontrivial, else None."""
    d = math.gcd(big_x - big_y, n)
    if 1 < d < n:
        return d
    return None
