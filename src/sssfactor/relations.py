"""Relation store, large-prime combining, GF(2) solving, square assembly.

A full relation is a congruence a^2 = (-1)^sign * prod(p^e_p) mod N with
every prime in the factor base.  A partial relation carries one extra
cofactor r below the partial bound; two partials sharing r merge into the
full relation (a1 * a2 * r^-1)^2 = y1 * y2 mod N.

Exponents are stored sparse: a row is a tuple of (prime index, exponent)
pairs, sorted by index, one pair per prime that divides the value.  They
come from a root test: an odd prime p of the base divides f(x_bar) exactly
when x_bar mod p is one of f's two roots mod p, so one vectorized residue
computation over all odd primes names the divisors, and only those are
divided out, with multiplicity.  The power of 2 is read off the low zero
bits.  The CSV dumps still write dense rows, one column per prime.

Fulls are factored when they arrive.  Partials are not: most never meet a
second partial with the same cofactor.  The cofactor of a partial comes
from its batch residual, stripped of factor-base primes by repeated gcds
with the product of the base, and must divide f(x_bar).  The store keeps
(x, x_bar, cofactor) and runs the root test only when a second partial
with that cofactor arrives, or when the partials are dumped; the root
test must then find the same cofactor.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .factorbase import FactorBase, limb_count, limb_weights, poly_value, residues
from .numtheory import FoundFactor, NotInvertibleError, isqrt_ceil, mod_inverse
from .smoothness import product_tree, tree_root

__all__ = [
    "Relation",
    "PartialRelation",
    "PendingPartial",
    "RelationStore",
    "needed_count",
    "solve_dependencies",
    "assemble_square",
    "extract_factor",
]

# (prime index, exponent) pairs, sorted by index, every exponent positive
Exponents = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Relation:
    x: int                # a with a^2 = (-1)^sign * prod p^e mod N
    sign: int             # exponent of -1 (0 or 1)
    exponents: Exponents  # indices into the factor-base primes


@dataclass(frozen=True)
class PartialRelation:
    x: int
    cofactor: int
    sign: int
    exponents: Exponents


class PendingPartial(NamedTuple):
    """A partial relation as the store keeps it until it pairs up."""

    x: int
    x_bar: int     # f(x_bar) = (x_bar + shift)^2 - N carries the cofactor
    cofactor: int


def needed_count(primes, slack: int = 10) -> int:
    """Relations to collect before linear algebra: one per prime, one for
    the sign dimension, plus slack spare dependencies."""
    return len(primes) + 1 + slack


class RelationStore:
    """Collects full and partial relations for one number N.

    Fulls are deduplicated by their x; partials are keyed by cofactor and
    combined on the second hit, which is when both are factored.  Every
    stored full relation is re-verified against its defining congruence.
    `rounds` counts the collection rounds that fed the store;
    collect_relations numbers its next round from it.
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
        # root test tables over the odd primes; x_bar < 0 compares |x_bar|
        # mod p against the negated roots
        self._odd_array = fb.odd_array
        self._odd_primes = fb.odd_primes
        self._roots = fb.root_array
        self._neg_roots = -fb.root_array % fb.odd_array
        self._weights = limb_weights(fb.odd_array, 1)
        self._base_product = tree_root(product_tree(fb.primes))
        self.partial_bound = partial_multiplier * fb.p_max
        self.use_partials = use_partials
        self.target = needed_count(self.primes, slack)
        self.fulls: dict[int, Relation] = {}
        # cofactor -> the first partial with it, factored once it pairs up
        self.partials: dict[int, PendingPartial | PartialRelation] = {}
        self.native_count = 0
        self.combined_count = 0
        self.rounds = 0

    # -- ingestion ---------------------------------------------------------

    def exponents_of(self, x_bar: int) -> tuple[int, Exponents, int]:
        """(sign, exponents, cofactor) of f(x_bar) over the factor base.

        The odd primes come from the root test on x_bar mod p, with as many
        30-bit limbs as |x_bar| needs; only they are divided out.
        """
        value = poly_value(x_bar, self.n, self.shift)
        if value == 0:
            raise ValueError("cannot factor zero")
        sign = int(value < 0)
        value = abs(value)
        exps = []
        twos = (value & -value).bit_length() - 1
        if twos:
            exps.append((0, twos))
            value >>= twos
        size = abs(x_bar)
        limbs = limb_count(size)
        if limbs > len(self._weights):
            self._weights = limb_weights(self._odd_array, limbs)
        xr = residues(size, self._weights, self._odd_array)
        r1, r2 = self._neg_roots if x_bar < 0 else self._roots
        odd = self._odd_primes
        for i in ((xr == r1) | (xr == r2)).nonzero()[0].tolist():
            p = odd[i]
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            if e:
                exps.append((i + 1, e))
        return sign, tuple(exps), value

    def ingest(self, x_bar: int, residual: int) -> None:
        """Accept a search find: x_bar with its batch residual, 1 for a
        full relation.  A residual with no prime outside the base is a full
        relation too; otherwise x_bar is kept as a partial under its
        cofactor.  May raise FoundFactor."""
        cofactor = residual
        while cofactor > 1:
            d = math.gcd(cofactor, self._base_product % cofactor)
            if d == 1:
                break
            cofactor //= d
        rel_x = (x_bar + self.shift) % self.n
        if cofactor == 1:
            sign, exps, rest = self.exponents_of(x_bar)
            if rest != 1:
                raise AssertionError(
                    f"batch reported f({x_bar}) smooth but cofactor {rest} remains"
                )
            self._add_full(Relation(rel_x, sign, exps), combined=False)
            return
        if poly_value(x_bar, self.n, self.shift) % cofactor:
            raise ValueError(f"cofactor {cofactor} does not divide f({x_bar})")
        if not self.use_partials:
            return
        if cofactor >= self.partial_bound:
            return
        g = math.gcd(cofactor, self.n)
        if 1 < g < self.n:
            raise FoundFactor(g)
        self._pair(PendingPartial(rel_x, x_bar, cofactor))

    def add_full(self, rel: Relation) -> None:
        self._add_full(rel, combined=False)

    def add_partial_and_combine(self, prel: PartialRelation):
        """Store a partial, or emit the combined full relation when a
        partner with the same cofactor already exists."""
        if not 1 < prel.cofactor:
            raise ValueError("partial cofactor must exceed 1")
        return self._pair(prel)

    def _pair(self, prel: PendingPartial | PartialRelation):
        other = self.partials.get(prel.cofactor)
        if other is None:
            self.partials[prel.cofactor] = prel
            return None
        if other.x == prel.x:
            return None  # same find twice; combining would be degenerate
        first, second = self._factored(other), self._factored(prel)
        self.partials[prel.cofactor] = first  # a third partial reuses it
        try:
            inv = mod_inverse(prel.cofactor, self.n)
        except NotInvertibleError as exc:
            raise FoundFactor(exc.gcd) from exc
        x = first.x * second.x % self.n * inv % self.n
        merged = dict(first.exponents)
        for i, e in second.exponents:
            merged[i] = merged.get(i, 0) + e
        rel = Relation(x, (first.sign + second.sign) % 2, tuple(sorted(merged.items())))
        self._add_full(rel, combined=True)
        return rel

    def _factored(self, prel: PendingPartial | PartialRelation) -> PartialRelation:
        """The partial with its exponents; the root test must find the
        cofactor it was stored under."""
        if isinstance(prel, PartialRelation):
            return prel
        sign, exps, cofactor = self.exponents_of(prel.x_bar)
        if cofactor != prel.cofactor:
            raise AssertionError(
                f"partial f({prel.x_bar}) has cofactor {cofactor}, "
                f"stored under {prel.cofactor}"
            )
        return PartialRelation(prel.x, cofactor, sign, exps)

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
        for i, e in rel.exponents:
            rhs = rhs * pow(self.primes[i], e, self.n) % self.n
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

    def _dense(self, exponents: Exponents) -> str:
        cells = ["0"] * len(self.primes)
        for i, e in exponents:
            cells[i] = str(e)
        return ",".join(cells)

    def fulls_csv(self) -> str:
        header = "x,sign," + ",".join(f"e_{p}" for p in self.primes)
        lines = [header]
        for rel in self.fulls.values():
            lines.append(f"{rel.x},{rel.sign}," + self._dense(rel.exponents))
        return "\n".join(lines) + "\n"

    def partial_rows(self) -> list[PartialRelation]:
        """The stored partials with their exponents, one per cofactor."""
        return [self._factored(prel) for prel in self.partials.values()]

    def partials_csv(self) -> str:
        header = "x,r,sign," + ",".join(f"e_{p}" for p in self.primes)
        lines = [header]
        for prel in self.partial_rows():
            lines.append(
                f"{prel.x},{prel.cofactor},{prel.sign}," + self._dense(prel.exponents)
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
        for j, e in rel.exponents:
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
    totals: dict[int, int] = {}
    for j in subset:
        rel = relations[j]
        big_x = big_x * rel.x % n
        sign_total += rel.sign
        for i, e in rel.exponents:
            totals[i] = totals.get(i, 0) + e
    if sign_total % 2 or any(e % 2 for e in totals.values()):
        raise AssertionError("subset is not a dependency")
    big_y = 1
    for i, e in totals.items():
        big_y = big_y * pow(primes[i], e // 2, n) % n
    if (big_x * big_x - big_y * big_y) % n:
        raise AssertionError("assembled squares disagree")
    return big_x, big_y


def extract_factor(big_x: int, big_y: int, n: int):
    """gcd(X - Y, n) when it is nontrivial, else None."""
    d = math.gcd(big_x - big_y, n)
    if 1 < d < n:
        return d
    return None
