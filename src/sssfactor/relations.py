"""Relation store, large-prime combining, GF(2) solving, square assembly.

A full relation is a congruence a^2 = (-1)^sign * prod(p^e_p) mod N with
every prime in the factor base.  The search finds x_bar with f(x_bar) =
(x_bar + shift)^2 - kN smooth, shift = ceil(sqrt(kN)) and k the factor
base's Knuth-Schroeppel multiplier, so a = x_bar + shift mod N: the
polynomial side (the root test, the cofactor check) works with kN and
shift, which the store reads from the factor base, and everything mod N
(a, the congruence check, the gcds and the square root) with N.  A store
refuses a factor base built for another number.  The store keeps the
factor base itself and reads every fact of it there: its primes, the odd
primes and their roots for the root test, and the partial bound.  A
partial relation carries one extra cofactor r below that bound; two
partials sharing r merge into the full relation
(a1 * a2 * r^-1)^2 = y1 * y2 mod N.

Exponents are stored sparse: a row is a tuple of (prime index, exponent)
pairs, sorted by index, one pair per prime that divides the value.  They
come from a root test: an odd prime p of the base divides f(x_bar) exactly
when x_bar mod p is one of f's roots mod p (two, or one when p divides
k), so one vectorized residue computation over all odd primes names the
divisors, and only those are divided out, with multiplicity.  The power
of 2 is read off the low zero bits.  The CSV dumps still write dense rows,
one column per prime.

Fulls are factored when they arrive.  Partials are not: most never meet a
second partial with the same cofactor.  The cofactor of a partial is its
batch residual as it stands: smooth_batch returns exactly what trial
division over the base leaves, so the store strips nothing; it checks that
the cofactor divides f(x_bar) and keeps x_bar under it, nothing more.  It
root-tests the first partial of a cofactor once, when a second one
arrives, and keeps that row for every later partner; each later partial is
root-tested when it arrives, and every stored one again when the partials
are dumped.  The root test must find the same cofactor, so a residual that
still carries a base prime never becomes a relation.

The GF(2) solve eliminates bit-packed rows one at a time and pivots on a
row's largest prime, so the sparse large-prime columns go first and the
dense sign, 2, 3, ... columns last.
"""

import math
from dataclasses import dataclass

from .factorbase import FactorBase, limb_count, limb_weights, poly_value, residues
from .numtheory import FoundFactor

__all__ = [
    "Relation",
    "PartialRelation",
    "RelationStore",
    "needed_count",
    "solve_dependencies",
    "assemble_square",
    "extract_factor",
]

# (prime index, exponent) pairs, sorted by index, every exponent positive
Exponents = tuple[tuple[int, int], ...]

# spare relations collected beyond |F| + 1, and added again whenever every
# dependency gave a trivial gcd
SLACK = 10


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


def needed_count(primes) -> int:
    """Relations to collect before linear algebra: one per prime, one for
    the sign dimension, plus SLACK spare dependencies."""
    return len(primes) + 1 + SLACK


class RelationStore:
    """Collects full and partial relations for one number N, from values
    of the factor base's f on kN = fb.kn, with k = fb.multiplier; a base
    built for another number raises ValueError.

    Fulls are deduplicated by their x; partials are keyed by cofactor and
    combined with every later partial of that cofactor, which is when that
    partial is factored (the first one only once); a cofactor at or above
    fb.partial_bound is dropped.  Every stored full relation is re-verified
    against its defining congruence.
    `rounds` counts the collection rounds that fed the store;
    collect_relations numbers its next round from it.
    """

    def __init__(self, n: int, fb: FactorBase, *, use_partials: bool = True):
        if fb.kn != fb.multiplier * n:
            raise ValueError(
                f"factor base built for kN = {fb.kn}, not for {fb.multiplier} * {n}"
            )
        self.n = n
        self.fb = fb
        # the root test compares |x_bar| mod p against the negated roots
        # when x_bar < 0
        self._neg_roots = -fb.roots % fb.odd_array
        self._weights = limb_weights(fb.odd_array, 1)
        self.use_partials = use_partials
        self.target = needed_count(fb.primes)
        self.fulls: dict[int, Relation] = {}
        # cofactor -> x_bar of the first partial with it
        self.partials: dict[int, int] = {}
        # cofactor -> that first partial with its exponents, once it pairs
        self._first_rows: dict[int, PartialRelation] = {}
        self.native_count = 0
        self.combined_count = 0
        self.rounds = 0

    # -- ingestion ---------------------------------------------------------

    def exponents_of(self, x_bar: int) -> tuple[int, Exponents, int]:
        """(sign, exponents, cofactor) of f(x_bar) over the factor base.

        The odd primes come from the root test on x_bar mod p, with as many
        30-bit limbs as |x_bar| needs; only they are divided out.
        """
        fb = self.fb
        value = poly_value(x_bar, fb.kn, fb.shift)
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
            self._weights = limb_weights(fb.odd_array, limbs)
        xr = residues(size, self._weights, fb.odd_array)
        r1, r2 = self._neg_roots if x_bar < 0 else fb.roots
        odd = fb.odd_primes
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
        """Accept a search find: x_bar with its batch residual, the exact
        part of f(x_bar) outside the base.  Residual 1 is a full relation;
        any other is the cofactor under which x_bar is kept as a partial.
        May raise FoundFactor."""
        if residual == 1:
            sign, exps, rest = self.exponents_of(x_bar)
            if rest != 1:
                raise AssertionError(
                    f"batch reported f({x_bar}) smooth but cofactor {rest} remains"
                )
            rel = Relation((x_bar + self.fb.shift) % self.n, sign, exps)
            self._store_full(rel, combined=False)
            return
        if poly_value(x_bar, self.fb.kn, self.fb.shift) % residual:
            raise ValueError(f"cofactor {residual} does not divide f({x_bar})")
        if not self.use_partials or residual >= self.fb.partial_bound:
            return
        g = math.gcd(residual, self.n)
        if 1 < g < self.n:
            raise FoundFactor(g)
        self._pair(x_bar, residual)

    def _pair(self, x_bar: int, cofactor: int) -> None:
        """Store the first partial of a cofactor; combine each later one
        with it into a full relation.  The first is factored once, when its
        first partner arrives."""
        first_bar = self.partials.get(cofactor)
        if first_bar is None:
            self.partials[cofactor] = x_bar
            return
        if first_bar == x_bar:
            return  # same find twice; combining would be degenerate
        first = self._first_rows.get(cofactor)
        if first is None:
            first = self._first_rows[cofactor] = self._factored(first_bar, cofactor)
        second = self._factored(x_bar, cofactor)
        try:
            inv = pow(cofactor, -1, self.n)
        except ValueError:
            raise FoundFactor(math.gcd(cofactor, self.n)) from None
        x = first.x * second.x % self.n * inv % self.n
        merged = dict(first.exponents)
        for i, e in second.exponents:
            merged[i] = merged.get(i, 0) + e
        rel = Relation(x, (first.sign + second.sign) % 2, tuple(sorted(merged.items())))
        self._store_full(rel, combined=True)

    def _factored(self, x_bar: int, cofactor: int) -> PartialRelation:
        """The partial with its exponents; the root test must find the
        cofactor it was stored under."""
        sign, exps, rest = self.exponents_of(x_bar)
        if rest != cofactor:
            raise AssertionError(
                f"partial f({x_bar}) has cofactor {rest}, stored under {cofactor}"
            )
        return PartialRelation((x_bar + self.fb.shift) % self.n, cofactor, sign, exps)

    def _store_full(self, rel: Relation, combined: bool) -> None:
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
            rhs = rhs * pow(self.fb.primes[i], e, self.n) % self.n
        if rel.sign:
            rhs = self.n - rhs
        if (rel.x * rel.x - rhs) % self.n:
            raise ValueError(f"relation {rel} violates its congruence mod {self.n}")

    # -- bookkeeping ---------------------------------------------------------

    def have_enough(self) -> bool:
        return len(self.fulls) >= self.target

    def raise_target(self) -> None:
        """Ask for SLACK + 1 more relations, after a solve whose every
        dependency gave a trivial gcd."""
        self.target += SLACK + 1

    # -- dumps ---------------------------------------------------------------

    def _csv(self, fields: str, rows) -> str:
        """A dump: the header, fields then e_<p> for every prime, and one
        line per (leading cells, exponents) row, the exponents dense."""
        lines = [fields + "," + ",".join(f"e_{p}" for p in self.fb.primes)]
        for lead, exponents in rows:
            cells = ["0"] * len(self.fb.primes)
            for i, e in exponents:
                cells[i] = str(e)
            lines.append(lead + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def fulls_csv(self) -> str:
        rows = ((f"{rel.x},{rel.sign}", rel.exponents) for rel in self.fulls.values())
        return self._csv("x,sign", rows)

    def partial_rows(self) -> list[PartialRelation]:
        """The stored partials with their exponents, one per cofactor."""
        return [self._factored(x_bar, r) for r, x_bar in self.partials.items()]

    def partials_csv(self) -> str:
        rows = (
            (f"{rel.x},{rel.cofactor},{rel.sign}", rel.exponents) for rel in self.partial_rows()
        )
        return self._csv("x,r,sign", rows)


def solve_dependencies(relations) -> list[list[int]]:
    """Subsets of relation indices whose exponent vectors sum to zero mod 2.

    Bit-packed Gaussian elimination; bit 0 is the sign column, bit j+1 the
    j-th prime.  Each pivot is taken at the row's highest set bit, its
    largest prime.  A pivot row has no bit above its pivot, so adding it
    fills in only smaller primes, whose columns are dense anyway, and the
    sparse large-prime columns go first, as in structured Gaussian
    elimination (LaMacchia and Odlyzko).  Rows are taken one at a time in
    the order given, and a row that reduces to zero is a dependency, so
    the dependencies of a prefix of the rows are a prefix of the
    dependencies of all of them.
    """
    # bit_length of a pivot row -> (row, combination)
    pivots: dict[int, tuple[int, int]] = {}
    deps: list[list[int]] = []
    for i, rel in enumerate(relations):
        row = rel.sign & 1
        for j, e in rel.exponents:
            if e & 1:
                row |= 1 << (j + 1)
        combo = 1 << i
        while row:
            high = row.bit_length()
            if high not in pivots:
                pivots[high] = (row, combo)
                break
            prow, pcombo = pivots[high]
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
