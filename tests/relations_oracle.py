"""Pure-Python references for relation exponents and the GF(2) solve, for
tests.

trial_divide walks the whole prime list, which is what the relation store
did before it switched to the root test and sparse rows.  The store must
give the same sign, exponents and cofactor; sparse() and dense() convert
between the dense vectors here and the store's (prime index, exponent)
rows.

lowest_bit_dependencies is the solver that relations.solve_dependencies
was before it took its pivots at the highest set bit: the same elimination
with every pivot at the lowest set bit, the sign and the small primes
first.  Both find one dependency per row that adds no rank, so they must
find the same number.
"""


class NotSmoothError(ValueError):
    """Trial division left a cofactor > 1; it rides along on the exception."""

    def __init__(self, value: int, cofactor: int):
        super().__init__(f"{value} is not smooth (cofactor {cofactor})")
        self.cofactor = cofactor


def trial_divide(value: int, primes) -> tuple[int, tuple[int, ...], int]:
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
    sign, exps, cofactor = trial_divide(value, primes)
    if cofactor != 1:
        raise NotSmoothError(value, cofactor)
    return sign, exps


def sparse(dense_exponents) -> tuple[tuple[int, int], ...]:
    """A dense exponent vector as the store's sorted (index, exponent) row."""
    return tuple((i, e) for i, e in enumerate(dense_exponents) if e)


def dense(row, size: int) -> tuple[int, ...]:
    """A sparse (index, exponent) row as a dense vector of the given size."""
    exps = [0] * size
    for i, e in row:
        exps[i] = e
    return tuple(exps)


def row_bits(rel) -> int:
    """A relation's exponent vector mod 2: bit 0 the sign, bit j+1 prime j."""
    row = rel.sign & 1
    for j, e in rel.exponents:
        if e & 1:
            row |= 1 << (j + 1)
    return row


def lowest_bit_dependencies(relations) -> list[list[int]]:
    """Subsets of relation indices whose exponent vectors sum to zero mod 2,
    from a bit-packed elimination with every pivot at the lowest set bit."""
    pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (row, combination)
    deps: list[list[int]] = []
    for i, rel in enumerate(relations):
        row = row_bits(rel)
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


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of integers read as bit vectors."""
    basis: dict[int, int] = {}  # highest bit -> basis vector
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)
