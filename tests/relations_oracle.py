"""Pure-Python reference for relation exponents, for tests.

trial_divide walks the whole prime list, which is what the relation store
did before it switched to the root test and sparse rows.  The store must
give the same sign, exponents and cofactor; sparse() and dense() convert
between the dense vectors here and the store's (prime index, exponent)
rows.
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
