"""CRT subsum machinery: candidate pairs (x, M) with M | f(x).

A choice of roots (index i, root c in {1, 2}) for k small-base primes
fixes x = s_{i, c} mod p_i for each of them, where (s_{i,1}, s_{i,2}) are the
roots of f mod the i-th small-base prime.  The CRT sum is built for the
chosen modulus M = prod p_i alone, from the coefficients

    lambda_i = (M / p_i) * ((M / p_i)^-1 mod p_i)

and delta_i = lambda_i * (s_{i,2} - s_{i,1}) mod M moves a solution from one
root of p_i to the other with a single addition mod M.  The paper's global
lambda_i, built over the product of the whole small base, agree with these
mod M, but storing them takes O(n^2) bits to save k inversions per round,
which cost microseconds.

The small base is the tuple of primes that factorbase.build_factor_bases
returns beside the factor base, the first of the base's paired primes.
precompute reads their root pairs from the base (FactorBase.pair_roots)
as Python ints, so the big-int arithmetic here never meets an np.int64,
and keeps them with the small base; CrtPrecomp.primes is where a round
reads it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .factorbase import FactorBase

__all__ = ["CandidatePair", "CrtPrecomp", "center", "precompute", "get_x", "swap_root"]


class CandidatePair(NamedTuple):
    x: int
    modulus: int


@dataclass(frozen=True, eq=False)
class CrtPrecomp:
    primes: tuple[int, ...]                # the small base, for index lookups
    roots: tuple[tuple[int, int], ...]     # roots[i] = (s_{i,1}, s_{i,2})


def center(x: int, modulus: int) -> int:
    """Representative of x in (-ceil(M/2), floor(M/2)]."""
    x %= modulus
    if x > modulus // 2:
        x -= modulus
    return x


def precompute(small: tuple[int, ...], fb: FactorBase) -> CrtPrecomp:
    """The small base's primes with their root pairs, in index order;
    ValueError unless small is a nonempty prefix of fb.paired."""
    if not small:
        raise ValueError("empty small factor base")
    if fb.paired[: len(small)] != tuple(small):
        raise ValueError("the small base is not a prefix of the paired primes")
    return CrtPrecomp(tuple(small), tuple(zip(*fb.pair_roots[:, : len(small)].tolist())))


def _basis_times(value: int, p: int, modulus: int) -> int:
    """lambda * value mod M, a multiple of M/p below M, for the CRT basis
    element lambda = 1 mod p, 0 mod M/p of the modulus M."""
    cofactor = modulus // p
    return cofactor * (pow(cofactor, -1, p) * value % p)


def get_x(choices, pre: CrtPrecomp) -> CandidatePair:
    """CRT solution for the chosen roots, centered around 0.

    choices holds (index, choice) pairs: x = s_{i, choice} mod the i-th
    small-base prime, choice 1 or 2.  The modulus is the product of the
    chosen primes.
    """
    choices = list(choices)
    modulus = math.prod(pre.primes[i] for i, _ in choices)
    if modulus == 1:
        raise ValueError("no primes chosen")
    total = 0
    for i, choice in choices:
        total += _basis_times(pre.roots[i][choice - 1], pre.primes[i], modulus)
    return CandidatePair(center(total, modulus), modulus)


def swap_root(x: int, index: int, direction: int, modulus: int, pre: CrtPrecomp) -> int:
    """Move x to the other root of the index-th small prime.

    direction +1 goes from root 1 to root 2, -1 back.  Residues modulo all
    other primes dividing the modulus are untouched.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    p = pre.primes[index]
    if modulus % p:
        raise ValueError(f"{p} does not divide the modulus")
    s1, s2 = pre.roots[index]
    return center(x + direction * _basis_times(s2 - s1, p, modulus), modulus)
