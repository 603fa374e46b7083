"""Reference CRT with the paper's global coefficients, for tests.

This is the layout that sssfactor.crt replaced: lambda_i and delta_i are
built once per composite over mu, the product of the whole small base, so a
candidate for any modulus M | mu needs no inversion.  The tables take
O(n^2) bits.  Since lambda_i agrees mod M with the coefficient that
sssfactor.crt builds for M alone, get_x and swap_root must give the same
centred values as the functions here.
"""

import math
from typing import NamedTuple

from sssfactor.crt import CandidatePair, center


class GlobalCrt(NamedTuple):
    primes: tuple[int, ...]  # the small base, for index lookups
    mu: int                  # product of the small base
    lam: tuple[int, ...]     # lam[i] = 1 mod p_i, = 0 mod p_j (j != i)
    delta: tuple[int, ...]   # delta[i] = lam[i] * (s_{i,2} - s_{i,1})


def precompute(small, roots: dict) -> GlobalCrt:
    """The per-prime coefficients lambda_i and root deltas delta_i."""
    mu = math.prod(small)
    lam = []
    delta = []
    for p in small:
        cofactor = mu // p
        lam_i = cofactor * pow(cofactor, -1, p)
        s1, s2 = roots[p]
        lam.append(lam_i)
        delta.append(lam_i * (s2 - s1))
    return GlobalCrt(small, mu, tuple(lam), tuple(delta))


def get_x(choices, pre: GlobalCrt, roots: dict) -> CandidatePair:
    """CRT solution for the chosen roots from the global lambdas."""
    total = 0
    modulus = 1
    for i, choice in choices:
        p = pre.primes[i]
        total += pre.lam[i] * roots[p][choice - 1]
        modulus *= p
    return CandidatePair(center(total, modulus), modulus)


def swap_root(x: int, index: int, direction: int, modulus: int, pre: GlobalCrt) -> int:
    """Move x to the other root of the index-th small prime with delta_i."""
    return center(x + direction * pre.delta[index], modulus)
