"""CRT subsum machinery: candidate pairs (x, M) with M | f(x).

A choice of roots (index i, root c in {1, 2}) for some small-base primes
fixes x = s_{i, c} mod p_i for each of them, where (s_{i,1}, s_{i,2}) are the
roots of f mod the i-th small-base prime.  The CRT sum for any modulus
M | mu (mu = product of the whole small base) can be built from global
coefficients

    lambda_i = (mu / p_i) * ((mu / p_i)^-1 mod p_i)

because lambda_i = M*c_i/p_i mod M for every divisor M of mu; that is
what makes changing the modulus between searches free of inversions.
delta_i = lambda_i * (s_{i,2} - s_{i,1}) moves a solution from one root
of p_i to the other with a single addition mod M.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .factorbase import SmallFactorBase
from .numtheory import mod_inverse

__all__ = ["CandidatePair", "CrtPrecomp", "center", "precompute", "get_x", "swap_root"]


class CandidatePair(NamedTuple):
    x: int
    modulus: int


@dataclass(frozen=True, eq=False)
class CrtPrecomp:
    primes: tuple[int, ...]  # the small base, for index lookups
    mu: int                  # product of the small base
    lam: tuple[int, ...]     # lam[i] = 1 mod p_i, = 0 mod p_j (j != i)
    delta: tuple[int, ...]   # delta[i] = lam[i] * (s_{i,2} - s_{i,1})


def center(x: int, modulus: int) -> int:
    """Representative of x in (-ceil(M/2), floor(M/2)]."""
    x %= modulus
    if x > modulus // 2:
        x -= modulus
    return x


def precompute(small: SmallFactorBase, roots: dict) -> CrtPrecomp:
    """Build the per-prime coefficients lambda_i and root deltas delta_i."""
    if not small.primes:
        raise ValueError("empty small factor base")
    mu = math.prod(small.primes)
    lam = []
    delta = []
    for p in small.primes:
        cofactor = mu // p
        gamma = mod_inverse(cofactor % p, p)
        lam_i = cofactor * gamma
        s1, s2 = roots[p]
        lam.append(lam_i)
        delta.append(lam_i * (s2 - s1))
    return CrtPrecomp(small.primes, mu, tuple(lam), tuple(delta))


def get_x(choices, pre: CrtPrecomp, roots: dict) -> CandidatePair:
    """CRT solution for the chosen roots, centered around 0.

    choices holds (index, choice) pairs: x = s_{i, choice} mod the i-th
    small-base prime, choice 1 or 2.  Uses the precomputed lambda
    coefficients, so no inversions happen per call no matter which modulus
    the choices select.
    """
    total = 0
    modulus = 1
    for i, choice in choices:
        p = pre.primes[i]
        total += pre.lam[i] * roots[p][choice - 1]
        modulus *= p
    if modulus == 1:
        raise ValueError("no primes chosen")
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
    return center(x + direction * pre.delta[index], modulus)
