"""Scalar reference for the vectorized Legendre symbols, for tests.

factorbase.legendre_symbols computes (a|p) for whole arrays at once; this
is the same Euler criterion on one Python int.
"""


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r
