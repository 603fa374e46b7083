"""Scalar references for the vectorized number theory, for tests.

factorbase.legendre_symbols computes (a|p) for whole arrays at once, and
factorbase.square_roots takes the square roots of a whole array by one
formula per residue class of p; legendre() is the same Euler criterion on
one Python int, and square_root() the textbook Tonelli-Shanks on one.
factor_base() is build_factor_bases as one scalar loop over the scanned
primes: the symbol, then the root, then the two roots of f, prime by prime.
"""

from sssfactor.numtheory import FoundFactor, isqrt_ceil, small_primes


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def square_root(a: int, p: int) -> int:
    """The smaller square root of a modulo the odd prime p; ValueError
    when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} has no square root modulo {p}")
    if p % 4 == 3:
        s = pow(a, (p + 1) // 4, p)
        return min(s, p - s)
    # p - 1 = q * 2^e with q odd, and the first non-residue z
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c = e, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def factor_base(n: int, m: int, multiplier: int) -> tuple[tuple[int, ...], dict]:
    """The primes and roots of build_factor_bases(n, m, _, multiplier): 2,
    then every odd prime p among the first 2m with (kN|p) = 1, with the
    roots s - shift and -s - shift of f mod p, or dividing k, with the one
    root -shift twice.  FoundFactor for the first scanned prime that
    divides n."""
    kn = multiplier * n
    shift = isqrt_ceil(kn)
    primes, roots = [2], {}
    for p in small_primes(2 * m)[1:]:
        symbol = legendre(kn, p)
        if symbol == 0:
            if n % p == 0:
                raise FoundFactor(p)
            roots[p] = ((-shift) % p,) * 2
        elif symbol == 1:
            s = square_root(kn, p)
            roots[p] = ((s - shift) % p, (-s - shift) % p)
        else:
            continue
        primes.append(p)
    return tuple(primes), roots
