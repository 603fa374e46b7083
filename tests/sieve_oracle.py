"""Pure per-interval reference version of the quadratic sieve, for tests.

This is the loop that sssfactor.qs replaced with its block sieve: one
interval at a time, one strided add per progression, and the Hensel lifts
mod p**2 redone for every interval.  The block sieve must return the same
survivors, in the same order, for every interval.  f is the factor
base's polynomial, on kN = fb.kn with shift = fb.shift.
"""

import numpy as np
from numtheory_oracle import root_pairs

from sssfactor.factorbase import FactorBase, poly_value
from sssfactor.qs import SIEVE_LENGTH, interval_start


def progressions(fb: FactorBase, length: int) -> list[tuple[int, int, int]]:
    """(modulus, root, weight) of every progression that adds to the byte
    sums of an interval of the given length.

    Each root of f mod p adds ceil(log2 p); roots are lifted mod p^2 once
    when p^2 fits in the interval.  A prime dividing the multiplier has a
    single root, and p^2 never divides f there, so it adds once and is not
    lifted.
    """
    n, shift = fb.kn, fb.shift
    # p = 2: f(x) is even exactly when x = n + shift mod 2
    out = [(2, (n + shift) % 2, 1)]
    if n % 4 == 1:
        # then x + shift must be odd and f(x) = 0 mod 4 on two classes
        out += [(4, (1 - shift) % 4, 1), (4, (3 - shift) % 4, 1)]
    pairs = root_pairs(fb)
    for p in fb.odd_primes:
        weight = (p - 1).bit_length()
        roots = set(pairs[p])
        out += [(p, s, weight) for s in roots]
        pp = p * p
        if pp <= length and len(roots) == 2:
            for s in roots:
                # Hensel lift: f'(s) = 2(s + shift) is invertible mod p
                f_s = poly_value(s, n, shift)
                out.append((pp, (s - f_s * pow(2 * (s + shift), -1, pp)) % pp, weight))
    return out


def sieve_interval(fb: FactorBase, start: int, length: int,
                   threshold: int) -> list[int]:
    """All x in [start, start + length) whose accumulated prime-log weight
    reaches the threshold, with one strided add per progression.
    Accumulators are bytes.
    """
    logs = np.zeros(length, dtype=np.uint8)
    for mod, root, weight in progressions(fb, length):
        off = (root - start) % mod
        if off < length:
            logs[off::mod] += weight
    hits = np.nonzero(logs >= threshold)[0]
    return [start + int(i) for i in hits]


def interval_threshold(fb: FactorBase, start: int, length: int) -> int:
    """ceil(log2 |f(mid)|) - ceil(log2 fb.partial_bound), at least 1."""
    f_mid = abs(poly_value(start + length // 2, fb.kn, fb.shift))
    ceil_log2 = (f_mid - 1).bit_length() if f_mid > 1 else 0
    return max(ceil_log2 - (fb.partial_bound - 1).bit_length(), 1)


def interval_survivors(fb: FactorBase, index: int,
                       length: int = SIEVE_LENGTH) -> list[int]:
    """The survivors of interval number index (0, -L, L, -2L, ...), sieved
    on its own against its own threshold."""
    start = interval_start(index, length)
    return sieve_interval(fb, start, length, interval_threshold(fb, start, length))
