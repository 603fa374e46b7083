import random

import pytest

from numtheory_oracle import legendre

from sssfactor.factorbase import (
    MAX_PRIME,
    FactorBase,
    build_factor_bases,
    poly_value,
    table_sizes,
)
from sssfactor.numtheory import FoundFactor, isqrt_ceil, small_primes


def test_table_sizes_rows():
    assert table_sizes(30) == (200, 40)
    assert table_sizes(60) == (4000, 800)
    assert table_sizes(100) == (100000, 20000)
    assert table_sizes(1) == (60, 12)
    assert table_sizes(18) == (60, 12)
    assert table_sizes(19) == (150, 30)
    assert table_sizes(74) == (10000, 2000)
    assert table_sizes(78) == (30000, 6000)


def test_table_sizes_gap_and_overflow():
    # the 75-77 tier is folded into the next higher row
    for d in (75, 76, 77):
        assert table_sizes(d) == (30000, 6000)
    # beyond the table the last row applies
    assert table_sizes(120) == (100000, 20000)
    with pytest.raises(ValueError):
        table_sizes(0)


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_factor_bases(91 * 2, 10, 4)  # even
    with pytest.raises(ValueError):
        build_factor_bases(101, 10, 4)  # prime
    with pytest.raises(ValueError):
        build_factor_bases(3**5, 10, 4)  # perfect power


def test_early_factor_when_small_prime_divides():
    with pytest.raises(FoundFactor) as err:
        build_factor_bases(91, 4, 2)  # 7 | 91 and 7 is among the first 8 primes
    assert err.value.divisor == 7


def test_build_8051_matches_legendre_oracle():
    n = 8051  # 83 * 97, no factor among the first 16 primes (p_16 = 53)
    fb, sb = build_factor_bases(n, 8, 4)
    scanned = small_primes(16)
    expected = [2] + [p for p in scanned[1:] if legendre(n % p, p) == 1]
    assert list(fb.primes) == expected
    assert list(sb) == expected[1:5]
    assert len(sb) == 4
    assert fb.large_primes(len(sb)) == fb.primes[5:]
    primes, roots = fb.large_arrays(len(sb))
    assert primes.dtype == roots.dtype == "int64"
    assert tuple(primes.tolist()) == fb.large_primes(len(sb))
    assert list(zip(*roots.tolist())) == [fb.roots[p] for p in fb.large_primes(len(sb))]


def test_roots_satisfy_polynomial_congruence():
    n = 8051
    fb, _ = build_factor_bases(n, 8, 4)
    shift = isqrt_ceil(n)
    assert (fb.multiplier, fb.kn, fb.shift) == (1, n, shift)
    for p in fb.odd_primes:
        s1, s2 = fb.roots[p]
        assert s1 != s2
        assert 0 <= s1 < p and 0 <= s2 < p
        assert poly_value(s1, n, shift) % p == 0
        assert poly_value(s2, n, shift) % p == 0


def test_build_deterministic():
    n = 10000004400000259
    a = build_factor_bases(n, 30, 6)
    b = build_factor_bases(n, 30, 6)
    assert a[0].primes == b[0].primes
    assert a[0].roots == b[0].roots
    assert a[1] == b[1]


@pytest.mark.parametrize("multiplier", [1, 3])
def test_partial_bound_is_128_p_max(multiplier):
    # the one place that fixes a partial's cofactor bound, with k = 1 and
    # with k = 3, where 3 enters the base with its one root
    fb, _ = build_factor_bases(8051, 8, 4, multiplier)
    assert fb.multiplier == multiplier
    assert fb.partial_bound == 128 * fb.p_max


def test_survivor_count_near_half():
    # around half of the scanned primes survive the residue filter
    rng = random.Random(9)
    m = 200
    checked = 0
    while checked < 3:
        n = rng.randrange(10**29, 10**30) | 1
        try:
            fb, _ = build_factor_bases(n, m, 40)
        except (FoundFactor, ValueError):
            continue
        assert 0.3 * 2 * m <= len(fb.primes) <= 0.7 * 2 * m
        checked += 1


def test_small_base_shrinks_when_few_primes_survive():
    n = 999919  # 991 * 1009
    fb, sb = build_factor_bases(n, 5, 100)
    assert len(sb) == len(fb.primes) - 1
    assert sb == fb.odd_primes


def test_int64_guard_rejects_primes_from_2_pow_31():
    # the collision search multiplies residues mod p in int64; from 2**31 on
    # such products could overflow and silently lose hits
    below = MAX_PRIME - 1  # 2**31 - 1 is prime
    fb = FactorBase((2, below), {below: (1, 5)}, 1, 35, 6)
    assert fb.odd_array.tolist() == [below]
    p = 2**31 + 11  # prime
    with pytest.raises(ValueError, match="2\\*\\*31"):
        FactorBase((2, 3, p), {3: (1, 2), p: (1, 5)}, 1, 35, 6)
