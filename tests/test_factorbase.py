import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numtheory_oracle import factor_base, legendre, root_pairs, square_root

from sssfactor import factorbase
from sssfactor.factorbase import (
    MAX_PRIME,
    MULTIPLIERS,
    FactorBase,
    build_factor_bases,
    choose_multiplier,
    poly_value,
    square_roots,
    table_sizes,
)
from sssfactor.numtheory import (
    FoundFactor,
    is_probable_prime,
    isqrt_ceil,
    primes_below,
    small_primes,
)

# primes of every class mod 8 that stress square_roots: p - 1 with a high
# power of 2 (2**16 + 1, 3 * 2**18 + 1, 7 * 2**26 + 1, 119 * 2**23 + 1,
# 15 * 2**27 + 1), and the largest prime below 2**31, pow_mod's bound, of
# each class 1, 3, 5 and 7 mod 8
AWKWARD_PRIMES = (
    65537, 786433, 469762049, 998244353, 2013265921,
    2147483497, 2147483587, 2147483629, 2147483647,
)
SMALL_PRIMES = tuple(primes_below(3000)[1:])


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
    for k in (2, 9, 101):
        with pytest.raises(ValueError, match="multiplier"):
            build_factor_bases(8051, 10, 4, k)


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
    assert fb.paired[len(sb) :] == fb.primes[5:]
    primes, roots = fb.large_arrays(len(sb))
    assert primes.dtype == roots.dtype == "int64"
    assert tuple(primes.tolist()) == fb.paired[len(sb) :]
    pairs = root_pairs(fb)
    assert list(zip(*roots.tolist())) == [pairs[p] for p in fb.paired[len(sb) :]]


def test_roots_satisfy_polynomial_congruence():
    n = 8051
    fb, _ = build_factor_bases(n, 8, 4)
    shift = isqrt_ceil(n)
    assert (fb.multiplier, fb.kn, fb.shift) == (1, n, shift)
    for p, (s1, s2) in root_pairs(fb).items():
        assert s1 != s2
        assert 0 <= s1 < p and 0 <= s2 < p
        assert poly_value(s1, n, shift) % p == 0
        assert poly_value(s2, n, shift) % p == 0


def test_build_deterministic():
    n = 10000004400000259
    a = build_factor_bases(n, 30, 6)
    b = build_factor_bases(n, 30, 6)
    assert a[0].primes == b[0].primes
    assert root_pairs(a[0]) == root_pairs(b[0])
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
    fb = FactorBase((2, below), np.array([[1], [5]], dtype=np.int64), 1, 35, 6)
    assert fb.odd_array.tolist() == [below]
    p = 2**31 + 11  # prime
    with pytest.raises(ValueError, match="2\\*\\*31"):
        FactorBase((2, 3, p), np.array([[1, 1], [2, 5]], dtype=np.int64), 1, 35, 6)


@pytest.mark.parametrize("roots", [
    np.array([[1, 2], [2, 1]], dtype=np.int64),        # one column short
    np.array([[1, 2, 3]], dtype=np.int64),             # one row
    np.array([[1, 2, 3], [2, 1, 4]], dtype=np.int64).T,
    np.array([[1, 2, 3], [2, 1, 4]], dtype=np.int32),  # wrong dtype
    np.array([[1, 2, 3], [2, 1, 4]], dtype=np.float64),
    [[1, 2, 3], [2, 1, 4]],                            # not an array
    {3: (1, 2), 5: (2, 1), 7: (3, 4)},                 # the old dict
], ids=["short", "one-row", "transposed", "int32", "float64", "list", "dict"])
def test_roots_must_be_one_int64_array(roots):
    with pytest.raises(ValueError, match="int64 array of shape \\(2, 3\\)"):
        FactorBase((2, 3, 5, 7), roots, 1, 35, 6)


def test_roots_are_one_array_in_the_order_of_the_odd_primes():
    # the pair arrays are the columns with two distinct roots; a prime
    # dividing k (3 here) keeps its one root twice and is left out
    fb, _ = build_factor_bases(8051, 8, 4, 3)
    assert fb.roots.dtype == np.int64 and fb.roots.shape == (2, len(fb.odd_primes))
    pairs = root_pairs(fb)
    assert pairs[3][0] == pairs[3][1] and 3 not in fb.paired
    assert fb.pair_array.tolist() == list(fb.paired)
    assert list(zip(*fb.pair_roots.tolist())) == [pairs[p] for p in fb.paired]


@pytest.mark.parametrize("n", [
    2025187160651667522159602188240446426637,              # k = 1
    10631269693415190522128026926094032979418574955981,    # k = 1
    71572202837660953991862295872154805899815805546319,    # k = 31
], ids=["40d", "50d", "50d-k31"])
def test_a_pickle_holds_the_five_defining_fields(n):
    # a collection sends its base to every worker: the pickle carries primes,
    # roots, multiplier, kn and shift, and unpickling derives the rest again
    fb, _ = build_factor_bases(n, *table_sizes(len(str(n))), choose_multiplier(n))
    data = pickle.dumps(fb, pickle.HIGHEST_PROTOCOL)
    fields = (fb.primes, fb.roots, fb.multiplier, fb.kn, fb.shift)
    assert len(data) <= len(pickle.dumps(fields, pickle.HIGHEST_PROTOCOL)) + 100
    back = pickle.loads(data)
    assert (back.primes, back.multiplier, back.kn, back.shift) == (
        fb.primes, fb.multiplier, fb.kn, fb.shift
    )
    assert back.paired == fb.paired and back.partial_bound == fb.partial_bound
    for name in ("roots", "odd_array", "pair_array", "pair_roots"):
        assert getattr(back, name).dtype == np.int64
        np.testing.assert_array_equal(getattr(back, name), getattr(fb, name))


def test_unpickling_checks_the_base_again(monkeypatch):
    # the constructor's checks run on the way back in, in every worker
    fb, _ = build_factor_bases(8051, 8, 4)
    data = pickle.dumps(fb)
    monkeypatch.setattr(factorbase, "MAX_PRIME", fb.p_max)
    with pytest.raises(ValueError, match="is not below"):
        pickle.loads(data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from(AWKWARD_PRIMES), st.sampled_from(SMALL_PRIMES)),
        st.integers(0, MAX_PRIME),
    ),
    min_size=1,
    max_size=40,
))
def test_square_roots_match_the_oracle_in_every_class(pairs):
    # one array mixes the classes; the smaller root of x**2 is min(x, p - x)
    primes = [p for p, _ in pairs]
    squares = [x * x % p for p, x in pairs]
    got = square_roots(np.array(squares, dtype=np.int64), np.array(primes, dtype=np.int64))
    assert got.tolist() == [square_root(a, p) for a, p in zip(squares, primes)]
    assert got.tolist() == [min(x % p, p - x % p) for p, x in pairs]


@pytest.mark.parametrize("p", AWKWARD_PRIMES + (3, 5, 7, 17))
def test_square_roots_reject_a_non_residue(p):
    z = next(z for z in range(2, p) if legendre(z, p) == -1)
    primes = np.array([p, p], dtype=np.int64)
    with pytest.raises(ValueError, match=f"modulo {p}"):
        square_roots(np.array([1, z], dtype=np.int64), primes)


# residues() sums _LIMBS_PER_SUM limbs between reductions; the edges of
# those groups (2**b - 1, 2**b, 2**b + 1 at every group boundary b), and
# values whose limbs are all ones, up to 2**420, 14 limbs (kN takes 12 at
# 100 digits)
_GROUP_BITS = factorbase.LIMB_BITS * factorbase._LIMBS_PER_SUM
LIMB_EDGES = sorted(
    {v for b in range(0, 420, _GROUP_BITS) for v in (2**b - 1, 2**b, 2**b + 1)}
    | {2 ** (factorbase.LIMB_BITS * j) - 1 for j in range(1, 15)}
)


def prime_at_most(n):
    while not is_probable_prime(n):
        n -= 1
    return n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    value=st.one_of(st.sampled_from(LIMB_EDGES), st.integers(0, 2**420 - 1)),
    primes=st.lists(
        st.one_of(
            st.sampled_from(AWKWARD_PRIMES + SMALL_PRIMES + (2,)),
            st.integers(2, MAX_PRIME - 1).map(prime_at_most),
        ),
        min_size=1,
        max_size=12,
    ),
    limbs=st.integers(1, 14),
)
def test_residues_reduce_values_up_to_420_bits(value, primes, limbs):
    # with the limbs that value takes, and with a table of more limbs, as
    # the base scan reduces ceil(sqrt(kN)) with kN's table
    array = np.array(primes, dtype=np.int64)
    for count in {factorbase.limb_count(value), max(limbs, factorbase.limb_count(value))}:
        weights = factorbase.limb_weights(array, count)
        assert factorbase.residues(value, weights, array).tolist() == [value % p for p in primes]


def test_residues_worst_case_stays_inside_int64():
    # every limb 2**30 - 1 and every weight p - 1 at the largest prime: the
    # biggest sums that residues() accumulates between two reductions
    p = MAX_PRIME - 1
    for limbs in range(1, 15):
        value = 2 ** (factorbase.LIMB_BITS * limbs) - 1
        weights = np.full((limbs, 1), p - 1, dtype=np.int64)
        got = factorbase.residues(value, weights, np.array([p], dtype=np.int64))
        assert got.tolist() == [-limbs * (2**factorbase.LIMB_BITS - 1) % p]


# 8051 = 83 * 97 with a base small enough that many k share a prime with
# it, two 20- and 30-digit semiprimes, and 91 = 7 * 13, whose scan finds 7
ORACLE_CASES = (
    (8051, 8),
    (10000004400000259, 30),
    (588090330819903606914786460449, 200),
    (91, 4),
)


@pytest.mark.parametrize("n, m", ORACLE_CASES, ids=[str(n) for n, _ in ORACLE_CASES])
def test_build_matches_the_oracle_for_every_multiplier(n, m):
    ramified = found = 0
    for k in MULTIPLIERS:
        try:
            want = factor_base(n, m, k)
        except FoundFactor as err:
            with pytest.raises(FoundFactor) as got:
                build_factor_bases(n, m, m // 5, k)
            assert got.value.divisor == err.divisor
            found += 1
            continue
        fb, sb = build_factor_bases(n, m, m // 5, k)
        assert (fb.primes, root_pairs(fb)) == want
        assert sb == fb.paired[: m // 5]
        ramified += any(s1 == s2 for s1, s2 in root_pairs(fb).values())
    if n == 91:
        assert found == len(MULTIPLIERS)
    else:
        assert ramified and not found  # some k put a prime dividing it in the base


def test_a_bad_root_raises(monkeypatch):
    # square_roots checks every root, the scalar ones of p = 1 mod 8 too
    real = factorbase.tonelli_shanks
    monkeypatch.setattr(factorbase, "tonelli_shanks", lambda a, p: (real(a, p) + 1) % p)
    n = 10000004400000259
    assert any(p % 8 == 1 for p in factor_base(n, 30, 1)[1])
    with pytest.raises(ValueError, match="no square root"):
        build_factor_bases(n, 30, 6)
