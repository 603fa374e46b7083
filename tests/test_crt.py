import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crt_oracle as oracle
from numtheory_oracle import root_pairs

from sssfactor.crt import center, get_x, precompute, swap_root
from sssfactor.factorbase import FactorBase, build_factor_bases, poly_value, table_sizes
from sssfactor.numtheory import isqrt_ceil


def brute_crt_basis(primes, i):
    """Smallest nonnegative v with v = 1 mod primes[i], = 0 mod the rest."""
    mu = math.prod(primes)
    for v in range(mu):
        if v % primes[i] == 1 and all(v % p == 0 for j, p in enumerate(primes) if j != i):
            return v
    raise AssertionError("no basis element found")


def toy_base(primes, roots):
    """The small base and a factor base of those primes with made-up root
    pairs: the CRT reads only the pairs, so they need not be roots of f."""
    pairs = np.array([roots[p] for p in primes], dtype=np.int64).T
    return tuple(primes), FactorBase((2, *primes), pairs, 1, 35, 6)


def test_precompute_basis_example():
    # roots (1, 0): root 1 of one prime and root 2 of the other make x the
    # CRT basis element of the first
    sb, fb = toy_base([3, 5], {3: (1, 0), 5: (1, 0)})
    pre = precompute(sb, fb)
    assert pre.primes == (3, 5) and pre.roots == ((1, 0), (1, 0))
    assert get_x([(0, 1), (1, 2)], pre).x % 15 == brute_crt_basis([3, 5], 0) == 10
    assert get_x([(0, 2), (1, 1)], pre).x % 15 == brute_crt_basis([3, 5], 1) == 6
    # delta_1 = 10 * (0 - 1) mod 15: -1 mod 3 and 0 mod 5
    delta = swap_root(0, 0, 1, 15, pre)
    assert delta % 3 == 2 and delta % 5 == 0


def test_precompute_single_prime():
    sb, fb = toy_base([3], {3: (1, 2)})
    pre = precompute(sb, fb)
    assert pre.primes == (3,) and pre.roots == ((1, 2),)
    assert get_x([(0, 1)], pre) == (1, 3)
    assert swap_root(1, 0, 1, 3, pre) % 3 == 2


def test_precompute_invariants_random_base():
    # for every modulus M a round can pick: x = s_{i,c} mod p_i, and the
    # swap delta is s_{i,2} - s_{i,1} mod p_i and 0 mod M / p_i
    n = 10000004400000259
    fb, sb = build_factor_bases(n, 20, 8)
    pre = precompute(sb, fb)
    pairs = root_pairs(fb)
    rng = random.Random(3)
    for _ in range(50):
        picks = rng.sample(range(len(sb)), rng.randrange(1, len(sb) + 1))
        choices = [(i, rng.choice((1, 2))) for i in picks]
        x, modulus = get_x(choices, pre)
        assert -((modulus + 1) // 2) < x <= modulus // 2
        for i, choice in choices:
            p = sb[i]
            s1, s2 = pairs[p]
            assert x % p == (s1, s2)[choice - 1]
            delta = swap_root(0, i, 1, modulus, pre)
            assert delta % p == (s2 - s1) % p
            assert delta % (modulus // p) == 0


def test_get_x_example():
    sb, fb = toy_base([3, 5], {3: (1, 2), 5: (2, 3)})
    pre = precompute(sb, fb)
    # fix x = 1 mod 3 and x = 2 mod 5: brute scan of [0, 15) gives 7
    assert [x for x in range(15) if x % 3 == 1 and x % 5 == 2] == [7]
    assert get_x([(0, 1), (1, 1)], pre) == (7, 15)


def test_get_x_single_prime_and_empty():
    sb, fb = toy_base([5], {5: (2, 3)})
    pre = precompute(sb, fb)
    x, modulus = get_x([(0, 1)], pre)
    assert modulus == 5 and x % 5 == 2 and -3 < x <= 2
    with pytest.raises(ValueError):
        get_x([], pre)


def test_get_x_matches_classical_crt():
    n = 41857786931231
    fb, sb = build_factor_bases(n, 30, 10)
    pre = precompute(sb, fb)
    pairs = root_pairs(fb)
    rng = random.Random(4)
    for _ in range(1000):
        k = rng.randrange(1, len(sb) + 1)
        picks = rng.sample(range(len(sb)), k)
        choices = [(i, rng.choice((1, 2))) for i in picks]
        x, modulus = get_x(choices, pre)
        assert modulus == math.prod(sb[i] for i in picks)
        classical = 0
        for i, choice in choices:
            p = sb[i]
            c = pow(modulus // p, -1, p)
            classical += (modulus // p) * c * pairs[p][choice - 1]
        assert x % modulus == classical % modulus
        assert -((modulus + 1) // 2) < x <= modulus // 2


def test_candidate_pairs_divisible_and_bounded():
    n = 408551474907888213523269085049
    fb, sb = build_factor_bases(n, 60, 20)
    pre = precompute(sb, fb)
    shift = isqrt_ceil(n)
    rng = random.Random(5)
    for _ in range(300):
        choices = [(i, rng.choice((1, 2))) for i in rng.sample(range(len(sb)), 6)]
        x, modulus = get_x(choices, pre)
        f_val = poly_value(x, n, shift)
        assert f_val % modulus == 0
        # |f(x)|/M <= M/4 + shift + (2*sqrt(n) + 1)/M, kept in integers:
        # 4*|f| - M^2 - 4*M*shift <= (8*sqrt(n) + 4), squared when positive
        lhs = 4 * abs(f_val) - modulus * modulus - 4 * modulus * shift
        assert lhs <= 4 or (lhs - 4) ** 2 <= 64 * n


def test_swap_root_example_and_involution():
    sb, fb = toy_base([3, 5], {3: (1, 2), 5: (2, 3)})
    pre = precompute(sb, fb)
    x, modulus = get_x([(0, 1), (1, 1)], pre)  # 7
    swapped = swap_root(x, 0, 1, modulus, pre)
    assert swapped == 2  # brute scan: x = 2 mod 3 and 2 mod 5 in [0, 15) is 2
    assert swap_root(swapped, 0, -1, modulus, pre) == x


def test_swap_root_preserves_other_residues():
    n = 41857786931231
    fb, sb = build_factor_bases(n, 30, 10)
    pre = precompute(sb, fb)
    pairs = root_pairs(fb)
    rng = random.Random(6)
    for _ in range(200):
        picks = sorted(rng.sample(range(len(sb)), 4))
        x, modulus = get_x([(i, 1) for i in picks], pre)
        i = rng.choice(picks)
        p = sb[i]
        x2 = swap_root(x, i, 1, modulus, pre)
        assert x2 % (modulus // p) == x % (modulus // p)
        assert x2 % p == pairs[p][1]
        assert swap_root(x2, i, -1, modulus, pre) == x


def test_swap_root_requires_dividing_prime():
    sb, fb = toy_base([3, 5], {3: (1, 2), 5: (2, 3)})
    pre = precompute(sb, fb)
    with pytest.raises(ValueError):
        swap_root(1, 1, 1, 3, pre)  # modulus 3 not divisible by 5


def test_precompute_reads_the_pairs_as_python_ints():
    # the CRT's big-int arithmetic must never meet an np.int64
    n = 10000004400000259
    fb, sb = build_factor_bases(n, 20, 8, 3)
    pre = precompute(sb, fb)
    assert pre.primes == sb
    assert all(type(s) is int for pair in pre.roots for s in pair)
    pairs = root_pairs(fb)
    assert pre.roots == tuple(pairs[p] for p in sb)


def test_precompute_rejects_a_small_base_not_a_prefix_of_the_paired_primes():
    fb, sb = build_factor_bases(10000004400000259, 20, 8, 3)
    assert 3 in fb.odd_primes and 3 not in fb.paired
    for bad in (sb[1:], sb[:2] + sb[3:], (3,) + sb[:-1], sb[:-1] + (fb.primes[-1] + 2,)):
        with pytest.raises(ValueError, match="prefix"):
            precompute(bad, fb)
    # a prefix of the paired primes longer than sb is fine
    assert precompute(fb.paired[: len(sb) + 1], fb).primes == fb.paired[: len(sb) + 1]


def test_center():
    assert center(7, 15) == 7
    assert center(8, 15) == -7
    assert center(0, 15) == 0
    assert center(15, 15) == 0


# the stream-lock composites at 30, 40 and 50 digits, with their table bases
REAL_BASES = [
    build_factor_bases(n, *table_sizes(len(str(n))))
    for n in (
        588090330819903606914786460449,
        2025187160651667522159602188240446426637,
        10631269693415190522128026926094032979418574955981,
    )
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), base=st.sampled_from(range(len(REAL_BASES))))
def test_round_crt_matches_global_tables(data, base):
    # the round's own CRT must give the centred x and every swap that the
    # paper's global lambda / delta tables give
    fb, sb = REAL_BASES[base]
    pre = precompute(sb, fb)
    pairs = root_pairs(fb)
    table = oracle.precompute(sb, pairs)
    picks = data.draw(st.lists(st.integers(0, len(sb) - 1), min_size=1, max_size=7, unique=True))
    choices = [(i, data.draw(st.sampled_from((1, 2)))) for i in picks]
    x, modulus = get_x(choices, pre)
    assert (x, modulus) == oracle.get_x(choices, table, pairs)
    swaps = data.draw(st.lists(
        st.tuples(st.sampled_from(picks), st.sampled_from((1, -1))), max_size=10
    ))
    for i, direction in swaps:
        want = oracle.swap_root(x, i, direction, modulus, table)
        x = swap_root(x, i, direction, modulus, pre)
        assert x == want
