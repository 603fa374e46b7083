import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import search_oracle as oracle

from sssfactor import smoothness
from sssfactor.crt import get_x, precompute, swap_root
from sssfactor.factorbase import build_factor_bases, poly_value, table_sizes
from sssfactor.numtheory import is_probable_prime, isqrt_ceil, primes_below
from sssfactor.search import (
    SUBSUM_SIZE,
    collision_scan,
    hit_values,
    pick_indices,
    root_transforms,
    round_table,
    scan_buffers,
    search_round,
)
from sssfactor.smoothness import build_context

TOY_N = 999919  # 991 * 1009, both factors beyond the scanned primes
# 688127023728779 * 608079655016261: every find of the toy composite is
# full, and this one at its table sizes gives partials as well
PARTIALS_N = 418436043196362381424098675319


def toy_setup(m=20, small_n=6, n=TOY_N):
    fb, sb = build_factor_bases(n, m, small_n)
    pre = precompute(sb, fb.roots)
    ctx = build_context(fb.primes)
    return fb, sb, pre, ctx


def one_prime(x, p, roots, modulus):
    """root_transforms arguments for a single large prime."""
    return x, round_table(modulus, np.array([p]), np.array(roots).reshape(2, 1))


def test_pick_indices():
    rng = random.Random(0)
    assert pick_indices(5, 5, rng) == [0, 1, 2, 3, 4]
    assert len(pick_indices(1, 9, rng)) == 1
    assert pick_indices(3, 50, random.Random(7)) == pick_indices(
        3, 50, random.Random(7)
    )
    with pytest.raises(ValueError):
        pick_indices(6, 5, rng)
    with pytest.raises(ValueError):
        pick_indices(0, 5, rng)


def invert_M(modulus, primes):
    """M^-1 mod p from the round table, keyed by p."""
    table = round_table(modulus, np.array(primes), np.zeros((2, len(primes)), dtype=np.int64))
    return dict(zip(primes, table.inverses.tolist()))


def test_invert_M():
    inv = invert_M(15, [11, 13])
    assert inv[11] == 3  # 15 = 4 mod 11, 4 * 3 = 12 = 1
    assert all(inv[p] * 15 % p == 1 for p in inv)
    assert invert_M(12, [11])[11] == 1  # M = 1 mod p


def test_root_transforms_example():
    # p = 11, roots 3 and 8, x = 2, M = 3 mod 11 so mu_p = 4
    transforms = oracle.as_tuples(root_transforms(*one_prime(2, 11, (3, 8), 3)))
    assert transforms == [(11, 4, 2)]
    # j = 4: x + 4*M = 2 + 12 = 14 = 3 mod 11, the first root
    assert (2 + 4 * 3) % 11 == 3


def test_root_transforms_zero_when_x_is_root():
    transforms = oracle.as_tuples(root_transforms(*one_prime(3, 11, (3, 8), 3)))
    assert transforms[0][1] == 0


def test_root_transforms_land_on_roots():
    fb, sb, pre, _ = toy_setup()
    rng = random.Random(21)
    primes, roots = fb.large_arrays(sb.n)
    shift = isqrt_ceil(TOY_N)
    for _ in range(20):
        idx = pick_indices(3, sb.n, rng)
        modulus = math.prod(sb.primes[i] for i in idx)
        x, _ = get_x([(i, 1) for i in idx], pre)
        table = round_table(modulus, primes, roots)
        for p, r1, r2 in oracle.as_tuples(root_transforms(x, table)):
            for r in (r1, r2):
                assert poly_value(x + r * modulus, TOY_N, shift) % p == 0


def test_collision_scan_counts_offsets():
    # three primes whose first root transform is 4: alpha = 4 occurs 3 times
    transforms = oracle.as_arrays([(11, 4, 7), (13, 4, 9), (17, 4, 11)])
    hits = oracle.scan_hits(transforms, 1, 15, 100, threshold=3)
    assert len(hits) == 1
    alpha, count, x_bar, m_prime = hits[0]
    assert (alpha, count) == (4, 3)
    assert m_prime == 15 and x_bar == 100 + 4 * 15
    # distinct offsets everywhere: nothing reaches the threshold
    distinct = oracle.as_arrays([(11, 1, 2), (13, 3, 4), (17, 5, 6)])
    assert collision_scan(distinct, [1], 15) == []


def test_collision_scan_rejects_non_divisor():
    with pytest.raises(ValueError):
        collision_scan([], [7], 15)


def oracle_hits(n, shift, x, m_prime, large_primes, threshold):
    """Exhaustive alpha scan: count large primes p dividing f(x + alpha*m')
    with alpha inside p's emitted window [-p, p)."""
    p_max = max(large_primes)
    hits = {}
    for alpha in range(-p_max, p_max):
        count = 0
        for p in large_primes:
            if -p <= alpha < p and poly_value(x + alpha * m_prime, n, shift) % p == 0:
                count += 1
        if count >= threshold:
            hits[alpha] = count
    return hits


def test_collision_scan_matches_exhaustive_oracle():
    fb, sb, pre, _ = toy_setup()
    large = fb.large_primes(sb.n)
    primes, roots = fb.large_arrays(sb.n)
    shift = isqrt_ceil(TOY_N)
    rng = random.Random(22)
    scans = 0
    for _ in range(6):
        idx = pick_indices(4, sb.n, rng)
        moduli = [sb.primes[i] for i in idx]
        modulus = math.prod(moduli)
        x, _ = get_x([(i, 1) for i in idx], pre)
        transforms = root_transforms(x, round_table(modulus, primes, roots))
        for q in [1] + moduli:
            m_prime = modulus // q
            got = {h.alpha: h.count for h in oracle.scan_hits(transforms, q, modulus, x, 2)}
            assert got == oracle_hits(TOY_N, shift, x, m_prime, large, 2)
            for hit in oracle.scan_hits(transforms, q, modulus, x, 2):
                f_val = poly_value(hit.x_bar, TOY_N, shift)
                assert f_val % hit.m_prime == 0
                dividing = [p for p in large if f_val % p == 0]
                assert len(dividing) >= hit.count
            scans += 1
    assert scans == 30


def trial_cofactor(fb, x_bar):
    """|f(x_bar)| with every factor-base prime divided out: what a find's
    residual must be, since the relation store takes it as the cofactor."""
    cofactor = abs(poly_value(x_bar, fb.kn, fb.shift))
    for p in fb.primes:
        while cofactor % p == 0:
            cofactor //= p
    return cofactor


def run_one_round(seed):
    fb, sb, pre, ctx = toy_setup()
    indices = pick_indices(4, sb.n, random.Random(seed))
    stats = search_round(fb, sb, pre, ctx, indices, 128 * fb.p_max)
    return stats, stats.finds


def test_search_round_deterministic_replay():
    stats_a, finds_a = run_one_round(123)
    stats_b, finds_b = run_one_round(123)
    # everything but the round's wall time
    assert stats_a[:-1] == stats_b[:-1]
    assert finds_a == finds_b
    assert stats_a.candidates > 0


def test_search_round_emissions_are_sound():
    fb, sb, pre, ctx = toy_setup()
    total = 0
    for seed in range(30):
        indices = pick_indices(4, sb.n, random.Random(seed))
        stats = search_round(fb, sb, pre, ctx, indices, 128 * fb.p_max)
        round_finds = stats.finds
        assert len(round_finds) == stats.fulls + stats.partials
        assert len({x for x, _ in round_finds}) == len(round_finds)  # no dups
        total += len(round_finds)
        for x_bar, residual in round_finds:
            assert residual == trial_cofactor(fb, x_bar) < 128 * fb.p_max
    assert total > 0
    # the toy's finds are all full; partials need a larger composite
    fb, sb, pre, ctx = toy_setup(*table_sizes(30), n=PARTIALS_N)
    partials = 0
    for seed in range(5):
        indices = pick_indices(6, sb.n, random.Random(seed))
        stats = search_round(fb, sb, pre, ctx, indices, 128 * fb.p_max)
        partials += stats.partials
        for x_bar, residual in stats.finds:
            assert residual == trial_cofactor(fb, x_bar) < 128 * fb.p_max
    assert partials > 0


def test_search_round_emits_each_x_bar_once():
    # two variants of a round can rescale onto the same x_bar; the rounds
    # that a seed-2 collection of this composite runs first had 7 such
    # repeats among 1247 finds while each variant's candidates were tested
    from sssfactor.engine import RunConfig, _round_plan, _runner, prepare
    from sssfactor.relations import RelationStore

    fb, sb, pre, ctx = prepare(PARTIALS_N, RunConfig(seed=2))
    bound = RelationStore(PARTIALS_N, fb).partial_bound
    plan, items, _ = _round_plan("sss", PARTIALS_N, 2, fb, sb, pre, ctx, bound, 0)
    run = _runner(plan)
    total = 0
    for indices in itertools.islice(items, 30):
        found = run(indices)
        xs = [x_bar for x_bar, _ in found.finds]
        assert len(set(xs)) == len(xs) == found.fulls + found.partials
        total += len(xs)
    assert total > 1000


def test_search_round_filter_path(monkeypatch):
    fb, sb, pre, _ = toy_setup(*table_sizes(30), n=PARTIALS_N)
    ctx = build_context(fb.primes, split_ratio=10)
    monkeypatch.setattr(smoothness, "FILTER_DELTA", 2)
    finds = []
    fulls = partials = candidates = filtered = 0
    for seed in range(10):
        indices = pick_indices(7, sb.n, random.Random(seed))
        stats = search_round(fb, sb, pre, ctx, indices, 128 * fb.p_max)
        assert 0 <= stats.filtered <= stats.candidates
        assert len(stats.finds) == stats.fulls + stats.partials
        finds += stats.finds
        fulls += stats.fulls
        partials += stats.partials
        candidates += stats.candidates
        filtered += stats.filtered
    # the cutoff drops most candidates, and fulls and partials get through
    assert candidates / 2 < filtered < candidates
    assert fulls and partials
    # with exact residuals
    for x_bar, residual in finds:
        assert residual == trial_cofactor(fb, x_bar)


# -- the int64 array search against the pure-Python oracle ------------------

# the 100-digit table row scans the first 200000 primes (p_max 2750159) and
# its small base reaches about 479909
ORACLE_PRIMES = primes_below(2_750_160)[1:]
ORACLE_Q = ORACLE_PRIMES[: ORACLE_PRIMES.index(479_909) + 1]
# the largest primes the int64 tables accept, for the overflow margins
TOP_PRIMES = [p for p in range(2**31 - 1, 2**31 - 1000, -2) if is_probable_prime(p)]
# built once: hypothesis labels a sampled_from strategy by its elements
any_prime = st.sampled_from(ORACLE_PRIMES)
any_q = st.sampled_from(ORACLE_Q)


@st.composite
def scan_inputs(draw):
    """Transforms with planted collisions: each root is either random or
    placed so that q * r = alpha (mod p) for an alpha from a small pool."""
    primes = draw(st.lists(
        st.one_of(st.sampled_from(ORACLE_PRIMES[:30]), any_prime),
        min_size=1, max_size=40, unique=True,
    ))
    q = draw(any_q)
    pool = draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    for p in primes:
        r = [
            rng.randrange(p) if q % p == 0 or rng.random() < 0.3
            else rng.choice(pool) * pow(q, -1, p) % p
            for _ in range(2)
        ]
        rows.append((p, *r))
    cofactor = draw(st.integers(1, 2**64))
    x = draw(st.integers(-(2**80), 2**80))
    return rows, q, q * cofactor, x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=scan_inputs(), threshold=st.sampled_from([2, 3]))
def test_collision_scan_matches_oracle_in_order(case, threshold):
    rows, q, modulus, x = case
    expected = oracle.collision_scan(rows, q, modulus, x, threshold)
    assert oracle.scan_hits(oracle.as_arrays(rows), q, modulus, x, threshold) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    primes=st.lists(
        st.one_of(any_prime, st.sampled_from(TOP_PRIMES)), min_size=1, max_size=30, unique=True
    ),
    modulus=st.integers(1, 2**200),
    data=st.data(),
)
def test_transforms_match_oracle(primes, modulus, data):
    modulus = next(m for m in range(modulus, modulus + 10**6) if all(m % p for p in primes))
    x = data.draw(st.integers(-(modulus // 2), modulus // 2))
    roots = {p: (data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1)))
             for p in primes}
    root_array = np.array([roots[p] for p in primes], dtype=np.int64).T
    table = round_table(modulus, np.array(primes, dtype=np.int64), root_array)
    expected_inv = oracle.invert_M(modulus, primes)
    assert table.inverses.tolist() == list(expected_inv.values())
    got = root_transforms(x, table)
    assert oracle.as_tuples(got) == oracle.root_transforms(x, expected_inv, roots)


@pytest.mark.parametrize("sign", [1, -1])
def test_transforms_match_oracle_at_the_int64_margin(sign):
    # primes just below 2**31 and an x whose 30-bit limbs are all at their
    # maximum push every product and partial sum towards 2**63
    modulus = next(m for m in range(2**241 - 1, 0, -2) if all(m % p for p in TOP_PRIMES))
    x = sign * (modulus // 2)
    roots = {p: (p - 1, p - 2) for p in TOP_PRIMES}
    root_array = np.array([roots[p] for p in TOP_PRIMES], dtype=np.int64).T
    table = round_table(modulus, np.array(TOP_PRIMES, dtype=np.int64), root_array)
    inverses = oracle.invert_M(modulus, TOP_PRIMES)
    assert table.inverses.tolist() == list(inverses.values())
    got = root_transforms(x, table)
    assert oracle.as_tuples(got) == oracle.root_transforms(x, inverses, roots)


@pytest.mark.parametrize("n, k", [(TOY_N, 4), (2025187160651667522159602188240446426637, 6)])
def test_array_search_matches_oracle_on_real_rounds(n, k):
    from sssfactor.engine import RunConfig, prepare

    fb, sb, pre, _ = toy_setup() if n == TOY_N else prepare(n, RunConfig())
    primes, roots = fb.large_arrays(sb.n)
    large = fb.large_primes(sb.n)
    rng = random.Random(5)
    for _ in range(3):
        idx = pick_indices(k, sb.n, rng)
        moduli = [sb.primes[i] for i in idx]
        modulus = math.prod(moduli)
        x, _ = get_x([(i, 1) for i in idx], pre)
        inv = oracle.invert_M(modulus, large)
        expected = oracle.root_transforms(x, inv, fb.roots)
        transforms = root_transforms(x, round_table(modulus, primes, roots))
        assert oracle.as_tuples(transforms) == expected
        for q in [1] + moduli:
            for threshold in (2, 3):
                assert oracle.scan_hits(transforms, q, modulus, x, threshold) == (
                    oracle.collision_scan(expected, q, modulus, x, threshold)
                )


@st.composite
def variant_inputs(draw):
    """One variant's transforms and rescalings: q = 1 and up to six small
    primes, with collisions planted for rescalings drawn from that list."""
    primes = draw(st.lists(
        st.one_of(st.sampled_from(ORACLE_PRIMES[:30]), any_prime),
        min_size=1, max_size=40, unique=True,
    ))
    qs = [1] + draw(st.lists(any_q, max_size=6, unique=True))
    pool = draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = []
    for p in primes:
        r = []
        for _ in range(2):
            q = rng.choice(qs)
            if q % p == 0 or rng.random() < 0.3:
                r.append(rng.randrange(p))
            else:
                r.append(rng.choice(pool) * pow(q, -1, p) % p)
        rows.append((p, *r))
    modulus = math.prod(qs) * draw(st.integers(1, 2**64))
    x = draw(st.integers(-(2**80), 2**80))
    return rows, qs, modulus, x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=variant_inputs(), threshold=st.sampled_from([2, 3]))
def test_variant_scan_is_the_per_q_oracle_scans_in_order(case, threshold):
    rows, qs, modulus, x = case
    expected = [
        (j, hit.alpha)
        for j, q in enumerate(qs)
        for hit in oracle.collision_scan(rows, q, modulus, x, threshold)
    ]
    assert collision_scan(oracle.as_arrays(rows), qs, modulus, threshold) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=variant_inputs(), threshold=st.sampled_from([2, 3]))
def test_scans_that_share_buffers_match_the_oracle_in_order(case, threshold):
    # as in a round: scans of other roots and fewer rescalings over the same
    # primes reuse one count and one offset array, which end all zero
    rows, qs, modulus, x = case
    moved = [(p, (r1 + 1) % p, r2) for p, r1, r2 in rows]
    buffers = scan_buffers(len(qs), oracle.as_arrays(rows).primes)
    for scan_rows, scan_qs in ((rows, qs), (moved, qs[::-1][: max(1, len(qs) - 1)]), (rows, qs)):
        expected = [
            (j, hit.alpha)
            for j, q in enumerate(scan_qs)
            for hit in oracle.collision_scan(scan_rows, q, modulus, x, threshold)
        ]
        transforms = oracle.as_arrays(scan_rows)
        assert collision_scan(transforms, scan_qs, modulus, threshold, buffers) == expected
        assert not buffers.counts.any()


def test_scans_of_a_real_round_leave_the_counts_zero():
    # the buffers hold one rescaling more than any scan uses, and the last
    # scan uses only q = 1: each reset must still clear every touched cell
    from sssfactor.engine import RunConfig, prepare

    fb, sb, pre, _ = prepare(2025187160651667522159602188240446426637, RunConfig())
    primes, roots = fb.large_arrays(sb.n)
    rng = random.Random(6)
    idx = pick_indices(SUBSUM_SIZE["sss"], sb.n, rng)
    moduli = [sb.primes[i] for i in idx]
    modulus = math.prod(moduli)
    table = round_table(modulus, primes, roots)
    buffers = scan_buffers(len(idx) + 1, primes)
    x, _ = get_x([(i, 1) for i in idx], pre)
    scans = []
    for i in idx:
        x = swap_root(x, i, 1, modulus, pre)
        scans.append((x, [1] + [q for q in moduli if q != sb.primes[i]]))
    scans.append((x, [1]))
    total = 0
    for x, qs in scans:
        transforms = root_transforms(x, table)
        rows = oracle.as_tuples(transforms)
        expected = [
            (j, hit.alpha)
            for j, q in enumerate(qs)
            for hit in oracle.collision_scan(rows, q, modulus, x)
        ]
        assert collision_scan(transforms, qs, modulus, buffers=buffers) == expected
        assert not buffers.counts.any()
        total += len(expected)
    assert total > 0


REAL_ROUNDS = {
    # the sss-40d stream-lock composite and a 50-digit sssf composite, whose
    # multiplier is k = 31
    "sss-40d": ("sss", 2025187160651667522159602188240446426637),
    "sssf-50d": ("sssf", 71572202837660953991862295872154805899815805546319),
}


@pytest.mark.parametrize("name", sorted(REAL_ROUNDS))
def test_hit_values_equal_f_over_m_prime_on_real_rounds(name):
    from sssfactor.engine import RunConfig, prepare

    algo, n = REAL_ROUNDS[name]
    fb, sb, pre, _ = prepare(n, RunConfig(algo=algo))
    kn = fb.multiplier * n
    k = SUBSUM_SIZE[algo]
    primes, roots = fb.large_arrays(sb.n)
    shift = isqrt_ceil(kn)
    rng = random.Random(3)
    checked = 0
    for _ in range(4):
        idx = pick_indices(k, sb.n, rng)
        moduli = [sb.primes[i] for i in idx]
        modulus = math.prod(moduli)
        table = round_table(modulus, primes, roots)
        x, _ = get_x([(i, 1) for i in idx], pre)
        for i in idx:
            x = swap_root(x, i, 1, modulus, pre)
            qs = [1] + [q for q in moduli if q != sb.primes[i]]
            hits = collision_scan(root_transforms(x, table), qs, modulus)
            values = hit_values(fb, x, modulus, qs, hits)
            first_m_prime = {}
            for j, alpha in hits:
                m_prime = modulus // qs[j]
                first_m_prime.setdefault(x + alpha * m_prime, m_prime)
            assert list(values) == list(first_m_prime)
            for x_bar, m_prime in first_m_prime.items():
                f_val = poly_value(x_bar, kn, shift)
                assert f_val % m_prime == 0
                assert values[x_bar] == abs(f_val) // m_prime
            checked += len(values)
    assert checked > 100


def test_hit_values_reject_a_modulus_that_does_not_divide_f():
    fb, sb, pre, _ = toy_setup()
    shift = isqrt_ceil(TOY_N)
    idx = [0, 1, 2]
    modulus = math.prod(sb.primes[i] for i in idx)
    x, _ = get_x([(0, 1), (1, 1), (2, 1)], pre)
    assert hit_values(fb, x, modulus, [1], [(0, 5)])
    with pytest.raises(AssertionError):
        hit_values(fb, x + 1, modulus, [1], [(0, 5)])
