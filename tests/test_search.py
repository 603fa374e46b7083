import math
import random

import pytest

from sssfactor.crt import get_x, precompute
from sssfactor.factorbase import build_factor_bases, poly_value
from sssfactor.numtheory import isqrt_ceil
from sssfactor.search import (
    collision_scan,
    invert_M,
    pick_indices,
    root_transforms,
    search_round,
)
from sssfactor.smoothness import build_context

TOY_N = 999919  # 991 * 1009, both factors beyond the scanned primes


class CaptureSink:
    def __init__(self):
        self.finds = []

    def ingest(self, x_bar, residual):
        self.finds.append((x_bar, residual))


def toy_setup(m=20, small_n=6):
    fb, sb = build_factor_bases(TOY_N, m, small_n)
    pre = precompute(sb, fb.roots)
    ctx = build_context(fb.primes)
    return fb, sb, pre, ctx


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


def test_invert_M():
    inv = invert_M(15, [11, 13])
    assert inv[11] == 3  # 15 = 4 mod 11, 4 * 3 = 12 = 1
    assert all(inv[p] * 15 % p == 1 for p in inv)
    assert invert_M(12, [11])[11] == 1  # M = 1 mod p


def test_root_transforms_example():
    # p = 11, roots 3 and 8, x = 2, M = 3 mod 11 so mu_p = 4
    transforms = root_transforms(2, {11: 4}, {11: (3, 8)})
    assert transforms == [(11, 4, 2)]
    # j = 4: x + 4*M = 2 + 12 = 14 = 3 mod 11, the first root
    assert (2 + 4 * 3) % 11 == 3


def test_root_transforms_zero_when_x_is_root():
    transforms = root_transforms(3, {11: 4}, {11: (3, 8)})
    assert transforms[0][1] == 0


def test_root_transforms_land_on_roots():
    fb, sb, pre, _ = toy_setup()
    rng = random.Random(21)
    large = fb.large_primes(sb.n)
    shift = isqrt_ceil(TOY_N)
    for _ in range(20):
        idx = pick_indices(3, sb.n, rng)
        modulus = math.prod(sb.primes[i] for i in idx)
        rep = [0] * sb.n
        for i in idx:
            rep[i] = 1
        x, _ = get_x(rep, sb, pre, fb.roots)
        inv = invert_M(modulus, large)
        for p, r1, r2 in root_transforms(x, inv, fb.roots):
            for r in (r1, r2):
                assert poly_value(x + r * modulus, TOY_N, shift) % p == 0


def test_collision_scan_counts_offsets():
    # three primes whose first root transform is 4: alpha = 4 occurs 3 times
    transforms = [(11, 4, 7), (13, 4, 9), (17, 4, 11)]
    hits = collision_scan(transforms, 1, 15, 100, threshold=3)
    assert len(hits) == 1
    alpha, count, x_bar, m_prime = hits[0]
    assert (alpha, count) == (4, 3)
    assert m_prime == 15 and x_bar == 100 + 4 * 15
    # distinct offsets everywhere: nothing reaches the threshold
    assert collision_scan([(11, 1, 2), (13, 3, 4), (17, 5, 6)], 1, 15, 0) == []


def test_collision_scan_rejects_non_divisor():
    with pytest.raises(ValueError):
        collision_scan([], 7, 15, 0)


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
    shift = isqrt_ceil(TOY_N)
    rng = random.Random(22)
    scans = 0
    for _ in range(6):
        idx = pick_indices(4, sb.n, rng)
        moduli = [sb.primes[i] for i in idx]
        modulus = math.prod(moduli)
        rep = [0] * sb.n
        for i in idx:
            rep[i] = 1
        x, _ = get_x(rep, sb, pre, fb.roots)
        transforms = root_transforms(x, invert_M(modulus, large), fb.roots)
        for q in [1] + moduli:
            m_prime = modulus // q
            got = {h.alpha: h.count for h in collision_scan(transforms, q, modulus, x, 2)}
            assert got == oracle_hits(TOY_N, shift, x, m_prime, large, 2)
            for hit in collision_scan(transforms, q, modulus, x, 2):
                f_val = poly_value(hit.x_bar, TOY_N, shift)
                assert f_val % hit.m_prime == 0
                dividing = [p for p in large if f_val % p == 0]
                assert len(dividing) >= hit.count
            scans += 1
    assert scans == 30


def run_one_round(seed, **kwargs):
    fb, sb, pre, ctx = toy_setup()
    sink = CaptureSink()
    stats = search_round(
        TOY_N, fb, sb, pre, ctx, 4, random.Random(seed), sink, **kwargs
    )
    return stats, sink.finds


def test_search_round_deterministic_replay():
    stats_a, finds_a = run_one_round(123)
    stats_b, finds_b = run_one_round(123)
    assert stats_a == stats_b
    assert finds_a == finds_b
    assert stats_a.candidates > 0


def test_search_round_emissions_are_sound():
    fb, sb, pre, ctx = toy_setup()
    shift = isqrt_ceil(TOY_N)
    sink = CaptureSink()
    total = 0
    for seed in range(30):
        before = len(sink.finds)
        stats = search_round(TOY_N, fb, sb, pre, ctx, 4, random.Random(seed), sink)
        round_finds = sink.finds[before:]
        assert len(round_finds) == stats.fulls + stats.partials
        assert len({x for x, _ in round_finds}) == len(round_finds)  # no dups
        total += len(round_finds)
        for x_bar, residual in round_finds:
            f_val = poly_value(x_bar, TOY_N, shift)
            cofactor = abs(f_val)
            for p in fb.primes:
                while cofactor % p == 0:
                    cofactor //= p
            if residual == 1:
                assert cofactor == 1  # fully smooth
            else:
                assert 1 < residual < 128 * fb.p_max
                assert residual % cofactor == 0  # residual is cofactor
                                                 # times missed smooth powers
    assert total > 0


def test_search_round_exact_batch_matches_default_fulls():
    # every full found by the default batch is found by the exact one too
    _, finds_default = run_one_round(77)
    _, finds_exact = run_one_round(77, exact_batch=True)
    fulls_default = {x for x, g in finds_default if g == 1}
    fulls_exact = {x for x, g in finds_exact if g == 1}
    assert fulls_default <= fulls_exact


def test_search_round_filter_path():
    fb, sb, pre, _ = toy_setup()
    ctx = build_context(fb.primes, split_ratio=4)
    sink = CaptureSink()
    rounds = 0
    stats_total = [0, 0, 0, 0]
    for seed in range(20):
        stats = search_round(
            TOY_N, fb, sb, pre, ctx, 4, random.Random(seed), sink, filter_delta=1
        )
        assert 0 <= stats.filtered <= stats.candidates
        stats_total = [a + b for a, b in zip(stats_total, stats)]
        rounds += 1
    # with a tight cutoff the filter must actually drop candidates
    assert stats_total[3] > 0
    # filtered-path fulls still verify: residual 1 finds are genuinely smooth
    shift = isqrt_ceil(TOY_N)
    for x_bar, residual in sink.finds:
        if residual == 1:
            value = abs(poly_value(x_bar, TOY_N, shift))
            for p in fb.primes:
                while value % p == 0:
                    value //= p
            assert value == 1
