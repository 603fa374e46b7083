"""Acceptance suite: one test per release criterion, at full size.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  This module is heavier than the unit tests (it factors
real 30-50 digit semiprimes); expect a minute or two of wall time.
"""

import itertools
import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from relations_oracle import dense, sparse
from search_oracle import scan_hits
from semiprimes import generate_semiprime

from sssfactor.crt import get_x, precompute
from sssfactor.engine import RunConfig, collect_relations, factor, prepare
from sssfactor.factorbase import (
    build_factor_bases,
    choose_multiplier,
    poly_value,
    table_sizes,
)
from sssfactor.numtheory import is_probable_prime, isqrt_ceil, primes_below
from sssfactor.relations import Relation, solve_dependencies
from sssfactor.search import pick_indices, root_transforms, round_table
from sssfactor.smoothness import build_context, smooth_batch, smooth_batch_exact


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {label}: PASS")


def factor_and_verify(n, seed, calls=3):
    """The wall times of `calls` factor() runs of n, each one verified."""
    walls = []
    for _ in range(calls):
        t0 = time.perf_counter()
        result = factor(n, RunConfig(algo="sss", seed=seed))
        walls.append(time.perf_counter() - t0)
        assert result.success, f"failed to factor {n}"
        product = 1
        for p, e in result.factors:
            assert is_probable_prime(p), f"non-prime factor {p} reported for {n}"
            product *= p**e
        assert product == n
    return walls


@pytest.mark.slow
def test_c01_end_to_end_correctness():
    with criterion(1, "end-to-end factorization and growth trend"):
        rng = random.Random(30_35_40)
        walls = {}
        for digits, count, limit in ((30, 20, 5.0), (35, 10, None), (40, 10, 60.0)):
            walls[digits] = []
            for i in range(count):
                n, _, _ = generate_semiprime(digits, rng)
                # every call within the limit; the fastest of three is the
                # composite's time, which host load disturbs the least
                calls = factor_and_verify(n, seed=i)
                if limit is not None:
                    assert max(calls) < limit, f"{digits}-digit input took {max(calls):.1f}s"
                walls[digits].append(min(calls))
        med = {d: statistics.median(w) for d, w in walls.items()}
        print(f"median walls: {med}")
        assert med[30] < med[35] < med[40], "growth must be monotone in digits"
        # superpolynomial-looking: much faster than cubic growth in the
        # digit count would explain
        assert med[40] / med[30] > (40 / 30) ** 3


@pytest.fixture(scope="module")
def smoothness_corpus():
    primes = primes_below(10**4)
    ctx = build_context(primes)
    rng = random.Random(9001)
    values = [rng.randrange(1, 10**12) for _ in range(10**4)]
    oracle = []
    for x in values:
        for p in primes:
            while x % p == 0:
                x //= p
            if x == 1:
                break
        oracle.append(x)
    return ctx, values, oracle


def test_c02_exact_batch_equals_trial_division(smoothness_corpus):
    with criterion(2, "exact batch == trial division on 10^4 inputs"):
        ctx, values, oracle = smoothness_corpus
        mismatches = 0
        for lo in range(0, len(values), 512):
            chunk = values[lo : lo + 512]
            got = smooth_batch_exact(ctx, chunk)
            mismatches += sum(
                1 for g, want in zip(got, oracle[lo : lo + 512]) if g != want
            )
        assert mismatches == 0


def test_c03_batch_equals_trial_division(smoothness_corpus):
    with criterion(3, "batch == trial division"):
        ctx, values, oracle = smoothness_corpus
        got = []
        for lo in range(0, len(values), 512):
            got.extend(smooth_batch(ctx, values[lo : lo + 512]))
        assert got == oracle


def check_collisions(n, multiplier):
    """Every hit of 8 toy rounds on f over kN is sound, and its count is the
    number of distinct large primes whose offset window holds it and that
    divide f there, which are the primes whose product it carries; an
    exhaustive scan finds no missed offset."""
    kn = multiplier * n
    fb, sb = build_factor_bases(n, 20, 8, multiplier)
    assert len(fb.primes) <= 40 and len(sb) <= 8
    pre = precompute(sb, fb.roots)
    large = fb.large_primes(len(sb))
    primes, roots = fb.large_arrays(len(sb))
    shift = isqrt_ceil(kn)
    p_max = max(large)
    rng = random.Random(44)
    scans = 0
    for _ in range(8):
        idx = pick_indices(4, len(sb), rng)
        moduli = [sb[i] for i in idx]
        modulus = math.prod(moduli)
        x, _ = get_x([(i, 1) for i in idx], pre)
        assert all(x % p == fb.roots[p][0] for p in moduli)
        transforms = root_transforms(x, round_table(modulus, primes, roots))
        for q in [1] + moduli:
            m_prime = modulus // q
            hits = scan_hits(transforms, q, modulus, x, 3)
            for hit in hits:
                f_val = poly_value(hit.x_bar, kn, shift)
                assert f_val % hit.m_prime == 0
                dividing = [p for p in large if -p <= hit.alpha < p and f_val % p == 0]
                assert hit.count == len(dividing) >= 3
                # the scan carries the product of exactly those primes
                assert hit.primes == tuple(dividing)
            # exhaustive alpha scan within each prime's offset window
            reported = {h.alpha for h in hits}
            for alpha in range(-p_max, p_max):
                count = sum(
                    1
                    for p in large
                    if -p <= alpha < p
                    and poly_value(x + alpha * m_prime, kn, shift) % p == 0
                )
                if count >= 3:
                    assert alpha in reported, f"oracle alpha {alpha} missed"
            scans += 1
    assert scans == 40
    return fb, sb


def test_c04_collision_soundness_and_completeness():
    with criterion(4, "collision hits sound and complete on toy instance"):
        check_collisions(999919, 1)  # 991 * 1009


def test_c04_collisions_on_kn():
    # 1445377 picks k = 73, a prime past the small base: it stays out of the
    # collision primes, where its one root would count twice
    with criterion(4, "collision hits sound and complete with a multiplier"):
        assert choose_multiplier(1445377) == 73
        fb, sb = check_collisions(1445377, 73)
        assert 73 in fb.primes and 73 > sb[-1]
        assert 73 not in fb.large_primes(len(sb))


def test_c05_initial_pair_bound():
    with criterion(5, "worst-case bound on 10^3 initial pairs, 40 digits"):
        n, _, _ = generate_semiprime(40, random.Random(55))
        fb, sb = build_factor_bases(n, *table_sizes(len(str(n))))
        pre = precompute(sb, fb.roots)
        shift = isqrt_ceil(n)
        rng = random.Random(56)
        for _ in range(1000):
            choices = [(i, rng.choice((1, 2))) for i in rng.sample(range(len(sb)), 6)]
            x, modulus = get_x(choices, pre)
            for i, choice in choices:
                p = sb[i]
                assert x % p == fb.roots[p][choice - 1]
            f_val = poly_value(x, n, shift)
            assert f_val % modulus == 0
            # |f(x)|/M <= M/4 + shift + (2*sqrt(n) + 1)/M, in exact integers:
            # 4|f| - M^2 - 4*M*shift - 4 <= 8*M*sqrt(n)/M = 8*sqrt(n)
            lhs = 4 * abs(f_val) - modulus * modulus - 4 * modulus * shift - 4
            assert lhs <= 0 or lhs * lhs <= 64 * n


def _collect_rate(n, use_partials, seed):
    cfg = RunConfig(algo="sss", seed=seed, use_partials=use_partials)
    fb, sb, pre, ctx = prepare(n, cfg)
    store, stats = collect_relations(n, cfg, fb, sb, pre, ctx)
    assert store.have_enough()
    return store, stats, len(store.fulls) / stats.rounds


def test_c06_large_prime_variant():
    with criterion(6, "partials combine and raise the full-relation rate"):
        n, _, _ = generate_semiprime(35, random.Random(66))
        with_rates, without_rates = [], []
        combined_seen = 0
        for seed in (1, 2, 3):
            store, stats, rate = _collect_rate(n, True, seed)
            combined_seen += store.combined_count
            assert stats.combined == store.combined_count
            with_rates.append(rate)
            # re-verify every stored relation (combined ones included)
            for rel in store.fulls.values():
                rhs = 1
                for p, e in zip(store.fb.primes, dense(rel.exponents, len(store.fb.primes))):
                    rhs = rhs * pow(p, e, n) % n
                if rel.sign:
                    rhs = (n - rhs) % n
                assert rel.x * rel.x % n == rhs
            _, _, rate_off = _collect_rate(n, False, seed)
            without_rates.append(rate_off)
        assert combined_seen >= 1, "no combined relation in three 35-digit runs"
        assert statistics.median(with_rates) > statistics.median(without_rates)


def brute_force_has_dependency(rows):
    for size in range(1, len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            if all(
                sum(rows[i][j] for i in subset) % 2 == 0
                for j in range(len(rows[0]))
            ):
                return True
    return False


def test_c07_gf2_solver_matches_brute_force():
    with criterion(7, "GF(2) solver vs all-subsets oracle up to 12x10"):
        rng = random.Random(77)
        for _ in range(100):
            n_rows = rng.randrange(1, 13)
            n_cols = rng.randrange(2, 11)
            rows = [
                [rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)
            ]
            rels = [Relation(0, r[0], sparse(r[1:])) for r in rows]
            deps = solve_dependencies(rels)
            for subset in deps:
                for j in range(n_cols):
                    assert sum(rows[i][j] for i in subset) % 2 == 0
            assert bool(deps) == brute_force_has_dependency(rows)


@pytest.mark.slow
def test_c08_bench_trend_sss_vs_qs():
    with criterion(8, "35-digit bench: subsum search beats the sieve"):
        rng = random.Random(88)
        walls = {"sss": [], "qs": []}
        for _ in range(10):
            n, _, _ = generate_semiprime(35, rng)
            for algo in ("sss", "qs"):
                t0 = time.perf_counter()
                result = factor(n, RunConfig(algo=algo, seed=88))
                walls[algo].append(time.perf_counter() - t0)
                assert result.success, f"{algo} failed to factor {n}"
        sss_med = statistics.median(walls["sss"])
        qs_med = statistics.median(walls["qs"])
        print(f"median wall: sss={sss_med:.2f}s qs={qs_med:.2f}s")
        assert sss_med <= qs_med


def test_c09_deterministic_replay():
    with criterion(9, "byte-identical dumps and stats under a fixed seed"):
        n, _, _ = generate_semiprime(25, random.Random(99))
        cfg = RunConfig(algo="sss", seed=271)
        dumps, counters = [], []
        for _ in range(2):
            fb, sb, pre, ctx = prepare(n, cfg)
            store, stats = collect_relations(n, cfg, fb, sb, pre, ctx)
            dumps.append(
                (store.fulls_csv().encode(), store.partials_csv().encode())
            )
            counters.append(stats.counters())
        assert dumps[0] == dumps[1]
        assert counters[0] == counters[1]
        results = [factor(n, cfg) for _ in range(2)]
        assert results[0].factors == results[1].factors
        assert results[0].stats.counters() == results[1].stats.counters()


@pytest.mark.slow
def test_c10_filter_discards_most_candidates():
    with criterion(10, "50-digit filtered run discards >= 50% of candidates"):
        n, _, _ = generate_semiprime(50, random.Random(110))
        result = factor(n, RunConfig(algo="sssf", seed=5))
        assert result.success
        stats = result.stats
        assert stats.candidates > 0
        discard_ratio = stats.filtered / stats.candidates
        print(f"filter discarded {discard_ratio:.1%} of {stats.candidates}")
        assert discard_ratio >= 0.5
