"""Acceptance suite: one test per release criterion, at full size.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  This module is heavier than the unit tests (it factors
real 30-50 digit semiprimes); expect a minute or two of wall time.
"""

import itertools
import json
import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from relations_oracle import dense, sparse
from search_oracle import scan_hits

from sssfactor.cli import generate_semiprime, main
from sssfactor.crt import get_x, precompute
from sssfactor.engine import RunConfig, collect_relations, factor, prepare
from sssfactor.factorbase import build_factor_bases, poly_value
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


def factor_and_verify(n, seed):
    t0 = time.perf_counter()
    result = factor(n, RunConfig(algo="sss", seed=seed))
    wall = time.perf_counter() - t0
    assert result.success, f"failed to factor {n}"
    product = 1
    for p, e in result.factors:
        assert is_probable_prime(p), f"non-prime factor {p} reported for {n}"
        product *= p**e
    assert product == n
    return wall


@pytest.mark.slow
def test_c01_end_to_end_correctness():
    with criterion(1, "end-to-end factorization and growth trend"):
        rng = random.Random(30_35_40)
        walls = {}
        for digits, count, limit in ((30, 20, 5.0), (35, 10, None), (40, 10, 60.0)):
            walls[digits] = []
            for i in range(count):
                n, _, _ = generate_semiprime(digits, rng)
                wall = factor_and_verify(n, seed=i)
                if limit is not None:
                    assert wall < limit, f"{digits}-digit input took {wall:.1f}s"
                walls[digits].append(wall)
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


def test_c03_boosted_batch_soundness(smoothness_corpus):
    with criterion(3, "boosted batch soundness and miss rate < 1%"):
        ctx, values, oracle = smoothness_corpus
        got = []
        for lo in range(0, len(values), 512):
            got.extend(smooth_batch(ctx, values[lo : lo + 512]))
        smooth_total = missed = 0
        for g, want in zip(got, oracle):
            if g == 1:
                assert want == 1, "boosted batch called a non-smooth value smooth"
            if want == 1:
                smooth_total += 1
                if g != 1:
                    missed += 1
        assert smooth_total > 0
        assert missed < 0.01 * smooth_total, f"{missed}/{smooth_total} missed"


def test_c04_collision_soundness_and_completeness():
    with criterion(4, "collision hits sound and complete on toy instance"):
        n = 999919  # 991 * 1009
        fb, sb = build_factor_bases(n, 20, 8)
        assert len(fb.primes) <= 40 and sb.n <= 8
        pre = precompute(sb, fb.roots)
        large = fb.large_primes(sb.n)
        primes, roots = fb.large_arrays(sb.n)
        shift = isqrt_ceil(n)
        p_max = max(large)
        rng = random.Random(44)
        scans = 0
        for _ in range(8):
            idx = pick_indices(4, sb.n, rng)
            moduli = [sb.primes[i] for i in idx]
            modulus = math.prod(moduli)
            rep = [0] * sb.n
            for i in idx:
                rep[i] = 1
            x, _ = get_x(rep, sb, pre, fb.roots)
            transforms = root_transforms(x, round_table(modulus, primes, roots))
            for q in [1] + moduli:
                m_prime = modulus // q
                hits = scan_hits(transforms, q, modulus, x, 3)
                for hit in hits:
                    f_val = poly_value(hit.x_bar, n, shift)
                    assert f_val % hit.m_prime == 0
                    dividing = [p for p in large if f_val % p == 0]
                    assert len(dividing) >= 3
                # exhaustive alpha scan within each prime's offset window
                reported = {h.alpha for h in hits}
                for alpha in range(-p_max, p_max):
                    count = sum(
                        1
                        for p in large
                        if -p <= alpha < p
                        and poly_value(x + alpha * m_prime, n, shift) % p == 0
                    )
                    if count >= 3:
                        assert alpha in reported, f"oracle alpha {alpha} missed"
                scans += 1
        assert scans == 40


def test_c05_initial_pair_bound():
    with criterion(5, "worst-case bound on 10^3 initial pairs, 40 digits"):
        n, _, _ = generate_semiprime(40, random.Random(55))
        fb, sb = build_factor_bases(n, *RunConfig().sizes_for(n))
        pre = precompute(sb, fb.roots)
        shift = isqrt_ceil(n)
        rng = random.Random(56)
        for _ in range(1000):
            rep = [0] * sb.n
            for i in rng.sample(range(sb.n), 6):
                rep[i] = rng.choice((1, 2))
            x, modulus = get_x(rep, sb, pre, fb.roots)
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
                for p, e in zip(store.primes, dense(rel.exponents, len(store.primes))):
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
def test_c08_bench_trend_sss_vs_qs(tmp_path):
    with criterion(8, "35-digit bench: subsum search beats the sieve"):
        out = tmp_path / "bench35"
        rc = main(
            [
                "bench", "--digits", "35", "--count", "10",
                "--algos", "sss,qs", "--seed", "88", "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "bench35.json").read_text())
        walls = {"sss": [], "qs": []}
        for run in report["runs"]:
            assert run["success"]
            walls[run["algo"]].append(run["wall_seconds"])
        assert len(walls["sss"]) == len(walls["qs"]) == 10
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
