import multiprocessing
import os
import random
import re
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from semiprimes import generate_semiprime

from sssfactor.crt import precompute
from sssfactor import engine, qs, search
from sssfactor.engine import (
    RelationShortfall,
    RunConfig,
    RunStats,
    _find_divisor,
    collect_relations,
    factor,
    prepare,
)
from sssfactor.factorbase import build_factor_bases
from sssfactor.numtheory import is_probable_prime
from sssfactor.relations import RelationStore
from sssfactor.search import SUBSUM_SIZE
from sssfactor.smoothness import Smoothness, build_context


def test_factor_examples():
    assert factor(8051).factors == [(83, 1), (97, 1)]
    assert factor(3**5).factors == [(3, 5)]
    assert factor(2 * 1299709).factors == [(2, 1), (1299709, 1)]
    assert factor(4).factors == [(2, 2)]
    assert factor(97).factors == [(97, 1)]


def test_factor_rejects_tiny():
    with pytest.raises(ValueError):
        factor(1)
    with pytest.raises(ValueError):
        factor(0)


def test_factor_mixed_structure():
    n = 2**3 * 3**2 * 1299709 * 15485863
    result = factor(n, RunConfig(seed=2))
    assert result.success
    assert result.factors == [(2, 3), (3, 2), (1299709, 1), (15485863, 1)]
    assert result.check()


def test_factor_three_prime_recursion():
    primes = [10000019, 10000079, 10000103]
    n = primes[0] * primes[1] * primes[2]
    result = factor(n, RunConfig(seed=4))
    assert result.success
    assert result.factors == [(p, 1) for p in primes]


def test_factor_perfect_power_of_semiprime():
    n = (101 * 103) ** 2
    result = factor(n)
    assert result.factors == [(101, 2), (103, 2)]


def test_factor_verifies_output_primality():
    n, p, q = generate_semiprime(22, random.Random(8))
    result = factor(n, RunConfig(seed=1))
    assert result.success
    for prime, _ in result.factors:
        assert is_probable_prime(prime)
    assert result.factors == sorted([(p, 1), (q, 1)])


def test_algo_auto_selection():
    cfg = RunConfig()
    assert cfg.algo_for(10**30) == "sss"
    assert cfg.algo_for(10**80) == "sssf"
    assert RunConfig(algo="sss").algo_for(10**80) == "sss"  # explicit wins
    assert SUBSUM_SIZE == {"sss": 6, "sssf": 7}


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(algo="nope")
    with pytest.raises(ValueError, match="max_rounds"):
        RunConfig(max_rounds=-1)
    # the edge stays legal; max_rounds=0 is how a caller asks for no search
    RunConfig(max_rounds=0)


def test_degenerate_small_base_is_rejected():
    # a small base that swallows the whole factor base leaves no collision primes
    n = 1299709 * 1299721
    fb, sb = build_factor_bases(n, 20, 10**6)
    assert not fb.large_primes(sb.n)
    pre = precompute(sb, fb.roots)
    ctx = build_context(fb.primes)
    with pytest.raises(ValueError, match="small base covers"):
        collect_relations(n, RunConfig(seed=1), fb, sb, pre, ctx)


def test_determinism_same_seed():
    n, _, _ = generate_semiprime(20, random.Random(5))
    a = factor(n, RunConfig(seed=9))
    b = factor(n, RunConfig(seed=9))
    assert a.factors == b.factors
    assert a.stats.counters() == b.stats.counters()


def test_collect_relations_reaches_target():
    n, _, _ = generate_semiprime(18, random.Random(6))
    cfg = RunConfig(seed=1)
    fb, sb, pre, ctx = prepare(n, cfg)
    store, stats = collect_relations(n, cfg, fb, sb, pre, ctx)
    assert store.have_enough()
    assert len(store.fulls) >= store.target
    assert stats.fulls == store.native_count
    assert stats.combined == store.combined_count
    assert stats.fulls + stats.combined == len(store.fulls)
    assert stats.rounds > 0
    # a direct call times its own collection, not only factor()'s
    assert stats.phase_seconds["collect"] > 0


@pytest.mark.parametrize(
    "algo, n",
    [
        ("sss", 2025187160651667522159602188240446426637),
        ("sssf", 10631269693415190522128026926094032979418574955981),
        ("qs", 2025187160651667522159602188240446426637),
    ],
    ids=["sss-40d", "sssf-50d", "qs-40d"],
)
def test_collect_relations_resumes_the_stream(algo, n):
    # 4 rounds and then 6 more into one store give the 10-round stream: the
    # second call continues at round 4 instead of replaying rounds 0-3
    def config(rounds):
        return RunConfig(algo=algo, seed=7, max_rounds=rounds)

    fb, sb, pre, ctx = prepare(n, config(10))
    whole, whole_stats = collect_relations(n, config(10), fb, sb, pre, ctx)
    split, split_stats = collect_relations(n, config(4), fb, sb, pre, ctx)
    assert split_stats.rounds == 4
    collect_relations(
        n, config(6), fb, sb, pre, ctx, store=split, stats=split_stats
    )
    assert split_stats.counters() == whole_stats.counters()
    assert (
        split.fulls_csv() + split.partials_csv()
        == whole.fulls_csv() + whole.partials_csv()
    )
    assert split.rounds == whole.rounds == 10


N40 = 2025187160651667522159602188240446426637


_FORK = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork()"
)


@pytest.mark.parametrize("algo, cpus", [
    ("qs", 1),
    pytest.param("qs", 2, marks=_FORK),
    ("sss", 1),
    pytest.param("sss", 2, marks=_FORK),
], ids=["qs", "qs-workers", "sss-inline", "sss-workers"])
def test_ingest_sees_each_rounds_finds_once_in_order(monkeypatch, algo, cpus):
    # collect_relations is the only caller of ingest, once per find and in
    # round order, whichever process computed the round; forked before
    # round 0, two CPUs share the rounds between one worker and this
    # process, and one keeps them all here
    config = RunConfig(algo=algo, seed=7, max_rounds=10)
    fb, sb, pre, ctx = prepare(N40, config)
    bound = RelationStore(N40, fb).partial_bound
    if algo == "qs":
        sieve = qs.Sieve(fb, bound)
        rounds = [qs.run_sieve(sieve, ctx, index) for index in range(10)]
    else:
        rng = random.Random(f"7:{N40}:0")
        k = SUBSUM_SIZE[algo]
        rounds = [
            search.search_round(fb, sb, pre, ctx, search.pick_indices(k, sb.n, rng), bound)
            for _ in range(10)
        ]

    monkeypatch.setattr(engine, "_fork_pays", lambda *args: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forked, ingested = [], []
    real_start, real_ingest = engine._start_workers, RelationStore.ingest

    def start_workers(count):
        forked.append(count)
        return real_start(count)

    def ingest(self, x_bar, g):
        ingested.append((x_bar, g))
        return real_ingest(self, x_bar, g)

    monkeypatch.setattr(engine, "_start_workers", start_workers)
    monkeypatch.setattr(RelationStore, "ingest", ingest)
    _, stats = collect_relations(N40, config, fb, sb, pre, ctx)
    assert stats.rounds == 10
    assert forked == ([1] if cpus == 2 else [])  # one CPU is never offered a fork
    assert ingested == [find for found in rounds for find in found.finds]
    assert ingested
    # the worker is kept for the next collection
    assert len(multiprocessing.active_children()) == cpus - 1


@pytest.mark.parametrize("made, target, done, left, rounds, seconds, pays", [
    (0, 524, 0, None, 0, 0.0, False),     # nothing is timed before round 0
    (10, 231, 1, None, 1, 0.002, False),  # 22 rounds of 2 ms
    (5, 530, 1, None, 1, 0.003, True),    # 105 rounds of 3 ms
    (5, 530, 1, 30, 1, 0.003, False),     # the cap leaves 30 of them
    (0, 530, 1, None, 1, 0.003, True),    # no relation yet: no end but the cap
    (0, 530, 16, 184, 16, 0.008, False),  # qs: 184 intervals of 0.5 ms
    (0, 530, 16, 384, 16, 0.008, True),   # and 384
    (524, 535, 77, None, 1, 0.003, False),  # SLACK + 1 more at 6.8 a round
], ids=["before-round-0", "30d", "40d", "40d-capped", "no-relation", "qs-capped",
        "qs", "resumed"])
def test_fork_pays_on_the_round_time_left(made, target, done, left, rounds, seconds, pays):
    # done is the store's rounds, rounds and seconds those of this collection
    store = SimpleNamespace(fulls=dict.fromkeys(range(made)), target=target, rounds=done)
    assert engine._FORK_SECONDS == 0.1
    assert engine._fork_pays(store, left, rounds, seconds) is pays


def test_starvation_yields_residue_with_diagnostics(monkeypatch):
    n, _, _ = generate_semiprime(18, random.Random(7))
    result = factor(n, RunConfig(seed=1, max_rounds=0))
    assert not result.success
    assert result.residue == n
    assert result.factors == []
    assert result.check()
    assert result.stats.rounds == 0
    assert result.shortfalls == [
        f"starved factoring {n} after 0 rounds (the round cap): no round ran"
    ]

    # the message names the starved layer from this composite's counters
    # only, not from what earlier composites left in the shared stats
    def starve(config):
        earlier = RunStats(rounds=5, candidates=9, fulls=3, partials=4)
        with pytest.raises(RelationShortfall) as info:
            _find_divisor(n, config, earlier)
        return str(info.value)

    for algo in ("sss", "qs"):
        assert starve(RunConfig(algo=algo, seed=1, max_rounds=0)) == (
            f"starved factoring {n} after 0 rounds (the round cap): no round ran"
        )
    assert starve(RunConfig(algo="sss", seed=1, max_rounds=1)) == (
        f"starved factoring {n} after 1 rounds (the round cap): "
        "23 fulls + 1 combined relations of 70 (9 partials)"
    )
    monkeypatch.setattr(search, "classify", lambda g, bound: Smoothness.REJECT)
    assert re.fullmatch(
        rf"starved factoring {n} after 1 rounds \(the round cap\): "
        "no smooth candidates among [1-9][0-9]*",
        starve(RunConfig(algo="sss", seed=1, max_rounds=1)),
    )


@pytest.mark.parametrize("rounds, layer", [
    (0, "no round ran"),
    (3, "13 fulls + 0 combined relations of 524 (115 partials)"),
], ids=["no-rounds", "three-rounds"])
def test_shortfall_names_the_round_cap(rounds, layer):
    # the cap, not the search, ended collection; a run of no rounds made no
    # candidates because none ran, not because the search found none
    result = factor(N40, RunConfig(max_rounds=rounds))
    assert result.residue == N40
    assert result.shortfalls == [
        f"starved factoring {N40} after {rounds} rounds (the round cap): {layer}"
    ]


@pytest.mark.parametrize("n", [658031367992468443, 6447136083544393581919])
def test_sssf_stops_where_the_filter_drops_every_candidate(n):
    # below about 25 digits the filter's pass-1 cutoff drops every sssf
    # candidate; the run stops after as many barren rounds as the target
    config = RunConfig(algo="sssf", seed=2)
    t0 = time.perf_counter()
    result = factor(n, config)
    assert time.perf_counter() - t0 < 30
    assert result.residue == n and result.factors == []
    stats = result.stats
    target = RelationStore(n, prepare(n, config)[0]).target
    assert stats.rounds == target
    assert stats.filtered == stats.candidates > 0
    assert stats.fulls == stats.partials == 0
    [message] = result.shortfalls
    assert message.startswith(f"starved factoring {n} after {target} rounds")
    assert message.endswith(f": the filter dropped all {stats.candidates} candidates")


def test_sssf_still_factors_at_25_digits():
    # its first round already emits relations, so the barren stop never fires
    n = 5482707518627393921376427
    result = factor(n, RunConfig(algo="sssf", seed=2))
    assert result.success
    assert result.factors == [(780065199581, 1), (7028524694567, 1)]


def test_partial_starvation_keeps_found_factors():
    # the even part still comes out even when the search is starved
    n, _, _ = generate_semiprime(18, random.Random(7))
    result = factor(4 * n, RunConfig(seed=1, max_rounds=0))
    assert not result.success
    assert result.factors == [(2, 2)]
    assert result.residue == n
    assert len(result.shortfalls) == 1


def test_stats_have_phase_times():
    n, _, _ = generate_semiprime(18, random.Random(10))
    t0 = time.perf_counter()
    result = factor(n, RunConfig(seed=1))
    wall = time.perf_counter() - t0
    phases = dict(result.stats.phase_seconds)
    for phase in ("precompute", "collect", "linalg", "search", "wait", "inline"):
        assert phase in phases
        assert phases[phase] >= 0.0
    # search is the rounds' time inside collect, summed over the processes
    # that ran them, wait the part of collect spent blocked on a worker and
    # inline the part before a fork; the others are each timed once and
    # cannot add up to more than the run
    search = phases.pop("search")
    assert phases.pop("wait") <= phases["collect"]
    assert phases.pop("inline") <= phases["collect"]
    assert sum(phases.values()) <= wall
    assert search > 0.0


def test_no_partials_config():
    n, _, _ = generate_semiprime(20, random.Random(11))
    result = factor(n, RunConfig(seed=1, use_partials=False))
    assert result.success
    assert result.stats.combined == 0


def test_phase2_retry_when_all_dependencies_trivial(monkeypatch):
    # reject the whole first dependency batch: the engine must collect more
    # relations and still come back with a correct answer, never a wrong one
    import sssfactor.engine as eng

    real = eng.extract_factor
    calls = {"count": 0}

    def stubborn(big_x, big_y, n):
        calls["count"] += 1
        if calls["count"] <= 30:
            return None
        return real(big_x, big_y, n)

    monkeypatch.setattr(eng, "extract_factor", stubborn)
    n = 1299709 * 1299721
    result = factor(n, RunConfig(seed=2))
    assert result.success
    assert result.factors == [(1299709, 1), (1299721, 1)]
    assert calls["count"] > 30


def test_retry_skips_the_dependencies_already_tried(monkeypatch):
    # the first target rows of a later cycle start with the earlier cycles'
    # rows, so their dependencies come first too and are not tried again
    import sssfactor.engine as eng

    real = eng.extract_factor
    seen = []

    def stubborn(big_x, big_y, n):
        seen.append((big_x, big_y))
        if len(seen) <= 30:
            return None
        return real(big_x, big_y, n)

    monkeypatch.setattr(eng, "extract_factor", stubborn)
    n = 1299709 * 1299721
    result = factor(n, RunConfig(seed=2))
    assert result.factors == [(1299709, 1), (1299721, 1)]
    assert len(seen) > 30
    assert len(set(seen)) == len(seen)


def test_all_trivial_dependencies_name_the_linear_algebra(monkeypatch):
    # collection met its target in every cycle, so the run did not starve:
    # the message names the solve and what it tried
    monkeypatch.setattr(engine, "extract_factor", lambda big_x, big_y, n: None)
    n = 1299709 * 1299721
    result = factor(n, RunConfig(seed=2))
    assert result.residue == n
    assert result.shortfalls == [
        f"failed factoring {n} after 7 rounds: linear algebra gave a trivial gcd "
        f"for all 134 dependencies of 188 relations in {engine._MAX_SOLVE_CYCLES} "
        "solve cycles"
    ]
    assert str(RelationShortfall(n, RunStats())) == (
        f"starved factoring {n} after 0 rounds: no round ran"
    )


def test_solve_takes_only_the_target_rows(monkeypatch):
    # one qs interval of this small composite stores many times the target;
    # the solver gets the first target rows in stream order
    import sssfactor.engine as eng

    real = eng.solve_dependencies
    handed = []

    def record(relations):
        handed.append(list(relations))
        return real(relations)

    monkeypatch.setattr(eng, "solve_dependencies", record)
    n = 1299709 * 1299721
    config = RunConfig(algo="qs", seed=3)
    result = factor(n, config)
    assert result.factors == [(1299709, 1), (1299721, 1)]
    store, _ = collect_relations(n, config, *prepare(n, config))
    assert len(store.fulls) > 10 * store.target
    assert handed == [list(store.fulls.values())[: store.target]]


def test_lucky_factor_during_collection(monkeypatch):
    from sssfactor.numtheory import FoundFactor
    from sssfactor.relations import RelationStore

    real_ingest = RelationStore.ingest
    fired = {"done": False}

    def lucky(self, x_bar, residual):
        if not fired["done"]:
            fired["done"] = True
            raise FoundFactor(1299709)
        return real_ingest(self, x_bar, residual)

    monkeypatch.setattr(RelationStore, "ingest", lucky)
    result = factor(1299709 * 1299721, RunConfig(seed=3))
    assert result.success
    assert result.factors == [(1299709, 1), (1299721, 1)]
    assert fired["done"]


@pytest.mark.slow
def test_prepare_memory_stays_linear_at_80_digits():
    # factor base, small base and smoothness context take about 10 MB here;
    # global CRT coefficients over the whole small base (6000 primes, each
    # about as large as their product) would add about 140 MB
    n = 5291766926642718424261436518971751761119 * 9342651369344138887222875582716104592083
    assert len(str(n)) == 80
    tracemalloc.start()
    try:
        prepare(n, RunConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"prepare() peaked at {peak / 2**20:.1f} MB"
