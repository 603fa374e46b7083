import multiprocessing
import os
import random
import re
import time
import tracemalloc

import pytest

from numtheory_oracle import factor_base
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
from sssfactor.factorbase import build_factor_bases, table_sizes
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
    for bad in (-1, 1.5, 2.0, "3", True, False):
        with pytest.raises(ValueError, match="max_rounds"):
            RunConfig(max_rounds=bad)
    # the edge stays legal; max_rounds=0 is how a caller asks for no search
    RunConfig(max_rounds=0)


def test_degenerate_small_base_is_rejected():
    # a small base that swallows the whole factor base leaves no collision primes
    n = 1299709 * 1299721
    fb, sb = build_factor_bases(n, 20, 10**6)
    assert not fb.large_primes(len(sb))
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
    if algo == "qs":
        sieve = qs.Sieve(fb)
        rounds = [qs.run_sieve(sieve, ctx, index) for index in range(10)]
    else:
        rng = random.Random(f"7:{N40}:0")
        k = SUBSUM_SIZE[algo]
        rounds = [
            search.search_round(fb, pre, ctx, search.pick_indices(k, len(sb), rng))
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


@pytest.mark.parametrize("digits, limit, batch, processes, pays", [
    (30, None, 1, 2, False),
    (32, None, 1, 2, False),
    (33, None, 1, 2, True),   # _FORK_DIGITS
    (40, None, 1, 2, True),
    (50, None, 1, 8, True),
    (40, 0, 1, 2, False),     # a cap of fewer than 10 batches per process
    (40, 2, 1, 2, False),
    (40, 3, 1, 2, False),
    (40, 3, 1, 3, False),
    (40, 19, 1, 2, False),
    (40, 20, 1, 2, True),
    (40, 29, 1, 3, False),
    (40, 30, 1, 3, True),
    (50, 50, 1, 2, True),     # the sssf-50d-rounds workload
    (32, 30, 1, 2, False),
    (35, 32, 16, 2, False),   # qs: one sieve block per side a batch
    (35, 33, 16, 2, False),
    (35, 319, 16, 2, False),
    (35, 320, 16, 2, True),
], ids=["30d", "32d", "33d", "40d", "50d-8-cpus", "40d-no-round", "40d-capped",
        "40d-capped-3", "40d-capped-3-on-3-cpus", "40d-capped-19", "40d-capped-20",
        "40d-capped-29-on-3-cpus", "40d-capped-30-on-3-cpus", "50d-capped-50",
        "32d-capped", "qs-capped", "qs", "qs-capped-319", "qs-capped-320"])
def test_fork_pays_on_the_size_and_the_cap(digits, limit, batch, processes, pays):
    n = 10 ** (digits - 1) + 3
    assert (engine._FORK_DIGITS, engine._FORK_BATCHES) == (33, 10)
    assert engine._fork_pays(n, limit, batch, processes) is pays


N40B = 1251681611221125843937253098284462597887  # another base: k = 23


@pytest.mark.parametrize("algo, prepared_for, swap, match", [
    ("sss", "sss", "ctx", "smoothness context was built for another"),
    ("qs", "qs", "ctx", "smoothness context was built for another"),
    ("sss", "sss", "pre", "CRT tables were built for another"),
    ("sss", "sss", "store", "store was built on another"),
    ("sssf", "sss", None, "does not match sssf"),
    ("sss", "sssf", None, "does not match sss"),
], ids=["ctx", "qs-ctx", "pre", "store", "sssf-on-sss", "sss-on-sssf"])
def test_collection_inputs_that_do_not_belong_together(algo, prepared_for, swap, match):
    # each would otherwise run rounds: on the wrong primes, with the wrong
    # subsum size or filter, or into a store that fails only afterwards
    fb, sb, pre, ctx = prepare(N40, RunConfig(algo=prepared_for))
    other_fb, _, other_pre, other_ctx = prepare(N40B, RunConfig(algo=prepared_for))
    store = RelationStore(N40B, other_fb) if swap == "store" else None
    pre = other_pre if swap == "pre" else pre
    ctx = other_ctx if swap == "ctx" else ctx
    stats = RunStats()
    config = RunConfig(algo=algo, seed=7, max_rounds=2)
    with pytest.raises(ValueError, match=match):
        collect_relations(N40, config, fb, sb, pre, ctx, store=store, stats=stats)
    assert stats.rounds == 0 and stats.phase_seconds == {}


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


# (n, factors, rounds) of seed-2 sssf runs below 25 digits, where a
# digit-based pass-1 cutoff once dropped every candidate
SMALL_SSSF = [
    (658031367992468443, [(807354781, 1), (815046103, 1)], 3),
    (6447136083544393581919, [(71787945331, 1), (89808059749, 1)], 16),
]


@pytest.mark.parametrize("n, factors, rounds", SMALL_SSSF, ids=[str(c[0]) for c in SMALL_SSSF])
def test_sssf_factors_below_25_digits(n, factors, rounds):
    result = factor(n, RunConfig(algo="sssf", seed=2))
    assert result.success and result.shortfalls == []
    assert result.factors == factors
    assert result.stats.rounds == rounds
    assert 0 < result.stats.filtered < result.stats.candidates


@pytest.mark.parametrize("n", [case[0] for case in SMALL_SSSF])
def test_sssf_stops_where_the_filter_drops_every_candidate(n, monkeypatch):
    # a filter that drops every candidate (forced here) leaves no relation,
    # and the run stops after as many barren rounds as the target
    monkeypatch.setattr(search, "smooth_filter", lambda ctx, values, cutoff: [])
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


# one balanced semiprime for each row above 80 digits
TOP_ROWS = (
    49830199393658191344625799388039283554830641
    * 77597055210865915226670116312291117735745223,
    38808644904735053833094346469019030866001164981
    * 50546424438597276291166479345787926135523108397,
    16278788132258179548786978481905871861516924275029
    * 64168161095670389559733179855238041455600865671033,
)


@pytest.mark.slow
@pytest.mark.parametrize("n, bound_mb", zip(TOP_ROWS, (32, 40, 64)), ids=["88d", "94d", "100d"])
def test_prepare_at_the_top_rows_matches_the_oracle(n, bound_mb):
    # the base of the 88-, 94- and 100-digit rows (m = 50 000, 60 000 and
    # 100 000) equals the scalar oracle's, and prepare() peaked at 22.3,
    # 26.1 and 44.2 MB under tracemalloc on a 2-core Intel Xeon host
    # (Python 3.11.7, numpy 2.4.6): each bound leaves 40-55 % headroom
    tracemalloc.start()
    try:
        fb, sb, _, _ = prepare(n, RunConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, small_n = table_sizes(len(str(n)))
    assert (fb.primes, fb.roots) == factor_base(n, m, fb.multiplier)
    assert sb == fb.paired[:small_n]
    assert peak < bound_mb * 2**20, f"prepare() peaked at {peak / 2**20:.1f} MB"
