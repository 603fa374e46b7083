"""Collection rounds on forked workers.

Setting engine._INLINE_SECONDS to 0 sends every round (a search round, or a
qs interval) to the workers from round 0, and a patched os.sched_getaffinity
fixes the worker count, so these tests run the worker path on any host with
fork().  The
stream must be the one the inline rounds give, and no worker may outlive
collect_relations, however it ends.
"""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from test_stream_lock import CASES

from sssfactor import engine, qs, search
from sssfactor.cli import main
from sssfactor.engine import RunConfig, collect_relations, prepare
from sssfactor.numtheory import FoundFactor
from sssfactor.relations import RelationStore

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork()"
)

N40 = 2025187160651667522159602188240446426637


class Spy:
    """Counts the rounds run in this process and the worker counts of
    forked collections.  Workers inherit the counting wrappers by fork, but
    their counts stay in the worker."""

    def __init__(self, monkeypatch):
        self.inline = 0
        self.forked = []
        real_round, real_sieve = engine.search_round, qs.run_sieve
        real_forked = engine._forked_rounds

        def search_round(*args, **kwargs):
            self.inline += 1
            return real_round(*args, **kwargs)

        def run_sieve(*args, **kwargs):
            self.inline += 1
            return real_sieve(*args, **kwargs)

        def forked_rounds(workers, *args):
            self.forked.append(workers)
            return real_forked(workers, *args)

        monkeypatch.setattr(engine, "search_round", search_round)
        monkeypatch.setattr(qs, "run_sieve", run_sieve)
        monkeypatch.setattr(engine, "_forked_rounds", forked_rounds)


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forced(monkeypatch):
    """Workers from round 0, two of them."""
    monkeypatch.setattr(engine, "_INLINE_SECONDS", 0.0)
    cpus(monkeypatch, 2)
    return Spy(monkeypatch)


@pytest.mark.parametrize("algo, n, rounds, digest, counters", CASES)
def test_workers_keep_the_pinned_stream(forced, algo, n, rounds, digest, counters):
    config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
    fb, sb, pre, ctx = prepare(n, config)
    store, stats = collect_relations(n, config, fb, sb, pre, ctx)
    assert forced.inline == 0 and forced.forked == [2]
    assert stats.counters() == counters
    dump = store.fulls_csv() + store.partials_csv()
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    assert stats.phase_seconds["search"] > 0
    assert multiprocessing.active_children() == []


def test_worker_count_does_not_change_the_stream(monkeypatch):
    # three workers take the rounds in another interleaving; a factor() run
    # that stops on the relation target gives the same answer and counters
    n = 588090330819903606914786460449
    config = RunConfig(algo="sss", seed=7)
    inline = engine.factor(n, config)
    monkeypatch.setattr(engine, "_INLINE_SECONDS", 0.0)
    cpus(monkeypatch, 3)
    spy = Spy(monkeypatch)
    forked = engine.factor(n, config)
    assert spy.inline == 0 and spy.forked and set(spy.forked) == {3}
    assert forked.factors == inline.factors
    assert forked.stats.counters() == inline.stats.counters()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_qs_batches_keep_the_inline_stream(monkeypatch, workers):
    # 40 intervals are 2.5 batches of 16: the workers sieve whole blocks,
    # the last batch half of one, and the parent takes them in turn
    config = RunConfig(algo="qs", seed=7, max_rounds=40)
    fb, sb, pre, ctx = prepare(N40, config)

    def collect():
        store, stats = collect_relations(N40, config, fb, sb, pre, ctx)
        return store.fulls_csv() + store.partials_csv(), stats.counters()

    cpus(monkeypatch, 1)
    inline = collect()
    monkeypatch.setattr(engine, "_INLINE_SECONDS", 0.0)
    cpus(monkeypatch, workers)
    spy = Spy(monkeypatch)
    assert collect() == inline
    assert spy.inline == 0 and spy.forked == [workers]
    assert inline[1]["rounds"] == 40 and inline[1]["fulls"] > 0
    assert multiprocessing.active_children() == []


def _item_and_pid(item):
    return item, os.getpid()


def test_forked_rounds_send_whole_batches_in_order():
    # 23 items in batches of 4: each batch runs in one worker, the batches
    # alternate between the two workers, and the items come back in order
    out = list(engine._forked_rounds(2, _item_and_pid, iter(range(23)), 4))
    assert [item for item, _ in out] == list(range(23))
    pids = [{pid for _, pid in out[i : i + 4]} for i in range(0, 23, 4)]
    assert all(len(batch) == 1 for batch in pids)
    first, second = pids[0].pop(), pids[1].pop()
    assert len({first, second, os.getpid()}) == 3
    assert [batch.pop() for batch in pids[2:]] == [first, second] * 2
    assert multiprocessing.active_children() == []


def test_resume_after_a_target_stop(monkeypatch):
    # the first call stops on the target with rounds past it already sent to
    # the workers; they are dropped, and the second call, which continues
    # at store.rounds, computes them again
    n = 588090330819903606914786460449
    config = RunConfig(algo="sss", seed=7)
    fb, sb, pre, ctx = prepare(n, config)

    def twice():
        store, stats = collect_relations(n, config, fb, sb, pre, ctx)
        store.raise_target()
        collect_relations(n, config, fb, sb, pre, ctx, store=store, stats=stats)
        return store.fulls_csv() + store.partials_csv(), stats.counters()

    inline = twice()
    monkeypatch.setattr(engine, "_INLINE_SECONDS", 0.0)
    cpus(monkeypatch, 2)
    spy = Spy(monkeypatch)
    assert twice() == inline
    assert spy.inline == 0 and spy.forked == [2, 2]


def test_found_factor_in_ingest_stops_the_workers(forced, monkeypatch):
    real = RelationStore.ingest
    calls = {"count": 0}

    def lucky(self, x_bar, residual):
        calls["count"] += 1
        if calls["count"] == 50:
            raise FoundFactor(3)
        return real(self, x_bar, residual)

    monkeypatch.setattr(RelationStore, "ingest", lucky)
    config = RunConfig(algo="sss", seed=7, max_rounds=30)
    with pytest.raises(FoundFactor):
        collect_relations(N40, config, *prepare(N40, config))
    assert forced.forked == [2]
    assert multiprocessing.active_children() == []


def _raise_boom(*args):
    raise ZeroDivisionError("boom in the worker")


_calls = []


def _raise_on_second(*args):
    # each worker keeps its own list: its second round raises, after the
    # parent has already queued more rounds for it
    _calls.append(args)
    if len(_calls) == 2:
        raise ZeroDivisionError("boom in a later round")
    return search.round_finds(*args)


def _exit_at_once(*args):
    os._exit(3)


@pytest.mark.parametrize(
    "finds, error, match",
    [
        (_raise_boom, ZeroDivisionError, "boom in the worker"),
        (_raise_on_second, ZeroDivisionError, "boom in a later round"),
        (_exit_at_once, RuntimeError, "collection worker exited with code 3"),
    ],
    ids=["raises", "raises-later", "dies"],
)
def test_worker_failure_reaches_the_caller(forced, monkeypatch, finds, error, match):
    # the workers inherit the patched module by fork
    monkeypatch.setattr(engine, "round_finds", finds)
    config = RunConfig(algo="sss", seed=7, max_rounds=5)
    with pytest.raises(error, match=match):
        collect_relations(N40, config, *prepare(N40, config))
    assert multiprocessing.active_children() == []


def test_qs_worker_failure_reaches_the_caller(forced, monkeypatch):
    monkeypatch.setattr(qs, "run_sieve", _raise_boom)
    config = RunConfig(algo="qs", seed=7, max_rounds=40)
    with pytest.raises(ZeroDivisionError, match="boom in the worker"):
        collect_relations(N40, config, *prepare(N40, config))
    assert forced.forked == [2]
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_inline(monkeypatch):
    monkeypatch.setattr(engine, "_INLINE_SECONDS", 0.0)
    cpus(monkeypatch, 1)
    spy = Spy(monkeypatch)
    config = RunConfig(algo="sss", seed=7, max_rounds=5)
    _, stats = collect_relations(N40, config, *prepare(N40, config))
    assert spy.inline == stats.rounds == 5
    assert spy.forked == []


def test_other_threads_keep_the_rounds_inline(monkeypatch):
    # a forked child would inherit the locks another thread holds
    monkeypatch.setattr(engine, "_INLINE_SECONDS", 0.0)
    cpus(monkeypatch, 2)
    spy = Spy(monkeypatch)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        config = RunConfig(algo="sss", seed=7, max_rounds=5)
        collect_relations(N40, config, *prepare(N40, config))
    finally:
        stop.set()
        waiter.join()
    assert spy.inline == 5 and spy.forked == []


def _collect_in_daemon(conn):
    config = RunConfig(algo="sss", seed=7, max_rounds=5)
    _, stats = collect_relations(N40, config, *prepare(N40, config))
    conn.send(stats.counters())


def test_daemonic_process_runs_inline(forced):
    # a daemonic multiprocessing process may not start children
    context = multiprocessing.get_context("fork")
    conn, child = context.Pipe()
    proc = context.Process(target=_collect_in_daemon, args=(child,), daemon=True)
    proc.start()
    child.close()  # a child that dies early shows as EOFError, not a wait
    try:
        assert conn.poll(60)
        counters = conn.recv()
    finally:
        proc.join(60)
    assert proc.exitcode == 0
    config = RunConfig(algo="sss", seed=7, max_rounds=5)
    assert counters == collect_relations(N40, config, *prepare(N40, config))[1].counters()


def relations_rows(monkeypatch, capsys, rounds, *flags):
    """Full relations that the CLI dumps for N40 on two CPUs, checking that
    the rounds after the first few went to the workers."""
    cpus(monkeypatch, 2)
    spy = Spy(monkeypatch)
    assert main(["relations", str(N40), "--max-rounds", str(rounds), *flags]) == 0
    assert spy.forked == [2] and 0 < spy.inline < rounds
    assert multiprocessing.active_children() == []
    return len(capsys.readouterr().out.splitlines()) - 1


def test_ci_relation_count_starts_workers(monkeypatch, capsys):
    # the pinned CI count: 100 rounds run long enough at the default start
    # rule that the rounds after the first few go to the workers
    assert relations_rows(monkeypatch, capsys, 100) == 530


def test_ci_qs_relation_count_starts_workers(monkeypatch, capsys):
    # the pinned CI count of qs: 400 intervals outlast the inline start (at
    # about 0.6 ms an interval, some 80 of them ran inline on 2 CPUs)
    assert relations_rows(monkeypatch, capsys, 400, "--algo", "qs") == 78


STRESS = textwrap.dedent(
    """
    import multiprocessing, os, random
    from semiprimes import generate_semiprime
    from sssfactor import engine
    from sssfactor.engine import RunConfig, collect_relations, prepare
    from sssfactor.numtheory import FoundFactor

    engine._INLINE_SECONDS = 0.0
    os.sched_getaffinity = lambda pid: {0, 1}
    rng = random.Random(12)
    for i in range(100):
        n, _, _ = generate_semiprime(18, rng)
        config = RunConfig(algo="sss", seed=i, max_rounds=3)
        try:
            collect_relations(n, config, *prepare(n, config))
        except FoundFactor:
            pass
        assert multiprocessing.active_children() == []
    print("ok")
    """
)


def test_many_forked_collections_in_one_process():
    # a hang or a leaked child shows as a timeout or a failed assertion
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", STRESS], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
