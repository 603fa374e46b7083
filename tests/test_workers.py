"""Collection rounds on forked workers and in the collecting process.

A process keeps one worker set.  A collection without one forks it before
round 0 (a search round, or a qs interval) when engine._fork_pays, asked
once, says yes for the composite's digits and the round cap, and every
later collection hands batches to it from its first batch on.  Patching
_fork_pays to say yes forks the set for any input, and a patched
os.sched_getaffinity fixes the CPU count, so most tests here run the worker
path on any host with fork().  On W CPUs, W - 1 workers compute rounds, and
this process computes the batches that it draws while the oldest one waits
for a worker.  The stream must be the one the inline rounds give.  The set
outlives a collection that stops on the target or the cap or raises
FoundFactor, but no worker outlives a failed collection, close_workers()
(which the autouse fixture of conftest.py calls around every test) or the
process.  A fork that fails leaves the collection in this process.  The
rule reads only the inputs, so its tests do not depend on the host's
speed.
"""

import errno
import hashlib
import itertools
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from test_stream_lock import CASES

from sssfactor import engine, qs, search
from sssfactor.cli import main
from sssfactor.engine import RunConfig, RunStats, collect_relations, prepare
from sssfactor.numtheory import FoundFactor
from sssfactor.relations import RelationStore

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork()"
)

N40 = 2025187160651667522159602188240446426637
_PARENT = os.getpid()  # a forked worker sees its own pid


class Spy:
    """Counts the rounds run in this process and the sizes of the worker
    sets forked.  Workers inherit the counting wrappers by fork, but their
    counts stay in the worker."""

    def __init__(self, monkeypatch):
        self.inline = 0
        self.forked = []
        self.inline_at_fork = []
        real_round, real_sieve = engine.search_round, qs.run_sieve
        real_start = engine._start_workers

        def search_round(*args, **kwargs):
            self.inline += 1
            return real_round(*args, **kwargs)

        def run_sieve(*args, **kwargs):
            self.inline += 1
            return real_sieve(*args, **kwargs)

        def start_workers(count):
            self.forked.append(count)
            self.inline_at_fork.append(self.inline)
            return real_start(count)

        monkeypatch.setattr(engine, "search_round", search_round)
        monkeypatch.setattr(qs, "run_sieve", run_sieve)
        monkeypatch.setattr(engine, "_start_workers", start_workers)


def kept_workers():
    """The PIDs of the kept set, checked to be every child alive."""
    pids = sorted(proc.pid for proc in engine._workers.procs)
    assert sorted(proc.pid for proc in multiprocessing.active_children()) == pids
    return pids


def fork_at_once(monkeypatch):
    """Collections fork before round 0 wherever they may fork."""
    monkeypatch.setattr(engine, "_fork_pays", lambda *args: True)


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forced(monkeypatch):
    """Workers from round 0 on two CPUs: one worker and this process."""
    fork_at_once(monkeypatch)
    cpus(monkeypatch, 2)
    return Spy(monkeypatch)


@pytest.mark.parametrize("algo, n, rounds, digest, counters", CASES)
def test_workers_keep_the_pinned_stream(forced, algo, n, rounds, digest, counters):
    config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
    fb, sb, pre, ctx = prepare(n, config)
    store, stats = collect_relations(n, config, fb, sb, pre, ctx)
    # the first batch goes to the worker, and no round past the cap is run
    assert forced.inline < rounds and forced.forked == [1]
    assert stats.counters() == counters
    dump = store.fulls_csv() + store.partials_csv()
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    assert stats.phase_seconds["search"] > 0
    assert len(kept_workers()) == 1  # kept for the next collection


def test_one_set_serves_every_pinned_stream(forced):
    # all the stream-lock cases, sss, sssf and qs in turn and then again,
    # through the one worker that the first of them forks
    for _ in range(2):
        for case in CASES:
            algo, n, rounds, digest, counters = case.values
            config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
            store, stats = collect_relations(n, config, *prepare(n, config))
            assert stats.counters() == counters, case.id
            dump = store.fulls_csv() + store.partials_csv()
            assert hashlib.sha256(dump.encode()).hexdigest() == digest, case.id
            # the worker took batches: inline stops short of collect
            assert stats.phase_seconds["inline"] < stats.phase_seconds["collect"]
    assert forced.forked == [1]
    assert len(kept_workers()) == 1


def _slow_in_worker(real):
    """real, after a 20 ms sleep when a worker runs it."""

    def run(*args):
        if os.getpid() != _PARENT:
            time.sleep(0.02)
        return real(*args)

    return run


@pytest.mark.parametrize("algo, n, rounds, digest, counters", CASES)
def test_slow_workers_keep_the_pinned_stream(
    forced, monkeypatch, algo, n, rounds, digest, counters
):
    # this process computes most search rounds, and the worker's come in
    # between them, late; a qs case of one or two batches all goes to it
    monkeypatch.setattr(engine, "search_round", _slow_in_worker(engine.search_round))
    monkeypatch.setattr(qs, "run_sieve", _slow_in_worker(qs.run_sieve))
    config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
    store, stats = collect_relations(n, config, *prepare(n, config))
    assert forced.forked == [1]
    if algo != "qs":
        assert forced.inline > stats.rounds / 2
    assert stats.counters() == counters
    dump = store.fulls_csv() + store.partials_csv()
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    assert len(kept_workers()) == 1


def test_worker_count_does_not_change_the_stream(monkeypatch):
    # two workers and this process take the rounds in another
    # interleaving; a factor() run
    # that stops on the relation target gives the same answer and counters
    n = 588090330819903606914786460449
    config = RunConfig(algo="sss", seed=7)
    inline = engine.factor(n, config)
    fork_at_once(monkeypatch)
    cpus(monkeypatch, 3)
    spy = Spy(monkeypatch)
    forked = engine.factor(n, config)
    assert spy.forked == [2]
    assert forked.factors == inline.factors
    assert forked.stats.counters() == inline.stats.counters()
    assert len(kept_workers()) == 2


@pytest.mark.parametrize("count", [2, 3])
def test_qs_batches_keep_the_inline_stream(monkeypatch, count):
    # 40 intervals are 2.5 batches of 16: each is sieved whole, the last
    # one half a block, by a worker or by this process, and taken in order;
    # near the cap a worker is handed no more than its share of the batches
    # left, so this process may sieve whole batches too
    config = RunConfig(algo="qs", seed=7, max_rounds=40)
    fb, sb, pre, ctx = prepare(N40, config)

    def collect():
        store, stats = collect_relations(N40, config, fb, sb, pre, ctx)
        return store.fulls_csv() + store.partials_csv(), stats.counters()

    cpus(monkeypatch, 1)
    inline = collect()
    fork_at_once(monkeypatch)
    cpus(monkeypatch, count)
    spy = Spy(monkeypatch)
    assert collect() == inline
    assert spy.inline in (0, 8, 16, 24) and spy.forked == [count - 1]
    assert inline[1]["rounds"] == 40 and inline[1]["fulls"] > 0
    assert len(kept_workers()) == count - 1


def _item_and_pid(item):
    return item, os.getpid()


def _paused_item_and_pid(item):
    time.sleep(0.01)
    return item, os.getpid()


def test_forked_rounds_send_whole_batches_in_order(monkeypatch):
    # 23 items in batches of 4 on two workers: each batch runs whole in one
    # process, the first two in one worker and the next two in the other,
    # the last two in a worker or here, and the items come back in order;
    # the plan is run itself, in this process and in the workers
    monkeypatch.setattr(engine, "_runner", lambda plan: plan)
    spy = Spy(monkeypatch)

    kept = engine._start_workers(2)
    assert kept.begin(_item_and_pid)
    out = list(engine._rounds(_item_and_pid, iter(range(23)), 4, None, RunStats(), kept))
    assert [item for item, _ in out] == list(range(23))
    pids = [{pid for _, pid in out[i : i + 4]} for i in range(0, 23, 4)]
    assert all(len(batch) == 1 for batch in pids)
    pids = [batch.pop() for batch in pids]
    first, second = pids[0], pids[2]
    assert len({first, second, os.getpid()}) == 3
    assert pids[:4] == [first, first, second, second]
    assert set(pids[4:]) <= {first, second, os.getpid()}
    assert spy.forked == [2]
    assert kept_workers() == sorted([first, second])


def test_a_capped_collection_ends_without_a_queued_tail(monkeypatch):
    # near the cap a worker owes at most its share of the items left, split
    # between it and this process and rounded up: whenever it got an item
    # it owed fewer batches than that share.  Items take 10 ms in either
    # process, so replies come back mid-run.
    import multiprocessing.connection

    monkeypatch.setattr(engine, "_runner", lambda plan: plan)
    sent = []
    real_send = multiprocessing.connection.Connection.send

    def send(conn, obj):
        if os.getpid() == _PARENT and isinstance(obj, list):
            sent.append((obj, len(engine._workers.owed[0])))
        return real_send(conn, obj)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", send)

    kept = engine._start_workers(1)
    assert kept.begin(_paused_item_and_pid)
    limit = 12
    rounds = engine._rounds(_paused_item_and_pid, itertools.count(), 1, limit, RunStats(), kept)
    out = list(rounds)
    assert [item for item, _ in out] == list(range(limit))
    assert sent
    for [item], owed in sent:
        assert owed < min(engine._QUEUE_DEPTH, -(-(limit - item) // 2))


def test_resume_after_a_target_stop(monkeypatch):
    # the first call stops on the target with rounds past it already sent to
    # the worker; they are skipped or dropped, and the second call, which
    # continues at store.rounds on the same worker, computes them again
    n = 588090330819903606914786460449
    config = RunConfig(algo="sss", seed=7)
    fb, sb, pre, ctx = prepare(n, config)

    def twice():
        store, stats = collect_relations(n, config, fb, sb, pre, ctx)
        store.raise_target()
        collect_relations(n, config, fb, sb, pre, ctx, store=store, stats=stats)
        return store.fulls_csv() + store.partials_csv(), stats.counters()

    inline = twice()
    fork_at_once(monkeypatch)
    cpus(monkeypatch, 2)
    spy = Spy(monkeypatch)
    assert twice() == inline
    assert spy.forked == [1]


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
    assert forced.forked == [1]
    pids = kept_workers()
    # the worker skips what was queued past the stop, and the kept set
    # gives the next collection its pinned stream
    monkeypatch.setattr(RelationStore, "ingest", real)
    assert pinned_stream(CASES[1]) and forced.forked == [1]
    assert kept_workers() == pids


def _recorded(real, path):
    """real; in a worker, after writing fb.kn to path and a 0.2 s sleep."""

    def run(fb, *args):
        if os.getpid() != _PARENT:
            with open(path, "a") as out:
                out.write(f"{fb.kn}\n")
            time.sleep(0.2)
        return real(fb, *args)

    return run


def test_a_stop_skips_the_batches_queued_for_a_worker(forced, monkeypatch, tmp_path):
    # the collection stops at its first find, the first round's, while the
    # worker computes its second round and a later one waits in its pipe:
    # only the second is finished, and the next collection reads both
    # replies before it sends its plan
    rounds = tmp_path / "rounds"
    monkeypatch.setattr(engine, "search_round", _recorded(engine.search_round, rounds))
    config = RunConfig(algo="sss", seed=7)
    prepared = prepare(N40, config)
    with monkeypatch.context() as patch:
        patch.setattr(RelationStore, "ingest", lambda *args: _raise(FoundFactor(3)))
        with pytest.raises(FoundFactor):
            collect_relations(N40, config, *prepared)
    assert pinned_stream(CASES[0])  # another composite
    assert rounds.read_text().split().count(str(prepared[0].kn)) == 2
    assert forced.forked == [1]


def _raise(exc):
    raise exc


def pinned_stream(case) -> bool:
    """Whether a collection of the stream-lock case gives its counters and digest."""
    algo, n, rounds, digest, counters = case.values
    config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
    store, stats = collect_relations(n, config, *prepare(n, config))
    dump = store.fulls_csv() + store.partials_csv()
    return (stats.counters(), hashlib.sha256(dump.encode()).hexdigest()) == (counters, digest)


def _raise_boom(*args):
    raise ZeroDivisionError("boom in the worker")


_calls = []


def _raise_on_second(*args):
    # each worker keeps its own list: its second round raises, after the
    # parent has already queued more rounds for it
    _calls.append(args)
    if len(_calls) == 2:
        raise ZeroDivisionError("boom in a later round")
    return search.search_round(*args)


def _exit_at_once(*args):
    os._exit(3)


def _fails_in_worker(fail, real):
    """fail in a worker; here real, after a 50 ms sleep, so that the
    worker fails while this process computes a batch."""

    def run(*args):
        if os.getpid() != _PARENT:
            return fail(*args)
        time.sleep(0.05)
        return real(*args)

    return run


@pytest.mark.parametrize(
    "count, finds, error, match",
    [
        (2, _fails_in_worker(_raise_boom, search.search_round),
         ZeroDivisionError, "boom in the worker"),
        (2, _fails_in_worker(_raise_on_second, search.search_round),
         ZeroDivisionError, "boom in a later round"),
        (2, _fails_in_worker(_exit_at_once, search.search_round),
         RuntimeError, "collection worker exited with code 3"),
        (2, _raise_boom, ZeroDivisionError, "boom in the worker"),
        (1, _raise_boom, ZeroDivisionError, "boom in the worker"),
        (1, _raise_on_second, ZeroDivisionError, "boom in a later round"),
    ],
    ids=["raises", "raises-later", "dies", "raises-everywhere", "raises-one-cpu",
         "raises-later-one-cpu"],
)
def test_worker_failure_reaches_the_caller(forced, monkeypatch, count, finds, error, match):
    # the worker inherits the patched module by fork, and this process runs
    # the same patched search_round
    monkeypatch.setattr(engine, "search_round", finds)
    monkeypatch.setattr(sys.modules[__name__], "_calls", [])
    cpus(monkeypatch, count)
    config = RunConfig(algo="sss", seed=7, max_rounds=5)
    with pytest.raises(error, match=match):
        collect_relations(N40, config, *prepare(N40, config))
    assert forced.forked == ([1] if count == 2 else [])
    # no worker outlives a failed collection
    assert engine._workers is None
    assert multiprocessing.active_children() == []


def test_qs_worker_failure_reaches_the_caller(forced, monkeypatch):
    monkeypatch.setattr(qs, "run_sieve", _fails_in_worker(_raise_boom, qs.run_sieve))
    config = RunConfig(algo="qs", seed=7, max_rounds=40)
    with pytest.raises(ZeroDivisionError, match="boom in the worker"):
        collect_relations(N40, config, *prepare(N40, config))
    assert forced.forked == [1]
    assert engine._workers is None
    assert multiprocessing.active_children() == []


_armed = False  # whether a worker forked now fails (_fails_when_armed)


def _kill_self(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def _fails_when_armed(fail, real):
    """fail in a worker forked while _armed is set, else real; this
    process always runs real."""

    def run(*args):
        if _armed and os.getpid() != _PARENT:
            return fail(*args)
        return real(*args)

    return run


@pytest.mark.parametrize(
    "fail, error, match",
    [
        (_raise_boom, ZeroDivisionError, "boom in the worker"),
        (_kill_self, RuntimeError, "collection worker exited with code -9"),
    ],
    ids=["raises", "killed"],
)
def test_a_failed_set_is_replaced(forced, monkeypatch, fail, error, match):
    # the first set fails mid-collection and is torn down; the next
    # collection forks a new one, which inherits _armed unset
    monkeypatch.setattr(engine, "search_round", _fails_when_armed(fail, engine.search_round))
    monkeypatch.setattr(sys.modules[__name__], "_armed", True)
    config = RunConfig(algo="sss", seed=7, max_rounds=5)
    with pytest.raises(error, match=match):
        collect_relations(N40, config, *prepare(N40, config))
    assert engine._workers is None and multiprocessing.active_children() == []
    monkeypatch.setattr(sys.modules[__name__], "_armed", False)
    assert pinned_stream(CASES[1])
    assert forced.forked == [1, 1] and len(kept_workers()) == 1


def _no_fork(proc):
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("algo, n, rounds, digest, counters", CASES)
def test_a_fork_that_fails_leaves_the_collection_here(
    forced, monkeypatch, algo, n, rounds, digest, counters
):
    # Process.start() fails as it does under a limit on processes: the set
    # is closed with both ends of its pipe, and every round runs here
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_fork)
    engine._WorkerSet()  # its shared epoch opens multiprocessing's heap for good
    fds = open_fds()
    config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
    store, stats = collect_relations(n, config, *prepare(n, config))
    assert stats.counters() == counters
    dump = store.fulls_csv() + store.partials_csv()
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
    assert forced.forked == [1] and forced.inline == stats.rounds
    assert stats.phase_seconds["inline"] == stats.phase_seconds["collect"]
    assert engine._workers is None and multiprocessing.active_children() == []
    assert open_fds() == fds


def test_a_second_fork_that_fails_kills_the_first_worker(forced, monkeypatch):
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def start_once(proc):
        if started:
            _no_fork(proc)
        real_start(proc)
        started.append(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start_once)
    cpus(monkeypatch, 3)
    assert pinned_stream(CASES[1])
    assert forced.forked == [2] and engine._workers is None
    (first,) = started
    assert first.exitcode == -signal.SIGKILL  # killed and joined
    assert multiprocessing.active_children() == []


def test_a_worker_gone_between_collections_is_replaced(forced):
    # the next collection finds the dead worker before it sends its plan,
    # and forks a new set instead of failing
    assert pinned_stream(CASES[0])
    (pid,) = kept_workers()
    os.kill(pid, signal.SIGKILL)
    (worker,) = engine._workers.procs
    worker.join(60)  # dead, not only signalled
    assert worker.exitcode == -signal.SIGKILL
    assert pinned_stream(CASES[1])
    assert forced.forked == [1, 1] and kept_workers() != [pid]


def test_a_forked_child_collects_on_its_own_set(forced):
    # a child forked by the caller forgets the parent's set: it forks its
    # own, and the parent's worker serves the parent on
    assert pinned_stream(CASES[0])
    pids = kept_workers()
    read, write = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - the child reports through the pipe
        code = 1
        try:
            os.close(read)
            ok = engine._workers is None and pinned_stream(CASES[1])
            own = [proc.pid for proc in engine._workers.procs] if ok else []
            # the parent's worker is not the child's to stop at its exit
            ok = ok and [proc.pid for proc in multiprocessing.active_children()] == own
            os.write(write, b"%d %s" % (ok, " ".join(map(str, own)).encode()))
            engine.close_workers()
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        assert select.select([read], [], [], 120)[0], "the child did not report"
        report = os.read(read, 4096).split()  # one write, or EOF at its exit
    finally:
        os.close(read)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert report[0] == b"1" and len(report) == 2 and int(report[1]) not in pids
    assert pinned_stream(CASES[3]) and forced.forked == [1]
    assert kept_workers() == pids


def test_one_cpu_runs_inline(monkeypatch):
    fork_at_once(monkeypatch)
    cpus(monkeypatch, 1)
    spy = Spy(monkeypatch)
    config = RunConfig(algo="sss", seed=7, max_rounds=5)
    _, stats = collect_relations(N40, config, *prepare(N40, config))
    assert spy.inline == stats.rounds == 5
    assert spy.forked == []


N30 = 588090330819903606914786460449


def two_cpus(monkeypatch):
    """The fork rule as it is, on two CPUs: one worker and this process."""
    cpus(monkeypatch, 2)
    return Spy(monkeypatch)


def test_a_collection_that_runs_no_round_sends_no_plan(forced, monkeypatch):
    # a cap of 0, or a store that already holds its target, leaves the
    # kept set alone, and forks none where there is none
    config = RunConfig(algo="sss", seed=7, max_rounds=0)
    fb, sb, pre, ctx = prepare(N30, config)
    collect_relations(N30, config, fb, sb, pre, ctx)
    assert forced.forked == [] and engine._workers is None
    store, _ = collect_relations(N30, RunConfig(algo="sss", seed=7), fb, sb, pre, ctx)
    pids = kept_workers()
    plans = []
    monkeypatch.setattr(engine._WorkerSet, "begin", lambda self, plan: plans.append(plan))
    for cap in (0, None):
        _, stats = collect_relations(
            N30, RunConfig(algo="sss", seed=7, max_rounds=cap), fb, sb, pre, ctx, store=store
        )
        assert stats.rounds == 0 and stats.phase_seconds["inline"] == stats.phase_seconds["collect"]
    assert plans == [] and forced.forked == [1] and kept_workers() == pids


@pytest.mark.parametrize("seed", [2, 7])
def test_a_30_digit_run_stays_in_one_process(monkeypatch, seed):
    # below _FORK_DIGITS
    spy = two_cpus(monkeypatch)
    result = engine.factor(N30, RunConfig(algo="sss", seed=seed))
    assert result.success and spy.forked == []
    phases = result.stats.phase_seconds
    assert phases["inline"] == phases["collect"]


def test_a_kept_set_takes_a_30_digit_run_from_its_first_round(monkeypatch):
    # the fork rule keeps this run in one process, but it only decides
    # whether to fork: a set that an earlier collection forked is used
    spy = two_cpus(monkeypatch)
    real = engine._fork_pays
    monkeypatch.setattr(engine, "_fork_pays", lambda *args: True)
    assert pinned_stream(CASES[1])
    monkeypatch.setattr(engine, "_fork_pays", real)
    inline = spy.inline
    result = engine.factor(N30, RunConfig(algo="sss", seed=2))
    assert result.success and spy.forked == [1]
    assert spy.inline - inline < result.stats.rounds
    phases = result.stats.phase_seconds
    assert phases["inline"] < phases["collect"]
    assert len(kept_workers()) == 1


def test_a_set_of_another_size_is_replaced(forced, monkeypatch):
    # one worker for two CPUs, then two for three
    assert pinned_stream(CASES[0])
    (old,) = kept_workers()
    cpus(monkeypatch, 3)
    assert pinned_stream(CASES[1])
    assert forced.forked == [1, 2]
    pids = kept_workers()
    assert len(pids) == 2 and old not in pids


def test_a_40_digit_run_forks_before_round_0(monkeypatch):
    spy = two_cpus(monkeypatch)
    result = engine.factor(N40, RunConfig(algo="sss", seed=7))
    assert result.success and spy.forked == [1] and spy.inline_at_fork == [0]
    phases = result.stats.phase_seconds
    assert 0 < phases["inline"] < phases["collect"]
    assert len(kept_workers()) == 1


@pytest.mark.parametrize("algo, rounds, forked", [
    ("sss", 0, []),    # no round runs: nothing to fork for
    ("sss", 1, []),
    ("sss", 2, []),    # one round per process
    ("sss", 3, []),
    ("sss", 19, []),
    ("sss", 20, [1]),  # 10 rounds per process
    ("qs", 32, []),    # one batch of 16 intervals per process
    ("qs", 33, []),
    ("qs", 320, [1]),  # 10 batches per process
], ids=["sss-0", "sss-1", "sss-2", "sss-3", "sss-19", "sss-20", "qs-32", "qs-33", "qs-320"])
def test_a_cap_of_one_batch_per_process_stays_in_one_process(monkeypatch, algo, rounds, forked):
    spy = two_cpus(monkeypatch)
    config = RunConfig(algo=algo, seed=7, max_rounds=rounds)
    _, stats = collect_relations(N40, config, *prepare(N40, config))
    assert stats.rounds == rounds and spy.forked == forked
    assert spy.inline_at_fork == [0] * len(forked)
    assert len(multiprocessing.active_children()) == sum(forked)


def collect_beside_a_thread():
    """Five sss rounds of N40 while another thread of this process runs."""
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        config = RunConfig(algo="sss", seed=7, max_rounds=5)
        collect_relations(N40, config, *prepare(N40, config))
    finally:
        stop.set()
        waiter.join()


def test_other_threads_keep_the_rounds_inline(monkeypatch):
    # a forked child would inherit the locks another thread holds
    fork_at_once(monkeypatch)
    cpus(monkeypatch, 2)
    spy = Spy(monkeypatch)
    collect_beside_a_thread()
    assert spy.inline == 5 and spy.forked == []


def test_other_threads_leave_a_kept_set_alone(forced):
    # the rounds stay inline, and the set is neither used nor replaced
    assert pinned_stream(CASES[0])
    pids = kept_workers()
    inline = forced.inline
    collect_beside_a_thread()
    assert forced.inline - inline == 5 and forced.forked == [1]
    assert kept_workers() == pids


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
    the worker and this process both computed some of the rounds."""
    spy = two_cpus(monkeypatch)
    assert main(["relations", str(N40), "--max-rounds", str(rounds), *flags]) == 0
    assert spy.forked == [1] and 0 < spy.inline < rounds
    assert len(kept_workers()) == 1
    return len(capsys.readouterr().out.splitlines()) - 1


def test_ci_relation_count_starts_workers(monkeypatch, capsys):
    # the pinned CI count: 40 digits and a cap of 100 rounds fork the set
    # before round 0, and the worker takes a share
    assert relations_rows(monkeypatch, capsys, 100) == 530


def test_ci_qs_relation_count_starts_workers(monkeypatch, capsys):
    # the pinned CI count of qs: 400 intervals are 25 batches of 16
    assert relations_rows(monkeypatch, capsys, 400, "--algo", "qs") == 78


STRESS = textwrap.dedent(
    """
    import multiprocessing, os, random
    from semiprimes import generate_semiprime
    from sssfactor import engine
    from sssfactor.engine import RunConfig, collect_relations, prepare
    from sssfactor.numtheory import FoundFactor

    engine._fork_pays = lambda *args: True
    os.sched_getaffinity = lambda pid: {0, 1}
    rng = random.Random(12)
    pids = set()
    for i in range(100):
        n, _, _ = generate_semiprime(18, rng)
        config = RunConfig(algo="sss", seed=i, max_rounds=3)
        try:
            collect_relations(n, config, *prepare(n, config))
        except FoundFactor:
            pass
        pids.update(child.pid for child in multiprocessing.active_children())
    assert len(pids) == 1, pids  # one worker served all 100 collections
    engine.close_workers()
    assert multiprocessing.active_children() == []
    print("ok")
    """
)


def test_many_forked_collections_in_one_process():
    # a hang, a leaked child or a second fork shows as a timeout or a
    # failed assertion
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", STRESS], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


CLI = textwrap.dedent(
    """
    import os, sys
    from sssfactor import engine
    from sssfactor.cli import main

    engine._fork_pays = lambda *args: True
    os.sched_getaffinity = lambda pid: {0, 1, 2}  # the parent and two workers
    serve = engine._serve

    def announced(*args):
        with open(sys.argv[1], "a") as out:
            out.write(f"{os.getpid()}\\n")
        return serve(*args)

    engine._serve = announced
    sys.exit(main(["factor", "2025187160651667522159602188240446426637"]))
    """
)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_the_cli_leaves_no_worker_behind(tmp_path):
    # the kept set ends at exit: its workers are gone, and they print nothing
    from test_worker_signals import alive

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    pids = tmp_path / "pids"
    done = subprocess.run(
        [sys.executable, "-c", CLI, str(pids)], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "41006948406240846859\n49386439112437206343\n"
    workers = [int(line) for line in pids.read_text().split()]
    assert len(workers) == 2
    assert not [pid for pid in workers if alive(pid)]
