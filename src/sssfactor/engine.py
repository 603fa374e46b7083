"""Orchestration: validation, precomputation, scheduling and phase 2.

factor() strips trivial structure (even part, perfect powers, small prime
hits from the base scan), runs the configured relation search on each
remaining composite, solves for dependencies over GF(2) and extracts
divisors, recursing until everything left is a probable prime.

prepare() picks one Knuth-Schroeppel multiplier k per composite N, and all
three algorithms collect on f(x) = (x + ceil(sqrt(kN)))**2 - kN: the
factor base carries k, kN and ceil(sqrt(kN)), the rounds evaluate f from
it, and the relation store, the solve and the square root work mod N.  The
factor base also owns the partial bound, and the CRT tables the small
base: every layer reads each from its one owner.

collect_relations() is the one collection loop and the only code that
feeds the relation store, and _rounds is its one round source: sss, sssf
and qs differ only in the plan that it runs (_round_plan), what an item of
a round is and how many go to a worker at once.  Every round is a
search.Round value, and the loop ingests its finds in round order.

A round is independent of the others once its item is fixed: a search
round's drawn indices, or a qs interval number.  Every round is computed
by one function of its item, run(item) = _runner(plan)(item):
search.search_round for sss and sssf, qs.run_sieve for qs, in batches: one
round for sss and sssf, one sieve block per side (2 * qs.BLOCK_INTERVALS
intervals) for qs.  The plan, (algo, fb, pre, ctx), is picklable, and
every process builds its run from it.

A process keeps one set of forked workers, one per other CPU, for its
whole life.  One call decides where a collection's rounds run, before its
round source starts (_worker_set): the first collection whose input is
large enough, and whose round cap leaves enough rounds, forks the set
(_fork_pays); every later collection, of any composite and any algorithm,
sends each worker its plan and hands it batches from its first batch on.
A fork that fails leaves the collection in this process.  The calling
process computes the batches that it draws while the oldest one waits
for a worker's reply.  When a collection ends, the batches
still queued for a worker are skipped, and the set waits for the next
plan; an error, a worker that exits or an interrupt kills it, and
close_workers(), which atexit calls, ends it.  This process draws every
round's search indices in round order from the one rng, and the rounds
come out in round order, so the relation stream does not depend on the
number of CPUs or on which process computed a round.
"""

import atexit
import collections
import contextlib
import itertools
import os
import pickle
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

from . import qs as qs_mod
from .crt import precompute
from .factorbase import build_factor_bases, choose_multiplier, table_sizes
from .numtheory import FoundFactor, is_perfect_power, is_probable_prime
from .relations import (
    RelationStore,
    assemble_square,
    extract_factor,
    solve_dependencies,
)
from .search import SUBSUM_SIZE, pick_indices, scan_buffers, search_round
from .smoothness import FILTER_SPLIT_RATIO, build_context

__all__ = [
    "RunConfig",
    "RunStats",
    "FactorResult",
    "RelationShortfall",
    "factor",
    "collect_relations",
    "close_workers",
    "prepare",
]

ALGORITHMS = ("sss", "sssf", "qs")

# digit count from which the filtered variant is picked automatically: the
# lowest row of a factor() ladder over 45-60 digits (3 composites a row,
# both variants interleaved and repeated) on which sssf won every composite
# (README, "Batch smoothness")
_AUTO_FILTER_DIGITS = 45


@dataclass(frozen=True)
class RunConfig:
    """What a caller chooses for one factorization run.

    Every search parameter comes from the input, as in the paper: the
    factor-base sizes m and n from the digit-count table
    (factorbase.table_sizes, per composite and cofactor), the subsum size k
    from the variant (search.SUBSUM_SIZE), the filter's split ratio from
    smoothness.FILTER_SPLIT_RATIO and its cutoff from the factor base
    (fb.p_max**2, see search.search_round), and the relation policy from
    search.COLLISION_THRESHOLD,
    factorbase.PARTIAL_MULTIPLIER (which sets FactorBase.partial_bound) and
    relations.SLACK.
    """

    algo: str | None = None          # sss | sssf | qs; None picks by size
    use_partials: bool = True
    seed: int = 0
    max_rounds: int | None = None    # None: no cap; 0 asks for no collection

    def __post_init__(self):
        if self.algo is not None and self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.max_rounds is not None:
            if isinstance(self.max_rounds, bool) or not isinstance(self.max_rounds, int):
                raise ValueError(f"max_rounds must be an integer, got {self.max_rounds!r}")
            if self.max_rounds < 0:
                raise ValueError(f"max_rounds must be at least 0, got {self.max_rounds}")

    def algo_for(self, n: int) -> str:
        if self.algo is not None:
            return self.algo
        return "sssf" if len(str(n)) >= _AUTO_FILTER_DIGITS else "sss"


@dataclass
class RunStats:
    rounds: int = 0            # search rounds (or sieved intervals for qs)
    candidates: int = 0
    filtered: int = 0          # candidates dropped by the two-pass filter
    fulls: int = 0             # native full relations stored
    partials: int = 0          # partial relations emitted by the search
    combined: int = 0          # fulls obtained by combining partials
    # wall seconds per phase: precompute, collect and linalg; search is the
    # rounds' own time within collect, summed over the processes that ran
    # them, so with workers it can exceed collect; inline is the part of
    # collect before the workers took batches (the fork for a new set, about
    # 0 for a kept one, all of it when no worker took any), and wait the
    # part that this process spent blocked on a worker's reply
    phase_seconds: dict = field(default_factory=dict)

    def add_time(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def counters(self) -> dict:
        """The deterministic part (everything except wall times)."""
        return {
            "rounds": self.rounds,
            "candidates": self.candidates,
            "filtered": self.filtered,
            "fulls": self.fulls,
            "partials": self.partials,
            "combined": self.combined,
        }


@dataclass
class FactorResult:
    n: int
    factors: list            # [(prime, multiplicity)], ascending
    stats: RunStats
    residue: int = 1         # unfactored composite part, 1 on full success
    shortfalls: list = field(default_factory=list)  # one message per starved composite

    @property
    def success(self) -> bool:
        return self.residue == 1

    def check(self) -> bool:
        prod = self.residue
        for p, e in self.factors:
            prod *= p ** e
        return prod == self.n

    def as_dict(self) -> dict:
        return {
            "n": str(self.n),
            "factors": [[str(p), e] for p, e in self.factors],
            "residue": str(self.residue),
            "shortfalls": list(self.shortfalls),
            "success": self.success,
            "stats": {
                **self.stats.counters(),
                "phase_seconds": dict(self.stats.phase_seconds),
            },
        }


class RelationShortfall(RuntimeError):
    """A composite left unfactored: relation collection starved (round cap
    hit before the target, or as many rounds as the target emitted no
    relation at all), or the linear algebra gave only trivial dependencies.

    stats holds the counters of this composite's collection, and the
    message names the layer that failed: no round ran, the search or sieve
    made no candidates, the sssf filter dropped all of them, no candidate
    was smooth (no full or partial relation), the fulls plus combined
    partials fell short of the target, or, when `trivial` = (dependencies,
    rows, cycles) is given, every dependency tried gave a trivial gcd.  It
    says when the round cap (`capped`) ended collection, and names a
    multiplier other than 1.
    """

    def __init__(
        self,
        n: int,
        stats: RunStats,
        target: int | None = None,
        *,
        trivial: tuple[int, int, int] | None = None,
        multiplier: int = 1,
        capped: bool = False,
    ):
        outcome = "starved"
        if trivial is not None:
            deps, rows, cycles = trivial
            outcome = "failed"
            layer = (
                f"linear algebra gave a trivial gcd for all {deps} dependencies "
                f"of {rows} relations in {cycles} solve cycles"
            )
        elif not stats.rounds:
            layer = "no round ran"
        elif not stats.candidates:
            layer = "no candidates"
        elif stats.filtered == stats.candidates:
            layer = f"the filter dropped all {stats.candidates} candidates"
        elif not stats.fulls + stats.partials:
            layer = f"no smooth candidates among {stats.candidates}"
        else:
            goal = "" if target is None else f" of {target}"
            layer = (
                f"{stats.fulls} fulls + {stats.combined} combined relations{goal} "
                f"({stats.partials} partials)"
            )
        cap = " (the round cap)" if capped else ""
        of_kn = "" if multiplier == 1 else f" of kN with k = {multiplier}"
        super().__init__(
            f"{outcome} factoring {n} after {stats.rounds} rounds{cap}{of_kn}: {layer}"
        )
        self.n = n
        self.stats = stats


def prepare(n: int, config: RunConfig):
    """Precomputation for one composite: (fb, sb, pre, ctx), the factor
    base of kN with its Knuth-Schroeppel multiplier k, the small base (the
    tuple of primes that pre also holds), the CRT tables and the
    smoothness context (with a partition when the filtered variant runs).
    The sizes come from the digit-count table, for the digits of n.

    Raises FoundFactor if the base scan already hits a divisor.
    """
    fb, sb = build_factor_bases(n, *table_sizes(len(str(n))), choose_multiplier(n))
    pre = precompute(sb, fb.roots)
    filtered = config.algo_for(n) == "sssf"
    ctx = build_context(fb.primes, split_ratio=FILTER_SPLIT_RATIO if filtered else None)
    return fb, sb, pre, ctx


def collect_relations(
    n: int,
    config: RunConfig,
    fb,
    sb,
    pre,
    ctx,
    *,
    store: RelationStore | None = None,
    stats: RunStats | None = None,
) -> tuple[RelationStore, RunStats]:
    """Run rounds (search rounds, or sieved intervals for qs) until the
    store holds enough relations.  n is the number being factored, and the
    rounds evaluate the factor base's f, on fb.kn.  fb, sb, pre and ctx are
    what prepare() returns; the rounds read the small base from pre, so sb
    is not read.  A base built for another number, a pre or ctx built from
    another base, a ctx whose partition does not match the algorithm (sss or
    sssf) or a store of another base raises ValueError before any round.

    Stops on the relation target or after config.max_rounds rounds of this
    call, so where the relation stream ends never depends on the host's
    speed.  Rounds are numbered from store.rounds, so a later call on the
    same store continues the relation stream, a deterministic function of
    the seed.  A call that runs a round asks once, before its first
    round, where its rounds run (_worker_set).  When this process keeps a
    worker set of one worker per other CPU, the workers compute rounds
    beside this one from the first batch on.  Without one, the call forks
    the set when n has at least _FORK_DIGITS digits and config.max_rounds
    leaves at least _FORK_BATCHES batches per process (_fork_pays); later
    collections keep using it.  A fork that fails with an OSError leaves
    the call in this process.  The stream stays the same either way.  The
    time spent is added to the "collect" phase of stats, the part of it
    until the set was ready (all of it without a set) to its "inline"
    phase, the rounds' own times, summed over the processes that ran them,
    to its "search" phase, and the time spent blocked on a worker to its
    "wait" phase.  May raise FoundFactor when a divisor appears along the
    way.

    The workers outlive the call when it stops on the target or the cap,
    or raises FoundFactor or RelationShortfall: the batches still queued
    for them are skipped.  Any other exception, such as a worker's error
    or exit or a KeyboardInterrupt, kills them (close_workers).

    Raises RelationShortfall, with the counters of this call, once the
    store has run store.target rounds and none of them emitted a full or a
    partial relation: a search that finds nothing, or a filter that drops
    every candidate, would otherwise never end.
    """
    if store is None:
        store = RelationStore(n, fb, use_partials=config.use_partials)
    if stats is None:
        stats = RunStats()
    algo = config.algo_for(n)
    if ctx.primes != fb.primes:
        raise ValueError("the smoothness context was built for another factor base")
    if pre.primes != fb.paired[: len(pre.primes)]:
        raise ValueError("the CRT tables were built for another factor base")
    if store.fb is not fb:
        raise ValueError("the relation store was built on another factor base")
    if algo != "qs" and (algo == "sssf") != (ctx.part_small is not None):
        raise ValueError(f"the smoothness context does not match {algo}: only sssf's is split")
    if algo != "qs" and not fb.large_primes(len(pre.primes)):
        raise ValueError(
            "small base covers the whole factor base; no collision primes left"
        )

    before = stats.counters()
    native0, combined0 = store.native_count, store.combined_count
    round_cap = None if config.max_rounds is None else store.rounds + config.max_rounds
    # whether a round of this store has emitted a full or partial relation
    emitted = bool(store.fulls or store.partials)
    stats.add_time("wait", 0.0)  # present when no worker was waited for
    kept = None

    t0 = time.perf_counter()
    try:
        plan, items, batch = _round_plan(algo, n, config.seed, fb, pre, ctx, store.rounds)
        # only a collection whose loop below runs a round asks for a set
        if config.max_rounds != 0 and not store.have_enough() and (
            emitted or store.rounds < store.target
        ):
            kept = _worker_set(plan, n, config.max_rounds, batch)
            ready = time.perf_counter()
        rounds = _rounds(plan, items, batch, config.max_rounds, stats, kept)
        with contextlib.closing(rounds):
            while not store.have_enough() and (round_cap is None or store.rounds < round_cap):
                if not emitted and store.rounds >= store.target:
                    # nothing was ingested, so fulls and combined need no update first
                    raise RelationShortfall(
                        n, _since(before, stats), store.target, multiplier=fb.multiplier
                    )
                found = next(rounds)
                emitted = emitted or bool(found.finds)
                for x_bar, g in found.finds:
                    store.ingest(x_bar, g)
                store.rounds += 1
                stats.rounds += 1
                stats.candidates += found.candidates
                stats.filtered += found.filtered
                stats.partials += found.partials
                stats.add_time("search", found.seconds)
    except (FoundFactor, RelationShortfall):
        raise
    except BaseException:
        if kept is not None:
            # the set may be mid-message, or a worker gone: fork anew next time
            close_workers()
        raise
    finally:
        stats.fulls += store.native_count - native0
        stats.combined += store.combined_count - combined0
        end = time.perf_counter()
        stats.add_time("collect", end - t0)
        stats.add_time("inline", (end if kept is None else ready) - t0)
    return store, stats


def _since(before: dict, stats: RunStats) -> RunStats:
    """The counters that stats gained since it read before."""
    return RunStats(**{key: value - before[key] for key, value in stats.counters().items()})


# digit count from which a collection forks the worker set: the lowest row
# of a fresh-process factor() ladder over 25-40 digits (3 composites a row,
# 3 runs each) on which a fork before round 0 won every composite for both
# sss and qs (README, "Parallel collection")
_FORK_DIGITS = 33
# batches per process that a round cap must leave for a fork to pay: the
# lowest cap of a fresh-process ladder of capped collections (sss at 35 and
# 40 digits, sssf at 50, caps of 3, 5, 10 and 20 rounds on two CPUs) at
# which a fork no longer lost on any row: it won every composite at 40 and
# 50 digits and broke even at 35 (README, "Parallel collection")
_FORK_BATCHES = 10
# batches that a worker owes, at most: the most each one has queued past a stop
_QUEUE_DEPTH = 2


def _round_plan(algo, n, seed, fb, pre, ctx, first):
    """What the round source needs for rounds from round number first on:
    (plan, items, batch).

    plan = (algo, fb, pre, ctx) is what _runner builds run from, in this
    process and in every worker that it is sent to.  items yields the item
    of every round in round order, and run(item) computes the round's Round
    in any process.  batch is the number of consecutive items a worker gets
    per message.

    qs: an item is an interval number, and a batch is 2 * BLOCK_INTERVALS
    intervals, one sieve block per side, so a worker sieves no block that
    it uses only in part.  sss/sssf: an item is a round's index list, the
    round's only random draw (pick_indices), drawn here from one rng per
    composite n fast-forwarded past rounds 0 to first - 1; a batch is one
    round.
    """
    plan = (algo, fb, pre, ctx)
    if algo == "qs":
        return plan, itertools.count(first), 2 * qs_mod.BLOCK_INTERVALS
    small = len(pre.primes)
    k = min(SUBSUM_SIZE[algo], small)
    rng = random.Random(f"{seed}:{n}:0")  # one stream per composite
    for _ in range(first):
        pick_indices(k, small, rng)
    return plan, iter(lambda: pick_indices(k, small, rng), None), 1


def _runner(plan):
    """run(item) for the rounds of plan (see _round_plan): one qs.Sieve,
    or one set of search.scan_buffers, for all the rounds that it computes
    in one process.  run calls search_round or qs.run_sieve as looked up at
    call time, where tracing wraps them."""
    algo, fb, pre, ctx = plan
    if algo == "qs":
        sieve = qs_mod.Sieve(fb)
        return lambda index: qs_mod.run_sieve(sieve, ctx, index)
    small = len(pre.primes)
    buffers = scan_buffers(min(SUBSUM_SIZE[algo], small), fb.large_arrays(small)[0])
    return lambda indices: search_round(fb, pre, ctx, indices, buffers)


def _fork_pays(n, limit, batch, processes):
    """Whether a collection of n, capped at `limit` rounds (None: no cap)
    in batches of `batch`, pays for forking a worker set that computes
    rounds in `processes` processes, this one included; a kept set is used
    without asking.  It pays from _FORK_DIGITS digits on, when the cap
    leaves at least _FORK_BATCHES batches per process."""
    return len(str(n)) >= _FORK_DIGITS and (
        limit is None or limit >= _FORK_BATCHES * batch * processes
    )


def _worker_set(plan, n, limit, batch):
    """The worker set that takes the batches of a collection of n, capped
    at `limit` rounds in batches of `batch`, with plan already sent to it;
    or None, and every batch is computed in this process.

    The kept set is used when it has one worker per other CPU, else a new
    one is forked when _fork_pays says so.  None on one CPU, beside another
    thread or in a daemonic process (_worker_count), which leaves a kept
    set alone, and when the fork fails with an OSError (EAGAIN under a
    limit on processes, ENOMEM), which closes the set.
    """
    count = _worker_count() - 1
    if not count:
        return None
    kept = _workers if _workers is not None and len(_workers.procs) == count else None
    if kept is None or not kept.begin(plan):
        if not _fork_pays(n, limit, batch, count + 1):
            return None
        try:
            kept = _start_workers(count)
        except OSError:
            close_workers()
            return None
        if not kept.begin(plan):
            return None
    return kept


def _rounds(plan, items, batch, limit, stats, kept):
    """run(item) for each item, in round order, with run = _runner(plan).
    limit, when not None, is the most rounds the caller takes, and no round
    past it is run.

    The items go out in batches of `batch` consecutive items, and one
    process computes a whole batch with its own run.  kept is the worker
    set that takes batches, with plan already sent to it (_worker_set), or
    None, and then every batch is computed here.
    Each worker is kept _QUEUE_DEPTH batches ahead, and its replies are
    taken as they arrive, so that it gets its next batch at once; near the
    limit a worker owes at most its share of the batches left (split
    evenly over the workers and this process), so that a capped collection
    does not end waiting on a worker's queued tail.  While the oldest batch
    waits for a worker's reply, this process draws the next batch and
    computes it itself; it blocks on a worker only when no batch is left to
    draw, and adds that time to the "wait" phase of stats.
    The rounds come out in round order whichever process computed them, so
    the relation stream, the counters and the answer are the same on any
    host.

    When the generator closes or raises, the set skips the batches still
    queued for it (_WorkerSet.end); the batches computed past the
    consumer's stop are dropped.  A worker's exception is raised here with
    its type, chained to the worker's traceback, and a worker that exits
    raises RuntimeError, both as soon as the reply is polled, and either
    closes the set.
    """
    left = limit  # items not drawn yet under the cap; None: no cap

    def draw():
        # the next batch, or None when no item is left
        nonlocal left
        chunk = list(itertools.islice(items, batch if left is None else min(batch, left)))
        if left is not None:
            left -= len(chunk)
        return chunk or None

    def depth():
        # batches a worker may owe: near the cap, no more than its share of
        # the batches left, rounded up, so that the last ones are not queued
        # behind a worker's tail while this process has nothing to compute
        if left is None:
            return _QUEUE_DEPTH
        return min(_QUEUE_DEPTH, -(-left // (batch * (len(kept.conns) + 1))))

    # the Rounds of each batch drawn and not yet yielded, in round order; a
    # worker's list stays empty until its reply is in (a batch is never empty)
    queue = collections.deque()
    try:
        # after the plan went out: the workers build theirs meanwhile
        run = _runner(plan)
        while True:
            if kept is not None:
                for j, conn in enumerate(kept.conns):
                    owed = kept.owed[j]
                    while owed and conn.poll():
                        owed.popleft().extend(kept.receive(j))
                    while len(owed) < depth() and (chunk := draw()):
                        # a worker that has stopped shows when it is polled
                        with contextlib.suppress(OSError):
                            conn.send(chunk)
                        owed.append([])
                        queue.append(owed[-1])
            if queue and queue[0]:
                yield from queue.popleft()
            elif (chunk := draw()) is not None:
                if queue:
                    queue.append(list(map(run, chunk)))
                else:
                    yield from map(run, chunk)  # nothing waits ahead of it
            elif queue:
                # nothing left to draw: wait for a worker's reply
                from multiprocessing.connection import wait

                t0 = time.perf_counter()
                wait([conn for conn, owed in zip(kept.conns, kept.owed) if owed])
                stats.add_time("wait", time.perf_counter() - t0)
            else:
                return
    finally:
        if kept is not None:
            kept.end()


def _worker_count() -> int:
    """The CPUs this process may run on, or 1 where it must not fork: no
    fork() on the platform, another thread running (a forked child keeps
    every lock that thread held), or a daemonic multiprocessing process
    (which may not start children)."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    return cpus if "fork" in multiprocessing.get_all_start_methods() else 1


class _WorkerSet:
    """The forked workers of this process (_start_workers), each with one
    Pipe, and the state that collections share with them.

    A collection sends each worker its plan (begin) and then batches of
    items; owed[j] holds a list for each batch that worker j owes, filled
    when its reply is read.  epoch, in memory shared with the workers,
    counts the collections that have ended: a worker skips a batch whose
    collection has ended, so when one ends (end) only the batch in progress
    is still computed, and the next begin reads the replies left.  No pool:
    a pool's helper threads make fork() unsafe.
    """

    def __init__(self):
        import multiprocessing

        self.context = multiprocessing.get_context("fork")
        self.epoch = self.context.RawValue("Q", 0)
        self.procs, self.conns, self.owed = [], [], []

    def begin(self, plan) -> bool:
        """Send each worker plan, after reading the replies that the last
        collection left; False, with the set closed, when a worker failed
        or exited since.  Once those are read, a worker has nothing to say:
        a pipe that is still readable is at EOF."""
        try:
            failed = any(
                isinstance(self.conns[j].recv(), _WorkerError)
                for j, owed in enumerate(self.owed)
                for _ in owed
            ) or any(conn.poll() for conn in self.conns)
        except (EOFError, OSError):
            failed = True
        if failed:
            close_workers()
            return False
        message = pickle.dumps((self.epoch.value, plan), pickle.HIGHEST_PROTOCOL)
        for conn, owed in zip(self.conns, self.owed):
            owed.clear()
            # a worker that has stopped shows when it is polled
            with contextlib.suppress(OSError):
                conn.send_bytes(message)
        return True

    def end(self) -> None:
        """End the collection: the workers skip the batches still queued."""
        self.epoch.value += 1

    def receive(self, j):
        """The Rounds of the oldest batch that worker j owes; its exception,
        or RuntimeError if it has exited, either after closing the set."""
        try:
            reply = self.conns[j].recv()
        except (EOFError, OSError):
            self.procs[j].join()
            code = self.procs[j].exitcode
            close_workers()
            raise RuntimeError(f"collection worker exited with code {code}") from None
        if isinstance(reply, _WorkerError):
            close_workers()
            raise reply.exc from RuntimeError(f"in the collection worker:\n{reply.trace}")
        return reply

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()


# this process's worker set, or None
_workers = None


def _start_workers(count) -> _WorkerSet:
    """Fork a set of `count` workers (_serve) in place of the kept one.

    The set is kept before the forks, so that each child, this set's
    workers included, closes its copies of the parent's pipe ends
    (_forget_workers): a parent killed by a signal then closes them all,
    and every worker reads EOF.  A fork that fails raises its OSError with
    the set kept as far as it got, to be closed (close_workers); the
    child's end of its pipe is closed either way.
    """
    global _workers
    close_workers()
    _workers = workers = _WorkerSet()
    for _ in range(count):
        conn, child = workers.context.Pipe()
        workers.conns.append(conn)
        try:
            proc = workers.context.Process(target=_serve, args=(child, workers.epoch), daemon=True)
            proc.start()
        finally:
            child.close()
        workers.procs.append(proc)
        workers.owed.append(collections.deque())
    return workers


def close_workers() -> None:
    """Kill and join this process's collection workers, if it has any.

    A later collection that forks starts a new set.  atexit calls
    this, and a program that is done factoring may call it to free the
    workers' memory earlier.
    """
    global _workers
    workers, _workers = _workers, None
    if workers is not None:
        workers.close()


def _forget_workers():
    """In a forked child: drop the parent's set, closing the child's copies
    of its pipe ends, so that the child may fork a set of its own and the
    parent's workers read EOF once the parent dies.

    multiprocessing's registry of children forgets the parent's workers
    too: at a normal exit of the child it would terminate them, as if they
    were the child's own, and then fail to join them."""
    global _workers
    if _workers is not None:
        import multiprocessing.process

        multiprocessing.process._children.difference_update(_workers.procs)
        for conn in _workers.conns:
            conn.close()
        _workers = None


atexit.register(close_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


class _WorkerError(NamedTuple):
    exc: BaseException
    trace: str


def _serve(conn, epoch):
    """A worker: for each plan that arrives, run = _runner(plan), and for
    each batch of items after it the list of run(item), or None once the
    collection that sent the batch has ended (epoch moved past the plan's).

    An exception goes back as a _WorkerError, and the worker then waits to
    be killed: a pipe closed with batches still unread in it can reset the
    parent's end before the error is read.  EOF or a reset or broken pipe
    means that the parent has closed its end or died, and the worker exits.
    SIGINT is ignored: the parent handles an interrupt and kills the set.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    run = current = None
    try:
        while True:
            message = conn.recv()
            if isinstance(message, tuple):
                current, plan = message
                run = _runner(plan)
            elif epoch.value == current:
                conn.send([run(item) for item in message])
            else:
                conn.send(None)
    except (EOFError, ConnectionResetError, BrokenPipeError):
        return
    except Exception as exc:
        with contextlib.suppress(OSError):
            conn.send(_WorkerError(exc, traceback.format_exc()))
    with contextlib.suppress(EOFError, OSError):
        while True:
            conn.recv()


_MAX_SOLVE_CYCLES = 12


def _find_divisor(n: int, config: RunConfig, stats: RunStats) -> int:
    """One composite: build bases, collect relations, solve, extract."""
    t0 = time.perf_counter()
    try:
        fb, sb, pre, ctx = prepare(n, config)
    except FoundFactor as exc:
        return exc.divisor
    finally:
        stats.add_time("precompute", time.perf_counter() - t0)

    store = None  # the first cycle builds it, later cycles continue it
    before = stats.counters()  # stats also counts earlier composites

    def shortfall(**reason):
        return RelationShortfall(
            n, _since(before, stats), store.target, multiplier=fb.multiplier, **reason
        )

    tried = 0  # dependencies of earlier cycles, a prefix of this cycle's
    for _ in range(_MAX_SOLVE_CYCLES):
        try:
            store, _ = collect_relations(
                n, config, fb, sb, pre, ctx, store=store, stats=stats
            )
        except FoundFactor as exc:
            return exc.divisor
        if not store.have_enough():
            # collect_relations returns short of the target only at the cap
            raise shortfall(capped=True)

        t0 = time.perf_counter()
        try:
            # the first target rows in stream order: the elimination takes
            # rows one at a time, so it finds their dependencies first anyway
            rels = list(store.fulls.values())[: store.target]
            # store.fulls only grows, so an earlier cycle's rows lead this
            # one's, and so do their dependencies: skip those, all trivial
            deps = solve_dependencies(rels)
            for subset in deps[tried:]:
                big_x, big_y = assemble_square(subset, rels, fb.primes, n)
                divisor = extract_factor(big_x, big_y, n)
                if divisor is not None:
                    return divisor
            tried = len(deps)
        finally:
            stats.add_time("linalg", time.perf_counter() - t0)
        # every dependency collapsed to a trivial gcd: collect a bit more
        store.raise_target()
    raise shortfall(trivial=(tried, len(rels), _MAX_SOLVE_CYCLES))


def factor(n: int, config: RunConfig | None = None) -> FactorResult:
    """Full factorization of n into probable primes.

    Trivial structure is stripped first (evenness, perfect powers, small
    primes via the base scan); the configured search handles what is left
    and recurses on composite cofactors with sizes re-derived per cofactor.
    A starved search leaves its composite in `residue` instead of failing,
    and its RelationShortfall message in `shortfalls`.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    config = config or RunConfig()
    stats = RunStats()
    found: dict[int, int] = {}
    residue = 1
    shortfalls = []
    queue: list[tuple[int, int]] = [(n, 1)]
    while queue:
        value, mult = queue.pop()
        if value == 1:
            continue
        if is_probable_prime(value):
            found[value] = found.get(value, 0) + mult
            continue
        if value % 2 == 0:
            twos = 0
            while value % 2 == 0:
                twos += 1
                value //= 2
            found[2] = found.get(2, 0) + twos * mult
            queue.append((value, mult))
            continue
        power = is_perfect_power(value)
        if power is not None:
            base, exp = power
            queue.append((base, exp * mult))
            continue
        try:
            divisor = _find_divisor(value, config, stats)
        except RelationShortfall as exc:
            residue *= value ** mult
            shortfalls.append(str(exc))
            continue
        queue.append((divisor, mult))
        queue.append((value // divisor, mult))

    factors = sorted(found.items())
    result = FactorResult(n, factors, stats, residue, shortfalls)
    if not result.check():
        raise AssertionError("factorization does not multiply back to n")
    return result
