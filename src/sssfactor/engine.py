"""Orchestration: validation, precomputation, scheduling and phase 2.

factor() strips trivial structure (even part, perfect powers, small prime
hits from the base scan), runs the configured relation search on each
remaining composite, solves for dependencies over GF(2) and extracts
divisors, recursing until everything left is a probable prime.
collect_relations() is the one collection loop: sss, sssf and qs differ
only in what one round is.

A search round is independent of the others once its indices are drawn,
so after a short start in the calling process the sss and sssf rounds run
on one forked worker per CPU (_forked_rounds).  This process keeps drawing
the indices in round order from the one rng and ingests the finds in round
order, so the relation stream does not depend on the number of workers.
qs intervals share the sieve's block state and run in the calling process.
"""

import contextlib
import itertools
import os
import random
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

from . import qs as qs_mod
from .crt import precompute
from .factorbase import build_factor_bases, table_sizes
from .numtheory import FoundFactor, is_perfect_power, is_probable_prime
from .relations import (
    RelationStore,
    assemble_square,
    extract_factor,
    solve_dependencies,
)
from .search import SUBSUM_SIZE, RoundStats, pick_indices, round_finds, search_round
from .smoothness import FILTER_SPLIT_RATIO, build_context

__all__ = [
    "RunConfig",
    "RunStats",
    "FactorResult",
    "RelationShortfall",
    "factor",
    "collect_relations",
    "prepare",
]

ALGORITHMS = ("sss", "sssf", "qs")

# digit count from which the filtered variant is picked automatically
_AUTO_FILTER_DIGITS = 75


@dataclass(frozen=True)
class RunConfig:
    """What a caller chooses for one factorization run.

    Every search parameter comes from the input, as in the paper: the
    factor-base sizes m and n from the digit-count table
    (factorbase.table_sizes, per composite and cofactor), the subsum size k
    from the variant (search.SUBSUM_SIZE), the filter's split ratio and
    cutoff offset from smoothness.FILTER_SPLIT_RATIO and FILTER_DELTA, and
    the relation policy from search.COLLISION_THRESHOLD,
    relations.PARTIAL_MULTIPLIER and relations.SLACK.
    """

    algo: str | None = None          # sss | sssf | qs; None picks by size
    use_partials: bool = True
    seed: int = 0
    max_rounds: int | None = None    # None: no cap; 0 asks for no collection

    def __post_init__(self):
        if self.algo is not None and self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.max_rounds is not None and self.max_rounds < 0:
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
    # them, so with workers it can exceed collect
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
    """Relation collection starved (round cap hit before the target).

    stats holds the counters of this composite's collection, and the
    message names the layer that starved: the search or sieve made no
    candidates, no candidate was smooth (no full or partial relation), or
    the fulls plus combined partials fell short of the target.
    """

    def __init__(self, n: int, stats: RunStats, target: int | None = None):
        if not stats.candidates:
            layer = "no candidates"
        elif not stats.fulls + stats.partials:
            layer = f"no smooth candidates among {stats.candidates}"
        else:
            goal = "" if target is None else f" of {target}"
            layer = (
                f"{stats.fulls} fulls + {stats.combined} combined relations{goal} "
                f"({stats.partials} partials)"
            )
        super().__init__(f"starved factoring {n} after {stats.rounds} rounds: {layer}")
        self.n = n
        self.stats = stats


def prepare(n: int, config: RunConfig):
    """Precomputation for one composite: factor bases, CRT tables and the
    smoothness context (with a partition when the filtered variant runs).
    The sizes come from the digit-count table.

    Raises FoundFactor if the base scan already hits a divisor.
    """
    fb, sb = build_factor_bases(n, *table_sizes(len(str(n))))
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
    store holds enough relations.

    Stops on the relation target or after config.max_rounds rounds of this
    call, so where the relation stream ends never depends on the host's
    speed.  Rounds are numbered from store.rounds, so a later call on the
    same store continues the relation stream, a deterministic function of
    the seed.  sss and sssf rounds move to worker processes once the call
    has run for _INLINE_SECONDS (see _search); the stream stays the same.
    The time spent is added to the "collect" phase of stats, and the rounds'
    own times, summed over the processes that ran them, to its "search"
    phase.  May raise FoundFactor when a divisor appears along the way.
    """
    if store is None:
        store = RelationStore(n, fb, use_partials=config.use_partials)
    if stats is None:
        stats = RunStats()
    algo = config.algo_for(n)
    if algo != "qs" and not fb.large_primes(sb.n):
        raise ValueError(
            "small base covers the whole factor base; no collision primes left"
        )

    native0, combined0 = store.native_count, store.combined_count
    round_cap = None if config.max_rounds is None else store.rounds + config.max_rounds

    def more() -> bool:
        return not store.have_enough() and (round_cap is None or store.rounds < round_cap)

    def account(result: RoundStats) -> None:
        store.rounds += 1
        stats.rounds += 1
        stats.candidates += result.candidates
        stats.filtered += result.filtered
        stats.partials += result.partials
        stats.add_time("search", result.seconds)

    t0 = time.perf_counter()
    try:
        if algo == "qs":
            sieve = qs_mod.Sieve(n, fb, store.partial_bound)
            while more():
                account(qs_mod.run_sieve(sieve, ctx, store, store.rounds))
        else:
            k = min(SUBSUM_SIZE[algo], sb.n)
            _search(n, config.seed, k, fb, sb, pre, ctx, store, round_cap, more, account)
    finally:
        stats.fulls += store.native_count - native0
        stats.combined += store.combined_count - combined0
        stats.add_time("collect", time.perf_counter() - t0)
    return store, stats


# collection time after which sss/sssf rounds go to worker processes: a fork
# costs about 10 ms, so short collections stay in the calling process
_INLINE_SECONDS = 0.05
# rounds sent to a worker and not yet ingested, at most
_QUEUE_DEPTH = 2


def _search(n, seed, k, fb, sb, pre, ctx, store, round_cap, more, account):
    """sss/sssf rounds until more() turns false.

    The only random draw of a round is its indices (pick_indices), all from
    one rng per composite, fast-forwarded past the store's earlier rounds.
    Rounds run here through search_round for the first _INLINE_SECONDS;
    after that, on a host with two or more CPUs, _forked_rounds runs them on
    one worker per CPU while this process still draws every round's indices
    in round order and ingests the finds in round order.  The relation
    stream, the counters and the answer are therefore the same on any host.
    """
    rng = random.Random(f"{seed}:{n}:0")  # one stream per composite
    for _ in range(store.rounds):
        pick_indices(k, sb.n, rng)  # the only draws a round makes
    start = time.perf_counter()
    while more() and time.perf_counter() - start < _INLINE_SECONDS:
        account(search_round(n, fb, sb, pre, ctx, k, rng, store))
    workers = _worker_count() if more() else 1
    if workers < 2:
        while more():
            account(search_round(n, fb, sb, pre, ctx, k, rng, store))
        return
    ahead = itertools.count() if round_cap is None else range(round_cap - store.rounds)
    draws = (pick_indices(k, sb.n, rng) for _ in ahead)
    rounds = _forked_rounds(workers, draws, n, fb, sb, pre, ctx, store.partial_bound)
    with contextlib.closing(rounds):
        for finds, result in rounds:
            for x_bar, g in finds:
                store.ingest(x_bar, g)
            account(result)
            if not more():
                break


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


def _forked_rounds(workers, draws, n, fb, sb, pre, ctx, partial_bound):
    """(finds, RoundStats) of round_finds for each index list from draws,
    in order, computed by `workers` forked processes.

    The workers inherit the composite, its bases, CRT tables and smoothness
    context by fork; over each worker's Pipe only index lists go out and
    only finds and counts come back.  Round i goes to worker i mod workers,
    at most _QUEUE_DEPTH rounds ahead per worker, so the consumer drops at
    most that many computed rounds when it stops.  Closing the generator
    kills and joins every worker.  A worker's exception is raised here with
    its type, chained to the worker's traceback.  No pool: a pool's helper
    threads make fork() unsafe.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child = context.Pipe()
            proc = context.Process(
                target=_serve_rounds,
                args=(child, n, fb, sb, pre, ctx, partial_bound),
                daemon=True,
            )
            proc.start()
            child.close()
            procs.append(proc)
            conns.append(conn)
        sent = received = 0
        while True:
            for indices in itertools.islice(draws, received + _QUEUE_DEPTH * workers - sent):
                # a worker that has stopped shows when its reply is due
                with contextlib.suppress(OSError):
                    conns[sent % workers].send(indices)
                sent += 1
            if received == sent:
                return
            j = received % workers
            try:
                reply = conns[j].recv()
            except (EOFError, OSError):
                procs[j].join()
                raise RuntimeError(
                    f"search worker exited with code {procs[j].exitcode}"
                ) from None
            received += 1
            if isinstance(reply, _WorkerError):
                raise reply.exc from RuntimeError(f"in the search worker:\n{reply.trace}")
            yield reply
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


class _WorkerError(NamedTuple):
    exc: BaseException
    trace: str


def _serve_rounds(conn, n, fb, sb, pre, ctx, partial_bound):
    """A worker: round_finds for each index list that arrives, until the
    parent closes the pipe.  An exception goes back as a _WorkerError, and
    the worker then waits to be killed: a pipe closed with rounds still
    unread in it can reset the parent's end before the error is read."""
    try:
        while True:
            indices = conn.recv()
            conn.send(round_finds(n, fb, sb, pre, ctx, indices, partial_bound))
    except EOFError:
        return
    except BaseException as exc:
        conn.send(_WorkerError(exc, traceback.format_exc()))
    with contextlib.suppress(EOFError):
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

    def shortfall():
        own = {key: value - before[key] for key, value in stats.counters().items()}
        return RelationShortfall(n, RunStats(**own), store.target)

    tried = 0  # dependencies of earlier cycles, a prefix of this cycle's
    for _ in range(_MAX_SOLVE_CYCLES):
        try:
            store, _ = collect_relations(
                n, config, fb, sb, pre, ctx, store=store, stats=stats
            )
        except FoundFactor as exc:
            return exc.divisor
        if not store.have_enough():
            raise shortfall()

        t0 = time.perf_counter()
        try:
            # the first target rows in stream order: the elimination takes
            # rows one at a time, so it finds their dependencies first anyway
            rels = list(store.fulls.values())[: store.target]
            # store.fulls only grows, so an earlier cycle's rows lead this
            # one's, and so do their dependencies: skip those, all trivial
            deps = solve_dependencies(rels)
            for subset in deps[tried:]:
                big_x, big_y = assemble_square(subset, rels, store.primes, n)
                divisor = extract_factor(big_x, big_y, n)
                if divisor is not None:
                    return divisor
            tried = len(deps)
        finally:
            stats.add_time("linalg", time.perf_counter() - t0)
        # every dependency collapsed to a trivial gcd: collect a bit more
        store.raise_target()
    raise shortfall()


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
