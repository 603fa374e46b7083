"""Orchestration: validation, precomputation, scheduling and phase 2.

factor() strips trivial structure (even part, perfect powers, small prime
hits from the base scan), runs the configured relation search on each
remaining composite, solves for dependencies over GF(2) and extracts
divisors, recursing until everything left is a probable prime.

collect_relations() is the one collection loop and the only code that
feeds the relation store, and _rounds is its one round source: sss, sssf
and qs differ only in the plan it runs (_round_plan), what an item of a
round is and how many go to a worker at once.  Every round is a
search.Round value, and the loop ingests its finds in round order.

A round is independent of the others once its item is fixed: a search
round's drawn indices, or a qs interval number.  So after a short start in
the calling process the rounds run on one forked worker per CPU
(_forked_rounds), in batches: one round for sss and sssf, one sieve block
per side (2 * qs.BLOCK_INTERVALS intervals) for qs.  This process keeps
drawing the search indices in round order from the one rng, and the rounds
come back in round order, so the relation stream does not depend on the
number of workers.
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
from .search import SUBSUM_SIZE, pick_indices, round_finds, search_round
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
    the seed.  Rounds move to worker processes once the call has run for
    _INLINE_SECONDS (see _rounds); the stream stays the same.  The time
    spent is added to the "collect" phase of stats, and the rounds' own
    times, summed over the processes that ran them, to its "search" phase.
    May raise FoundFactor when a divisor appears along the way.
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
    t0 = time.perf_counter()
    try:
        inline, run, items, batch = _round_plan(
            algo, n, config.seed, fb, sb, pre, ctx, store.partial_bound, store.rounds
        )
        rounds = _rounds(inline, run, items, batch, config.max_rounds)
        with contextlib.closing(rounds):
            while not store.have_enough() and (round_cap is None or store.rounds < round_cap):
                found = next(rounds)
                for x_bar, g in found.finds:
                    store.ingest(x_bar, g)
                store.rounds += 1
                stats.rounds += 1
                stats.candidates += found.candidates
                stats.filtered += found.filtered
                stats.partials += found.partials
                stats.add_time("search", found.seconds)
    finally:
        stats.fulls += store.native_count - native0
        stats.combined += store.combined_count - combined0
        stats.add_time("collect", time.perf_counter() - t0)
    return store, stats


# collection time after which rounds go to worker processes: a fork costs
# about 10 ms, so short collections stay in the calling process
_INLINE_SECONDS = 0.05
# batches sent to a worker and not yet consumed, at most
_QUEUE_DEPTH = 2


def _round_plan(algo, n, seed, fb, sb, pre, ctx, partial_bound, first):
    """What the round source needs for rounds from round number first on:
    (inline, run, items, batch).

    items yields the item of every round in round order, run(item) computes
    the round's Round in any process, and inline() computes the next round
    here, moving items past it.  batch is the number of consecutive items a
    worker gets per message.

    qs: an item is an interval number, and a batch is 2 * BLOCK_INTERVALS
    intervals, one sieve block per side, so a worker sieves no block that
    it uses only in part.  sss/sssf: an item is a round's index list, the
    round's only random draw (pick_indices), drawn here from one rng per
    composite fast-forwarded past rounds 0 to first - 1; a batch is one
    round.  inline() calls search_round and qs.run_sieve as looked up at
    call time, where tracing wraps them.
    """
    if algo == "qs":
        sieve = qs_mod.Sieve(n, fb, partial_bound)
        items = itertools.count(first)

        def run(index):
            return qs_mod.run_sieve(sieve, ctx, index)

        def inline():
            return run(next(items))

        return inline, run, items, 2 * qs_mod.BLOCK_INTERVALS

    k = min(SUBSUM_SIZE[algo], sb.n)
    rng = random.Random(f"{seed}:{n}:0")  # one stream per composite
    for _ in range(first):
        pick_indices(k, sb.n, rng)
    items = iter(lambda: pick_indices(k, sb.n, rng), None)

    def run(indices):
        return round_finds(n, fb, sb, pre, ctx, indices, partial_bound)

    def inline():
        return search_round(n, fb, sb, pre, ctx, k, rng, partial_bound)

    return inline, run, items, 1


def _rounds(inline, run, items, batch, limit):
    """Rounds in round order: inline() for the first _INLINE_SECONDS, in
    whole batches, so the workers' batches start where the inline ones end;
    then, on a host with two or more CPUs, run(item) for the remaining
    items on one forked worker per CPU (_forked_rounds).  limit, when not
    None, is the most rounds the caller takes, and no worker gets an item
    past it.  The rounds, and so the relation stream, the counters and the
    answer, are the same on any host.  Closing the generator kills and
    joins the workers.
    """
    start = time.perf_counter()
    done = 0
    while time.perf_counter() - start < _INLINE_SECONDS:
        for _ in range(batch):
            yield inline()
        done += batch
    workers = _worker_count()
    while workers < 2:
        yield inline()
    if limit is not None:
        items = itertools.islice(items, limit - done)
    yield from _forked_rounds(workers, run, items, batch)


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


def _forked_rounds(workers, run, items, batch):
    """run(item) for each item, in order, computed by `workers` forked
    processes.

    The workers inherit run, and with it the composite and everything
    prepared for it, by fork; over each worker's Pipe only batches of
    `batch` consecutive items go out and only the lists of their Rounds
    come back.  Batch i goes to worker i mod workers, at most _QUEUE_DEPTH
    batches ahead per worker, so the consumer drops at most that many
    computed batches when it stops.  Closing the generator kills and joins
    every worker.  A worker's exception is raised here with its type,
    chained to the worker's traceback.  No pool: a pool's helper threads
    make fork() unsafe.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    batches = iter(lambda: list(itertools.islice(items, batch)), [])
    procs, conns = [], []
    try:
        for _ in range(workers):
            conn, child = context.Pipe()
            proc = context.Process(target=_serve_rounds, args=(child, run), daemon=True)
            proc.start()
            child.close()
            procs.append(proc)
            conns.append(conn)
        sent = received = 0
        while True:
            for chunk in itertools.islice(batches, received + _QUEUE_DEPTH * workers - sent):
                # a worker that has stopped shows when its reply is due
                with contextlib.suppress(OSError):
                    conns[sent % workers].send(chunk)
                sent += 1
            if received == sent:
                return
            j = received % workers
            try:
                reply = conns[j].recv()
            except (EOFError, OSError):
                procs[j].join()
                raise RuntimeError(
                    f"collection worker exited with code {procs[j].exitcode}"
                ) from None
            received += 1
            if isinstance(reply, _WorkerError):
                raise reply.exc from RuntimeError(f"in the collection worker:\n{reply.trace}")
            yield from reply
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


def _serve_rounds(conn, run):
    """A worker: the list of run(item) for each batch of items that
    arrives, until the parent closes the pipe.  An exception goes back as a
    _WorkerError, and the worker then waits to be killed: a pipe closed
    with batches still unread in it can reset the parent's end before the
    error is read."""
    try:
        while True:
            chunk = conn.recv()
            conn.send([run(item) for item in chunk])
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
