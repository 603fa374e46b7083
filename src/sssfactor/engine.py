"""Orchestration: validation, precomputation, scheduling and phase 2.

factor() strips trivial structure (even part, perfect powers, small prime
hits from the base scan), runs the configured relation search on each
remaining composite, solves for dependencies over GF(2) and extracts
divisors, recursing until everything left is a probable prime.
collect_relations() is the one collection loop: sss, sssf and qs differ
only in what one round is.
"""

import random
import time
from dataclasses import dataclass, field

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
from .search import pick_indices, search_round
from .smoothness import build_context

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

# least legal value of each integer knob (None still means "default");
# max_rounds=0 asks for no collection at all
_LOWER_BOUNDS = (
    ("m", 1), ("n", 1), ("k", 1), ("rho", 2), ("partial_bound_multiplier", 1),
    ("collision_threshold", 2), ("max_rounds", 0), ("slack", 0),
)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one factorization run; None means "derive a default"."""

    algo: str | None = None          # sss | sssf | qs; None picks by size
    m: int | None = None             # factor-base target size
    n: int | None = None             # small-base size
    k: int | None = None             # primes per subsum modulus (6 sss, 7 sssf)
    rho: int = 10                    # filter split ratio |F| / |F1|
    delta: int = 5                   # filter cutoff exponent offset
    partial_bound_multiplier: int = 128
    collision_threshold: int = 3
    use_partials: bool = True
    seed: int = 0
    max_rounds: int | None = None
    slack: int = 10                  # extra relations beyond |F| + 1

    def __post_init__(self):
        if self.algo is not None and self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        for name, least in _LOWER_BOUNDS:
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    def algo_for(self, n: int) -> str:
        if self.algo is not None:
            return self.algo
        return "sssf" if len(str(n)) >= _AUTO_FILTER_DIGITS else "sss"

    def sizes_for(self, n: int) -> tuple[int, int]:
        m, small_n = table_sizes(len(str(n)))
        if self.m is not None:
            m = self.m
        if self.n is not None:
            small_n = self.n
        return m, small_n

    def k_for(self, algo: str) -> int:
        if self.k is not None:
            return self.k
        return 7 if algo == "sssf" else 6


@dataclass
class RunStats:
    rounds: int = 0            # search rounds (or sieved intervals for qs)
    candidates: int = 0
    filtered: int = 0          # candidates dropped by the two-pass filter
    fulls: int = 0             # native full relations stored
    partials: int = 0          # partial relations emitted by the search
    combined: int = 0          # fulls obtained by combining partials
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
            "success": self.success,
            "stats": {
                **self.stats.counters(),
                "phase_seconds": dict(self.stats.phase_seconds),
            },
        }


class RelationShortfall(RuntimeError):
    """Relation collection starved (round cap hit before the target)."""

    def __init__(self, n: int, stats: RunStats):
        rate = stats.fulls / stats.rounds if stats.rounds else 0.0
        super().__init__(
            f"starved factoring {n}: {stats.rounds} rounds, "
            f"{stats.candidates} candidates, {stats.fulls} fulls "
            f"({rate:.3f} per round), {stats.partials} partials"
        )
        self.n = n
        self.stats = stats


def prepare(n: int, config: RunConfig):
    """Precomputation for one composite: factor bases, CRT tables and the
    smoothness context (with a partition when the filtered variant runs).

    Raises FoundFactor if the base scan already hits a divisor.
    """
    algo = config.algo_for(n)
    m, small_n = config.sizes_for(n)
    fb, sb = build_factor_bases(n, m, small_n)
    pre = precompute(sb, fb.roots)
    ctx = build_context(fb.primes, split_ratio=config.rho if algo == "sssf" else None)
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
    deadline: float | None = None,
    stats: RunStats | None = None,
) -> tuple[RelationStore, RunStats]:
    """Run rounds (search rounds, or sieved intervals for qs) until the
    store holds enough relations.

    Stops on the relation target, config.max_rounds rounds of this call, or
    the deadline.  Rounds are numbered from store.rounds, so a later call on
    the same store continues the relation stream.  The stream is a
    deterministic function of the seed; a deadline only decides where it is
    cut.  The time spent is added to the "collect" phase of stats.  May
    raise FoundFactor when a divisor appears along the way.
    """
    if store is None:
        store = RelationStore(
            n,
            fb,
            slack=config.slack,
            partial_multiplier=config.partial_bound_multiplier,
            use_partials=config.use_partials,
        )
    if stats is None:
        stats = RunStats()

    run_round = _round_runner(n, config, fb, sb, pre, ctx, store)
    native0, combined0 = store.native_count, store.combined_count
    round_cap = None if config.max_rounds is None else store.rounds + config.max_rounds
    t0 = time.perf_counter()
    try:
        while not store.have_enough():
            if round_cap is not None and store.rounds >= round_cap:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            result = run_round(store.rounds)
            store.rounds += 1
            stats.rounds += 1
            stats.candidates += result.candidates
            stats.filtered += result.filtered
            stats.partials += result.partials
    finally:
        stats.fulls += store.native_count - native0
        stats.combined += store.combined_count - combined0
        stats.add_time("collect", time.perf_counter() - t0)
    return store, stats


def _round_runner(n, config, fb, sb, pre, ctx, store):
    """The function that runs round number i and returns its RoundStats."""
    algo = config.algo_for(n)
    if algo == "qs":
        return lambda i: qs_mod.run_sieve(
            n, fb, ctx, store, i, partial_multiplier=config.partial_bound_multiplier
        )
    if not fb.large_primes(sb.n):
        raise ValueError(
            "small base covers the whole factor base; no collision primes left"
        )
    k = min(config.k_for(algo), sb.n)
    rng = random.Random(f"{config.seed}:{n}:0")  # one stream per composite
    for _ in range(store.rounds):
        pick_indices(k, sb.n, rng)  # the only draws a round makes
    return lambda i: search_round(
        n, fb, sb, pre, ctx, k, rng, store,
        collision_threshold=config.collision_threshold,
        partial_multiplier=config.partial_bound_multiplier,
        filter_delta=config.delta if algo == "sssf" else None,
    )


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
    for _ in range(_MAX_SOLVE_CYCLES):
        try:
            store, _ = collect_relations(
                n, config, fb, sb, pre, ctx, store=store, stats=stats
            )
        except FoundFactor as exc:
            return exc.divisor
        if not store.have_enough():
            raise RelationShortfall(n, stats)

        t0 = time.perf_counter()
        try:
            rels = list(store.fulls.values())
            for subset in solve_dependencies(rels):
                big_x, big_y = assemble_square(subset, rels, store.primes, n)
                divisor = extract_factor(big_x, big_y, n)
                if divisor is not None:
                    return divisor
        finally:
            stats.add_time("linalg", time.perf_counter() - t0)
        # every dependency collapsed to a trivial gcd: collect a bit more
        store.raise_target(config.slack + 1)
    raise RelationShortfall(n, stats)


def factor(n: int, config: RunConfig | None = None) -> FactorResult:
    """Full factorization of n into probable primes.

    Trivial structure is stripped first (evenness, perfect powers, small
    primes via the base scan); the configured search handles what is left
    and recurses on composite cofactors with sizes re-derived per cofactor.
    A starved search leaves its composite in `residue` instead of failing.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    config = config or RunConfig()
    stats = RunStats()
    found: dict[int, int] = {}
    residue = 1
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
        except RelationShortfall:
            residue *= value ** mult
            continue
        queue.append((divisor, mult))
        queue.append((value // divisor, mult))

    factors = sorted(found.items())
    result = FactorResult(n, factors, stats, residue)
    if not result.check():
        raise AssertionError("factorization does not multiply back to n")
    return result
