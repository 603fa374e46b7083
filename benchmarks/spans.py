"""In-memory spans around the library's layers, and the per-layer metrics
computed from them.

Spans are recorded by wrapping public functions from outside the library:
each wrapper replaces the name where its caller looks it up (for example
sssfactor.search.collision_scan, which search_round reads from its module
globals), so nothing under src/ knows it is being traced.  A target that no
longer exists is reported as absent and its layer reads 0.
"""

import importlib
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Span stack for one thread; spans and counts stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def wrap(self, name: str | None, fn, count=None):
        """fn wrapped in a span; count(counts, args, result) tallies work.
        With name None the wrapper only counts, for per-candidate calls."""
        counts = self.counts

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(counts, args, result)
            return result

        return traced


def durations(spans) -> dict[str, float]:
    """Total wall time per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return out


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of its
    interval that the union of its direct children covers."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] += (s.end - s.start) - covered
    return out


# -- the layers -------------------------------------------------------------


def _add(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_round(counts, args, result):
    counts["search.rounds"] += 1
    counts["search.candidates"] += result.candidates
    counts["search.emitted"] += result.fulls + result.partials


def _count_scan(counts, args, result):
    counts["search.scans"] += 1
    counts["search.hits"] += len(result)


def _count_batch(counts, args, result):
    counts["smoothness.values"] += len(args[1])


def _count_filter(counts, args, result):
    counts["smoothness.values"] += len(args[1])
    counts["smoothness.filter_in"] += len(args[1])
    counts["smoothness.filter_out"] += len(result)


def _count_sieve(counts, args, result):
    counts["qs.intervals"] += 1
    counts["qs.survivors"] += len(result)


def _count_build(counts, args, result):
    counts["factorbase.builds"] += 1
    counts["factorbase.primes"] += len(result[0].primes)


def _accepted(key):
    def count(counts, args, result):
        if getattr(result, "name", None) != "REJECT":
            counts[key] += 1
    return count


def _count_solve(counts, args, result):
    counts["engine.solve_cycles"] += 1
    counts["relations.dependencies"] += len(result)


# (span name, module, attribute path, counter): each wrapper is installed
# where the caller looks the name up, so the span sits on the layer boundary.
SPAN_TARGETS = (
    ("engine.prepare", "sssfactor.engine", "prepare", None),
    ("engine.collect", "sssfactor.engine", "collect_relations", None),
    ("factorbase.build", "sssfactor.engine", "build_factor_bases", _count_build),
    ("crt.precompute", "sssfactor.engine", "precompute", None),
    ("smoothness.context", "sssfactor.engine", "build_context", None),
    ("search.round", "sssfactor.engine", "search_round", _count_round),
    ("crt.get_x", "sssfactor.search", "get_x", None),
    ("crt.swap_root", "sssfactor.search", "swap_root", None),
    ("search.root_transforms", "sssfactor.search", "root_transforms", None),
    ("search.collision_scan", "sssfactor.search", "collision_scan", _count_scan),
    ("smoothness.batch", "sssfactor.search", "smooth_batch", _count_batch),
    ("smoothness.batch", "sssfactor.search", "smooth_batch_exact", _count_batch),
    ("smoothness.filter", "sssfactor.search", "smooth_filter", _count_filter),
    ("qs.run_sieve", "sssfactor.qs", "run_sieve", None),
    ("qs.sieve", "sssfactor.qs", "sieve_interval", _count_sieve),
    ("smoothness.batch", "sssfactor.qs", "smooth_batch", _count_batch),
    ("relations.ingest", "sssfactor.relations", "RelationStore.ingest", _add("relations.ingests")),
    ("relations.solve", "sssfactor.engine", "solve_dependencies", _count_solve),
    ("relations.sqrt", "sssfactor.engine", "assemble_square", None),
    ("relations.sqrt", "sssfactor.engine", "extract_factor", None),
    # classify() runs once per candidate, so it only counts, without a span
    (None, "sssfactor.search", "classify", _accepted("search.accepted")),
    (None, "sssfactor.qs", "classify", _accepted("qs.accepted")),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Installs the layer wrappers for one tracer; use as a context manager.

    `absent` lists the targets that could not be found, so a renamed
    function shows as a missing layer instead of aborting the run.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.absent = []
        for name, module, path, count in SPAN_TARGETS:
            try:
                owner, attr, original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            self._set(owner, attr, original, self.tracer.wrap(name, original, count))
        return self

    def _set(self, owner, attr, original, replacement):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, run_stats: dict, jobs: int, scale: float = 1.0
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}, times and counts per job.

    run_stats holds the summed RunStats counters of the traced jobs; the
    relation counts come from there because the engine already keeps them.
    Times are multiplied by scale, which turns them into reference seconds.
    """
    dur = durations(tracer.spans)
    own = self_times(tracer.spans)
    c = tracer.counts
    per = 1.0 / jobs

    def s(value):
        return (value * per * scale, "s")

    def n(value):
        return (value * per, "count")

    def r(num, den):
        return (_ratio(num, den), "ratio")

    return {
        "search.collision_scan_s": s(dur["search.collision_scan"]),
        "search.root_transforms_s": s(dur["search.root_transforms"]),
        "search.round_s": s(dur["search.round"]),
        "search.self_s": s(own["search.round"]),
        "search.rounds": n(c["search.rounds"]),
        "search.scans": n(c["search.scans"]),
        "search.hits": n(c["search.hits"]),
        "search.candidates": n(c["search.candidates"]),
        "search.hit_yield": r(c["search.emitted"], c["search.candidates"]),
        "smoothness.batch_s": s(dur["smoothness.batch"]),
        "smoothness.filter_s": s(dur["smoothness.filter"]),
        "smoothness.context_s": s(dur["smoothness.context"]),
        "smoothness.values": n(c["smoothness.values"]),
        "smoothness.filter_drop_ratio": r(
            c["smoothness.filter_in"] - c["smoothness.filter_out"], c["smoothness.filter_in"]
        ),
        "smoothness.smooth_ratio": r(
            c["search.accepted"] + c["qs.accepted"], c["smoothness.values"]
        ),
        "relations.ingest_s": s(dur["relations.ingest"]),
        "relations.ingests": n(c["relations.ingests"]),
        "relations.solve_s": s(dur["relations.solve"]),
        "relations.sqrt_s": s(dur["relations.sqrt"]),
        "relations.fulls": n(run_stats.get("fulls", 0)),
        "relations.partials": n(run_stats.get("partials", 0)),
        "relations.combined": n(run_stats.get("combined", 0)),
        "relations.combine_ratio": r(run_stats.get("combined", 0), run_stats.get("partials", 0)),
        "relations.dependencies": n(c["relations.dependencies"]),
        "qs.sieve_s": s(dur["qs.sieve"]),
        "qs.self_s": s(own["qs.run_sieve"]),
        "qs.intervals": n(c["qs.intervals"]),
        "qs.survivors": n(c["qs.survivors"]),
        "qs.survivor_yield": r(c["qs.accepted"], c["qs.survivors"]),
        "factorbase.build_s": s(dur["factorbase.build"]),
        "factorbase.primes": (_ratio(c["factorbase.primes"], c["factorbase.builds"]), "count"),
        "crt.precompute_s": s(dur["crt.precompute"]),
        "crt.get_x_s": s(dur["crt.get_x"]),
        "crt.swap_root_s": s(dur["crt.swap_root"]),
        "engine.collect_s": s(dur["engine.collect"]),
        "engine.self_s": s(own["engine.job"] + own["engine.prepare"] + own["engine.collect"]),
        "engine.solve_cycles": n(c["engine.solve_cycles"]),
    }
