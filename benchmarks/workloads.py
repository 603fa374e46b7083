"""The benchmark's workloads, the jobs they run and the metrics they report.

A job is one closed-loop call into the library on one composite: a full
factor() for the factorization workloads, or prepare() plus a fixed-round
collect_relations() for the relation-throughput workload.  Each workload
draws a fixed panel of composites and measures whole passes over it, so
every run times the same composites and the spread between runs reflects
the program, not the luck of the draw.  The run's --seed is the search
seed (RunConfig.seed) of every job.  Times are reference seconds (see
speed.py); the report also gives the median job in wall seconds.
"""

import csv
import io
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from inputs import Semiprime, balanced_semiprimes
from spans import Patches, Tracer, layer_metrics
from speed import REF_SECONDS, reference_time

import sssfactor
from sssfactor import engine
from sssfactor.numtheory import FoundFactor

SCHEMA_VERSION = 1
PREPARE_REPEATS = 3      # prepare() calls per composite and pass for setup_s
TAIL_BEYOND = 10         # samples that must lie above the tail percentile


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    digits: int
    panel: int                    # composites per pass
    max_rounds: int | None = None  # set: fixed-round relation collection only


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sss-40d", "sss", 40, panel=4),
        Workload("qs-35d", "qs", 35, panel=5),
        Workload("sssf-50d-rounds", "sssf", 50, panel=5, max_rounds=50),
    )
}


def panel(w: Workload, panel_seed: int) -> list[Semiprime]:
    return balanced_semiprimes(w.digits, w.panel, panel_seed, tag=w.name)


def tail_index(count: int) -> int:
    """Index into sorted samples of the highest order statistic with at
    least TAIL_BEYOND samples above it, never below the median."""
    if count < 1:
        raise ValueError("no samples")
    return max(count - TAIL_BEYOND - 1, count // 2)


# -- jobs ---------------------------------------------------------------------


@dataclass
class Job:
    wall: float
    counters: dict | None = None
    relations: int = 0          # useful fulls: native plus combined
    failure: str | None = None  # starved, found a factor early, or raised
    wrong: str | None = None    # wrong answer or unverified relation


def _config(w: Workload, seed: int) -> engine.RunConfig:
    return engine.RunConfig(algo=w.algo, seed=seed, max_rounds=w.max_rounds)


def _factor_call(s, config):
    return engine.factor(s.n, config)


def _rounds_call(s, config):
    fb, sb, pre, ctx = engine.prepare(s.n, config)
    return engine.collect_relations(s.n, config, fb, sb, pre, ctx)


def _check_factor(w, s, result, job):
    job.counters = result.stats.counters()
    job.relations = result.stats.fulls + result.stats.combined
    if result.residue != 1:
        job.failure = f"starved with residue {result.residue}"
    elif result.factors != [(s.p, 1), (s.q, 1)]:
        job.wrong = f"{s.n} factored as {result.factors}, expected {s.p} * {s.q}"


def _unverified_fulls(store, n: int) -> int:
    """Full relations from the store's CSV dump that break x^2 = +-prod p^e mod n."""
    rows = csv.reader(io.StringIO(store.fulls_csv()))
    primes = [int(h[2:]) for h in next(rows)[2:]]
    bad = 0
    for row in rows:
        x, sign = int(row[0]), int(row[1])
        rhs = 1
        for p, e in zip(primes, row[2:]):
            if e != "0":
                rhs = rhs * pow(p, int(e), n) % n
        if sign:
            rhs = -rhs
        if (x * x - rhs) % n:
            bad += 1
    return bad


def _check_rounds(w, s, outcome, job):
    store, stats = outcome
    job.counters = stats.counters()
    job.relations = stats.fulls + stats.combined
    bad = _unverified_fulls(store, s.n)
    if bad:
        job.wrong = f"{bad} full relations of {s.n} fail their congruence"
    elif stats.rounds != w.max_rounds:
        job.failure = f"{stats.rounds} rounds instead of the cap {w.max_rounds}"


def run_job(w: Workload, s: Semiprime, seed: int, tracer: Tracer | None = None) -> Job:
    """One timed job; failures are recorded on the Job, never raised."""
    call, check = (
        (_factor_call, _check_factor) if w.max_rounds is None else (_rounds_call, _check_rounds)
    )
    config = _config(w, seed)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = call(s, config)
        else:
            outcome = tracer.span("engine.job", call, s, config)
    except FoundFactor as exc:
        return Job(time.perf_counter() - t0, failure=f"found factor {exc.divisor} early")
    except Exception as exc:  # a broken job is reported, the run goes on
        return Job(time.perf_counter() - t0, failure=f"{type(exc).__name__}: {exc}")
    job = Job(time.perf_counter() - t0)
    check(w, s, outcome, job)
    return job


def setup_time(s: Semiprime, config) -> float | None:
    """Fastest of PREPARE_REPEATS prepare() calls, None if prepare found a factor."""
    best = None
    for _ in range(PREPARE_REPEATS):
        t0 = time.perf_counter()
        try:
            engine.prepare(s.n, config)
        except FoundFactor:
            return None
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


# -- runs ---------------------------------------------------------------------


class Run:
    """Jobs of one invocation plus the determinism checks across repeats."""

    def __init__(self, w: Workload, seed: int, inputs):
        self.w, self.seed, self.inputs = w, seed, inputs
        self.jobs: list[Job] = []
        self.problems: list[str] = []   # nondeterminism found by the checks
        self._seen: dict[int, dict] = {}

    def job(self, i: int, tracer: Tracer | None = None) -> Job:
        s = self.inputs[i % len(self.inputs)]
        job = run_job(self.w, s, self.seed, tracer)
        self.jobs.append(job)
        if job.counters is not None:
            first = self._seen.setdefault(s.n, job.counters)
            if first != job.counters:
                self.problems.append(f"counters of {s.n} changed: {first} then {job.counters}")
        return job

    @property
    def failures(self) -> list[str]:
        return [j.failure for j in self.jobs if j.failure]

    @property
    def wrong(self) -> list[str]:
        return [j.wrong for j in self.jobs if j.wrong] + self.problems


def measure(w: Workload, seed: int, seconds: float, inputs) -> tuple[Run, dict]:
    """End-to-end run with tracing off.

    After a warm-up job, whole passes over the panel run while another pass
    is expected to fit in `seconds`; each pass times, for every composite,
    the reference loop, prepare() and then the job.  Each time is scaled by
    the reference samples just before and after it (see speed.py), and a
    composite's time is the median over passes.
    """
    config = _config(w, seed)
    run = Run(w, seed, inputs)
    run.job(0)  # warm-up, and the first repeat check
    timed_from = len(run.jobs)
    refs: list[float] = []
    samples: list[tuple[int, float | None, Job]] = []
    start = time.perf_counter()
    passes = 0
    while True:
        for i, s in enumerate(inputs):
            refs.append(reference_time())
            samples.append((i, setup_time(s, config), run.job(i)))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    refs.append(reference_time())

    setup: list[list[float]] = [[] for _ in inputs]
    times: list[list[float]] = [[] for _ in inputs]
    walls: list[list[float]] = [[] for _ in inputs]
    relations = [0] * len(inputs)
    for (i, prep, job), before, after in zip(samples, refs, refs[1:]):
        scale = REF_SECONDS / ((before + after) / 2)
        if prep is not None:
            setup[i].append(prep * scale)
        if not (job.failure or job.wrong):
            times[i].append(job.wall * scale)
            walls[i].append(job.wall)
            relations[i] = job.relations
    done = [i for i in range(len(inputs)) if times[i]]
    per_input = sorted(statistics.median(times[i]) for i in done)
    prep_s = [statistics.median(t) for t in setup if t]
    metrics = {}
    if per_input and prep_s:
        metrics = {
            "setup_s": (statistics.median(prep_s), "s"),
            "input_s_p50": (statistics.median(per_input), "s"),
            "inputs_per_min": (60.0 * len(per_input) / sum(per_input), "1/min"),
            "relations_per_s": (sum(relations[i] for i in done) / sum(per_input), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    timed = run.jobs[timed_from:]
    detail = {
        "passes": passes,
        "samples": len(per_input),
        "input_s_tail": per_input[tail_index(len(per_input))] if per_input else None,
        "tail_percentile": (
            round(100.0 * (tail_index(len(per_input)) + 1) / len(per_input), 1) if per_input else None
        ),
        "wall_input_s_p50": statistics.median(statistics.median(walls[i]) for i in done) if done else None,
        "reference_s": {"min": min(refs), "median": statistics.median(refs), "max": max(refs)},
        "failed_ratio": sum(1 for j in timed if j.failure or j.wrong) / len(timed),
        "pass_counters": _summed(j.counters for j in timed[: len(inputs)] if j.counters),
    }
    return run, {"metrics": metrics, **detail}


def _summed(counters) -> dict:
    total = Counter()
    for c in counters:
        total.update(c)
    return dict(total)


def traced(w: Workload, seed: int, seconds: float, inputs) -> tuple[Run, Tracer, dict]:
    """Per-layer run: each job runs untraced and then again with every layer
    wrapped, back to back so both see the same machine.  The repeat check
    compares their counters; the median ratio of their wall times is the
    tracing overhead."""
    run = Run(w, seed, inputs)
    run.job(0)  # warm-up
    tracer = Tracer()
    patches = Patches(tracer)
    refs, plain, spanned = [], [], []
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < seconds:
        i = len(spanned)
        refs.append(reference_time())
        plain.append(run.job(i))
        with patches:
            spanned.append(run.job(i, tracer))
    ok = [j for j in spanned if j.counters is not None]
    refs.append(reference_time())
    scale = REF_SECONDS / statistics.median(refs)
    metrics = layer_metrics(tracer, _summed(j.counters for j in ok), max(len(ok), 1), scale)
    detail = {
        "jobs": len(spanned),
        "spans": len(tracer.spans),
        "absent_layers": patches.absent,
        "overhead_ratio": statistics.median(t.wall / u.wall for t, u in zip(spanned, plain)) - 1,
        "reference_s": {"min": min(refs), "median": statistics.median(refs), "max": max(refs)},
        "failed_ratio": sum(1 for j in spanned if j.failure or j.wrong) / len(spanned),
    }
    return run, tracer, {"metrics": metrics, **detail}


# -- facts about the run -------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of a .git directory inside root, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: Path) -> dict:
    import numpy

    return {
        "schema_version": SCHEMA_VERSION,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sssfactor": sssfactor.__version__,
        "git_commit": _git_commit(root),
    }
