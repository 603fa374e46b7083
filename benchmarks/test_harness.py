"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q benchmarks/test_harness.py
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from inputs import balanced_semiprimes, digest  # noqa: E402
from spans import Patches, Span, Tracer, self_times  # noqa: E402
from workloads import Workload, measure, run_job, tail_index, traced  # noqa: E402

TINY = (
    Workload("tiny-sss", "sss", 20, panel=3),
    Workload("tiny-qs", "qs", 20, panel=3),
    Workload("tiny-sssf", "sssf", 30, panel=2, max_rounds=3),
)


def _declared(kind: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_tail_index_keeps_ten_samples_above():
    for count in (21, 40, 100):
        assert count - 1 - tail_index(count) == 10
    assert tail_index(1) == 0


def test_tail_index_never_below_median():
    for count in range(1, 21):
        assert tail_index(count) == count // 2


def test_self_time_subtracts_union_of_children():
    spans_ = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "a", 2.0, 4.0),   # overlaps its sibling
        Span(3, 0, "b", 8.0, 12.0),  # runs past the parent's end
        Span(4, 1, "c", 1.5, 2.0),   # grandchild: only counts against "a"
    ]
    own = self_times(spans_)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own["a"] == pytest.approx(2.0 - 0.5 + 2.0)
    assert own["b"] == pytest.approx(4.0)
    assert own["c"] == pytest.approx(0.5)


def test_tracer_records_parents():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    assert tracer.span("outer", inner, 1) == 2
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None


def test_generator_is_deterministic_and_balanced():
    a = balanced_semiprimes(30, 5, seed=7, tag="t")
    assert a == balanced_semiprimes(30, 5, seed=7, tag="t")
    assert digest(a) == digest(balanced_semiprimes(30, 5, seed=7, tag="t"))
    assert a != balanced_semiprimes(30, 5, seed=8, tag="t")
    for s in a:
        assert s.p * s.q == s.n and s.p < s.q
        assert len(str(s.n)) == 30 and len(str(s.p)) == 15 and len(str(s.q)) == 15
        for f in (s.p, s.q):
            assert all(pow(b, f - 1, f) == 1 for b in (2, 3, 5, 7))


def test_generator_does_not_use_the_library():
    tree = ast.parse((HERE / "inputs.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("sssfactor") for name in imported)


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_smoke_end_to_end(w):
    inputs = workloads.panel(w, 1)
    run, result = measure(w, seed=1, seconds=0.01, inputs=inputs)
    assert not run.wrong and not run.failures
    assert result["passes"] == 1 and result["samples"] == w.panel
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(v > 0 for v, _ in result["metrics"].values())


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_smoke_traced(w):
    inputs = workloads.panel(w, 1)
    run, tracer, result = traced(w, seed=1, seconds=0.01, inputs=inputs)
    assert not run.wrong and not run.failures and not result["absent_layers"]
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    assert set(metrics) == _declared("per_layer")
    if w.algo == "qs":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("search."))
        assert metrics["qs.intervals"] > 0
    else:
        assert metrics["search.rounds"] > 0 and metrics["qs.intervals"] == 0
    if w.max_rounds is not None:
        assert metrics["search.rounds"] == w.max_rounds
        assert metrics["smoothness.filter_drop_ratio"] > 0


def test_patches_restore_and_report_absent(monkeypatch):
    from sssfactor import engine
    from sssfactor.relations import RelationStore

    original = (engine.collect_relations, RelationStore.ingest)
    targets = spans.SPAN_TARGETS + (("gone.x", "sssfactor.engine", "no_such_function", None),)
    monkeypatch.setattr(spans, "SPAN_TARGETS", targets)
    with Patches(Tracer()) as patches:
        assert engine.collect_relations is not original[0]
    assert patches.absent == ["sssfactor.engine.no_such_function"]
    assert (engine.collect_relations, RelationStore.ingest) == original


def test_wrong_factorization_is_caught(monkeypatch):
    from sssfactor import engine

    w = TINY[0]
    s = workloads.panel(w, 1)[0]
    real = engine.factor(s.n, engine.RunConfig(algo="sss"))
    fake = engine.FactorResult(s.n, [(s.n, 1)], real.stats)
    monkeypatch.setattr(engine, "factor", lambda n, config: fake)
    job = run_job(w, s, seed=1)
    assert job.wrong and not job.failure


def test_unverified_relation_is_caught():
    class Store:
        def fulls_csv(self):
            return "x,sign,e_2,e_3\n5,0,1,1\n4,0,0,1\n"

    # mod 13: 5^2 = 12 != 6, 4^2 = 3 = 3
    assert workloads._unverified_fulls(Store(), 13) == 1


def test_starved_or_early_factor_is_a_failure_not_a_crash(monkeypatch):
    from sssfactor import engine
    from sssfactor.numtheory import FoundFactor

    def starve(n, *args, **kwargs):
        raise engine.RelationShortfall(n, engine.RunStats())

    monkeypatch.setattr(engine, "collect_relations", starve)
    w = TINY[0]
    job = run_job(w, workloads.panel(w, 1)[0], seed=1)
    assert job.failure.startswith("starved") and not job.wrong

    def found(n, *args, **kwargs):
        raise FoundFactor(3)

    monkeypatch.setattr(engine, "collect_relations", found)
    w = TINY[2]
    job = run_job(w, workloads.panel(w, 1)[0], seed=1)
    assert job.failure == "found factor 3 early" and not job.wrong


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sss-40d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_changed_counters_on_a_repeat_are_wrong(monkeypatch):
    w = TINY[0]
    counters = iter([{"rounds": 1}, {"rounds": 2}])
    monkeypatch.setattr(
        workloads, "run_job", lambda *a, **k: workloads.Job(0.1, counters=next(counters))
    )
    run = workloads.Run(w, 1, workloads.panel(w, 1))
    run.job(0)
    run.job(len(run.inputs))  # the same composite again
    assert len(run.wrong) == 1 and "changed" in run.wrong[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_result_line(trace, monkeypatch, tmp_path, capsys):
    import run

    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, TINY[0].name, TINY[0])
    argv = ["--workload", TINY[0].name, "--seed", "2", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    *_, report, last = capsys.readouterr().out.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    assert json.loads(report)["report"]["inputs_digest"]
    if trace:
        spans_file = tmp_path / json.loads(report)["report"]["spans_file"]
        assert len(json.loads(spans_file.read_text())) == json.loads(report)["report"]["spans"]
