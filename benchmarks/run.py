"""Benchmark command: one workload, one seed, one run.

    python3 benchmarks/run.py --workload sss-40d --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the per-layer split.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the full report (inputs digest, sample counts, failures, machine facts).
A traced run also writes its spans to .bench_out/.
The exit code is 1 when any answer is wrong, any relation fails its
congruence or a repeated job changes its counters, and 2 on a usage error
or when the library sources are not next to the benchmark.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    """Put this checkout's src/ first on the path and make sure the library
    really comes from there, not from an installed copy."""
    if not (SRC / "sssfactor" / "__init__.py").is_file():
        _fail(f"no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import sssfactor

    if SRC not in Path(sssfactor.__file__).resolve().parents:
        _fail(f"sssfactor imported from {sssfactor.__file__}, not {SRC}")


def _write_spans(spans, name: str) -> str:
    """Spans as [id, parent, name, start, end] rows under .bench_out/."""
    out = ROOT / ".bench_out" / name
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps([list(s) for s in spans]))
    return str(out.relative_to(ROOT))


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="search seed of every job")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--panel-seed", type=int, default=1,
                    help="draws the composites; change it to check a claim on unseen inputs")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    from inputs import digest
    from workloads import WORKLOADS, machine_facts, measure, panel, traced

    w = WORKLOADS.get(args.workload)
    if w is None:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    inputs = panel(w, args.panel_seed)
    if args.trace:
        run, tracer, result = traced(w, args.seed, args.seconds, inputs)
        result["spans_file"] = _write_spans(tracer.spans, f"spans-{w.name}-seed{args.seed}.json")
    else:
        run, result = measure(w, args.seed, args.seconds, inputs)
    metrics = result.pop("metrics")
    correct = not run.wrong and bool(metrics)
    report = {
        "workload": w.name,
        "seed": args.seed,
        "panel_seed": args.panel_seed,
        "inputs": len(inputs),
        "inputs_digest": digest(inputs),
        "trace": args.trace,
        **result,
        "failures": run.failures,
        "wrong": run.wrong,
        "machine": machine_facts(ROOT),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.jobs),
        "failed": sum(1 for j in run.jobs if j.failure or j.wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
