"""Every name that benchmarks/spans.py wraps must exist in the library.

The tracer reports a target that it cannot find as an absent layer and
runs on, and benchmarks/test_harness.py, which then fails, is not part of
this suite.  So a change under src/ that removes or renames a wrapped name
fails here.  The test is skipped once benchmarks/spans.py is gone.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).parents[1] / "benchmarks" / "spans.py"


def test_every_span_target_resolves():
    if not SPANS.exists():
        pytest.skip("benchmarks/spans.py is gone")
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPAN_TARGETS
    missing = []
    for _, module, path, _ in spans.SPAN_TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []
