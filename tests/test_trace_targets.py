"""The benchmark's span tracer pins hermsurf functions by module and
attribute path; every pinned name must still exist, so that a rename
fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module,path,metric", _targets())
def test_trace_target_resolves(module, path, metric):
    """Resolve the target as Tracer.install does: vars(owner)[attr]."""
    owner = importlib.import_module(f"hermsurf.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner)[attr])
