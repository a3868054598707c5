"""The benchmark loads hermsurf through bench/spans.py, which pins
functions by module and attribute path, and bench/child.py, whose set-up
calls public builders by name and signature.  Both are checked against
the source here, so that a rename or a signature change fails here
rather than in every benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hermsurf

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,path,metric", _load("spans").TARGETS)
def test_trace_target_resolves(module, path, metric):
    """Resolve the target as Tracer.install does: vars(owner)[attr]."""
    owner = importlib.import_module(f"hermsurf.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner)[attr])


def test_bench_setup_builds_structures():
    """The benchmark's set-up runs to the end on this checkout's source:
    field, surface, tangent planes and sections, generators and code."""
    assert Path(hermsurf.__file__).resolve().parent == _BENCH.parent / "src" / "hermsurf"
    steps = list(_load("child").build_structures({"qs": [2], "d": 1}))
    assert len(steps) == 6
