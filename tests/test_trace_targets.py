"""The benchmark loads hermsurf through bench/spans.py, which pins
functions by module and attribute path, and bench/child.py, whose set-up
calls public builders by name and signature.  Both are checked against
the source here, so that a rename or a signature change fails here
rather than in every benchmark run."""

import importlib
import importlib.util
import sys
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


def test_random_search_feeds_the_gather_counters(monkeypatch):
    """No workload runs random search, the one caller of combination_values,
    so this is what checks _count_gather's reading of its (field, rows,
    coeffs) arguments.  monkeypatch undoes every replacement install makes."""
    spans = _load("spans")
    mods = [m for name, m in sys.modules.items() if name == "hermsurf" or name.startswith("hermsurf.")]
    for module, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"hermsurf.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = vars(owner)[attr]
        monkeypatch.setattr(owner, attr, original)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, value)
    from hermsurf.hermitian import canonical_surface
    from hermsurf.theorems import random_search

    tracer = spans.Tracer()
    tracer.install()
    random_search(canonical_surface(2), 2, 20, 0)
    summary = tracer.summary(rounds=1)
    assert summary["forms.combination_values.calls"] > 0
    assert summary["forms.combination_values.elements"] > 0
