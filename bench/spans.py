"""Span tracing at hermsurf's module boundaries, used only by the traced run.

``Tracer.install`` replaces each public function or method named in
``TARGETS`` with a wrapper that records one span (name, start, end,
parent) per call, in memory.  A function that another hermsurf module
imported by name is replaced in that module's namespace too, so calls
through ``from hermsurf.forms import combination_values`` are seen.
Spans are written out once, when the run ends (``Tracer.dump``).

Per name, ``Tracer.summary`` derives the call count, the total time
``s`` and the self time ``self_s`` (the span's duration minus the time
covered by its direct child spans), plus the counters in ``COUNTERS``.
Work done while setting up counts once; work done in the timed rounds is
averaged over the rounds, so every figure describes one set-up plus one
round.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (hermsurf module, attribute path inside it, metric prefix)
TARGETS = (
    ("finite_field", "build_field", "finite_field.build_field"),
    ("finite_field", "nullspace", "finite_field.nullspace"),
    ("proj_geometry", "Geometry.__init__", "proj_geometry.Geometry"),
    ("proj_geometry", "Geometry.plane_point_ids", "proj_geometry.plane_point_ids"),
    ("proj_geometry", "Geometry.line_through", "proj_geometry.line_through"),
    ("proj_geometry", "Geometry.book_of_planes", "proj_geometry.book_of_planes"),
    ("hermitian", "HermitianSurface.tangent_planes", "hermitian.tangent_planes"),
    ("hermitian", "HermitianSurface.tangent_section_positions",
     "hermitian.tangent_section_positions"),
    ("hermitian", "HermitianSurface.generators", "hermitian.generators"),
    ("hermitian", "HermitianSurface.classify_line", "hermitian.classify_line"),
    ("hermitian", "HermitianSurface.classify_book", "hermitian.classify_book"),
    ("hermitian", "HermitianSurface.tangent_plane_line_census",
     "hermitian.tangent_plane_line_census"),
    ("forms", "Form.values_at", "forms.Form.values_at"),
    ("forms", "intersection_stats", "forms.intersection_stats"),
    ("forms", "contains_tangent_plane", "forms.contains_tangent_plane"),
    ("forms", "line_contained", "forms.line_contained"),
    ("forms", "plane_contained", "forms.plane_contained"),
    ("forms", "divide", "forms.divide"),
    ("forms", "combination_values", "forms.combination_values"),
    ("forms", "class_vectors", "forms.class_vectors"),
    ("forms", "monomial_matrix", "forms.monomial_matrix"),
    ("theorems", "exhaustive_search", "theorems.exhaustive_search"),
    ("theorems", "tangent_plane_factors", "theorems.tangent_plane_factors"),
    ("theorems", "check_theorems", "theorems.check_theorems"),
    ("theorems", "evaluate_bounds", "theorems.evaluate_bounds"),
    ("codes", "build_code", "codes.build_code"),
    ("codes", "min_distance_enumerate", "codes.min_distance_enumerate"),
    ("cli", "main", "cli.main"),
    ("cli", "census_report", "cli.census_report"),
)


def _count_true(args, result):
    return {"true": int(bool(result))}


def _count_gather(args, result):
    """combination_values(field, rows, coeffs): B*M*N products, and the
    bytes its int16 table gathers move: per monomial with a nonzero
    column, two (B, N) results written and two (B, N) operands read."""
    rows, coeffs = args[1], args[2]
    b, m = coeffs.shape
    n = rows.shape[1]
    used = int(coeffs.any(axis=0).sum())
    return {"elements": b * m * n, "bytes": 8 * b * used * n}


# metric prefix -> (counter, the keys it returns)
COUNTERS = {
    "forms.line_contained": (_count_true, ("true",)),
    "forms.plane_contained": (_count_true, ("true",)),
    "forms.combination_values": (_count_gather, ("elements", "bytes")),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = {"setup": defaultdict(lambda: defaultdict(int)),
                       "rounds": defaultdict(lambda: defaultdict(int))}
        self.phase = "setup"
        self.rounds_from = None  # index of the first span started in a round

    def install(self) -> None:
        """Wrap every target.  hermsurf must already be imported."""
        mods = [m for name, m in sys.modules.items()
                if name == "hermsurf" or name.startswith("hermsurf.")]
        for module, path, metric in TARGETS:
            owner = importlib.import_module(f"hermsurf.{module}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, metric)
            if classes:
                setattr(owner, attr, wrapper)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def start_rounds(self) -> None:
        self.phase = "rounds"
        self.rounds_from = len(self.spans)

    def _wrap(self, fn, metric: str):
        nid = len(self.names)
        self.names.append(metric)
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(metric, (None,))[0]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if counter is not None:
                bucket = self.counts[self.phase][metric]
                for key, value in counter(args, result).items():
                    bucket[key] += value
            return result

        return wrapper

    def summary(self, rounds: int) -> dict:
        """{metric.calls|s|self_s|<counter>: value} for one set-up plus one round."""
        split = len(self.spans) if self.rounds_from is None else self.rounds_from
        child_time = [0.0] * len(self.spans)
        for nid, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        acc = {metric: [0.0, 0.0, 0.0] for metric in self.names}
        for idx, (nid, t0, t1, parent) in enumerate(self.spans):
            weight = 1.0 if idx < split else 1.0 / rounds
            row = acc[self.names[nid]]
            row[0] += weight
            row[1] += weight * (t1 - t0)
            row[2] += weight * (t1 - t0 - child_time[idx])
        out = {}
        for metric, (calls, total, self_s) in acc.items():
            out[f"{metric}.calls"] = calls
            out[f"{metric}.s"] = total
            out[f"{metric}.self_s"] = self_s
        for metric, (_, keys) in COUNTERS.items():
            for key in keys:
                out[f"{metric}.{key}"] = (self.counts["setup"][metric][key]
                                          + self.counts["rounds"][metric][key] / rounds)
        return out

    def dump(self, path, rounds: int) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "rounds": rounds,
                       "rounds_from": self.rounds_from,
                       "spans": self.spans}, fh)
