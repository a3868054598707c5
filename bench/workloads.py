"""The benchmark's workloads: their inputs, commands, units and output checks.

Each workload lists the ``hermsurf`` command lines of one round (``ops``;
``{dir}`` stands for the round's output directory), the structures its
commands build before their main loop (``setup``), the units of work in a
round (for ``rate_per_s``) and ``verify``, which checks one command's
output against ``oracle`` and returns the failed checks.  This module
runs in the parent process and never imports hermsurf.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import oracle


def _expect(errors: list, name: str, want, got) -> None:
    if want != got:
        errors.append(f"{name}: expected {want!r}, got {got!r}")


def _report(path: Path) -> dict:
    return json.loads(path.read_text())["report"]


class Scan:
    """Exhaustive search plus the evaluation code's weight distribution."""

    def __init__(self, q: int, d: int, argmax_total: int, weights: dict | None = None,
                 setup_samples: int = 5):
        self.q, self.d = q, d
        self.setup_samples = setup_samples
        self.argmax_total = argmax_total
        self.weights = weights
        self.field = self.surface = None
        self.verified_argmax: list = []

    def prepare(self, seed: int, inputs: Path) -> None:
        """Scans take no generated input: every scalar class is scanned."""
        self.field = oracle.GF(self.q)
        self.surface = oracle.surface_points(self.field)

    @property
    def setup(self) -> dict:
        return {"qs": [self.q], "d": self.d}

    @property
    def ops(self) -> list[list[str]]:
        q, d = str(self.q), str(self.d)
        return [
            ["search", "--q", q, "--d", d, "--workers", "1", "--out", "{dir}/search.json"],
            ["code", "--q", q, "--d", d, "--weight-csv", "{dir}/weights.csv",
             "--out", "{dir}/code.json"],
        ]

    @property
    def units(self) -> int:
        """Scalar classes scanned by both commands."""
        return 2 * oracle.class_count(self.q**2, oracle.monomial_count(self.d))

    def verify(self, op: int, rdir: Path) -> list[str]:
        return self._verify_search(rdir) if op == 0 else self._verify_code(rdir)

    def _verify_search(self, rdir: Path) -> list[str]:
        q, d, errors = self.q, self.d, []
        rep = _report(rdir / "search.json")
        best = oracle.sorensen(q, d)
        _expect(errors, "examined", oracle.class_count(q * q, oracle.monomial_count(d)),
                rep["examined"])
        _expect(errors, "skipped_hermitian_multiples", 0, rep["skipped_hermitian_multiples"])
        _expect(errors, "max_count", best, rep["max_count"])
        _expect(errors, "sorensen_bound", best, rep["sorensen_bound"])
        _expect(errors, "argmax_total", self.argmax_total, rep["argmax_total"])
        forms = rep["argmax_forms"]
        if not 1 <= len(forms) <= self.argmax_total:
            errors.append(f"argmax_forms: {len(forms)} listed of {self.argmax_total}")
        if forms != self.verified_argmax:
            keys = {json.dumps(f, sort_keys=True) for f in forms}
            _expect(errors, "distinct argmax forms", len(forms), len(keys))
            for f in forms:
                if f["d"] != d or f["q"] != q:
                    errors.append(f"argmax form over q={f['q']} d={f['d']}")
                    break
                x = oracle.x_count(self.field, self.surface, [(tuple(e), c) for e, c in f["terms"]])
                if x != best:
                    errors.append(f"argmax form {f['terms']} has x = {x}, not {best}")
                    break
            if not errors:
                self.verified_argmax = forms
        return errors

    def _verify_code(self, rdir: Path) -> list[str]:
        q, d, errors = self.q, self.d, []
        rep = _report(rdir / "code.json")
        n = oracle.n_surface_points(q)
        k = oracle.monomial_count(d)
        order = q * q
        _expect(errors, "n", n, rep["n"])
        _expect(errors, "k", k, rep["k"])
        _expect(errors, "d_min_enumerated", n - oracle.sorensen(q, d), rep["d_min_enumerated"])
        _expect(errors, "d_min_geometric", n - oracle.sorensen(q, d), rep["d_min_geometric"])
        with open(rdir / "weights.csv", newline="") as fh:
            dist = {int(row["weight"]): int(row["count"]) for row in csv.DictReader(fh)}
        _expect(errors, "sum of A_w", order**k, sum(dist.values()))
        _expect(errors, "A_0", 1, dist.get(0))
        _expect(errors, "sum of w * A_w", n * (order**k - order ** (k - 1)),
                sum(w * a for w, a in dist.items()))
        _expect(errors, "smallest nonzero weight", n - oracle.sorensen(q, d),
                min(w for w in dist if w))
        _expect(errors, "A_dmin", (order - 1) * self.argmax_total,
                dist.get(n - oracle.sorensen(q, d)))
        if self.weights is not None:
            _expect(errors, "weight distribution", self.weights, dist)
        return errors


def scan_q2d2() -> Scan:
    return Scan(2, 2, argmax_total=oracle.secant_tangent_pairs(2), setup_samples=7)


def scan_q5d1() -> Scan:
    q, order = 5, 25
    n = oracle.n_surface_points(q)
    planes = oracle.n_planes(q)
    weights = {0: 1, n - (q**3 + q**2 + 1): (order - 1) * n,  # tangent planes
               n - (q**3 + 1): (order - 1) * (planes - n)}  # Hermitian curves
    return Scan(q, 1, argmax_total=n, weights=weights, setup_samples=3)


class Check:
    """``hermsurf check`` on each form of a seeded corpus."""

    setup_samples = 5

    def __init__(self, q: int):
        self.q = q
        self.corpus: list[dict] = []
        self.paths: list[Path] = []

    def prepare(self, seed: int, inputs: Path) -> None:
        field = oracle.GF(self.q)
        surface = oracle.surface_points(field)
        self.corpus = oracle.check_corpus(field, surface, seed)
        for i, entry in enumerate(self.corpus):
            entry["x"] = oracle.x_count(field, surface, list(entry["form"].items()))
            path = inputs / f"form{i:03d}.json"
            path.write_text(json.dumps(oracle.form_json(self.q, entry["form"])))
            self.paths.append(path)

    @property
    def setup(self) -> dict:
        return {"qs": [self.q]}

    @property
    def ops(self) -> list[list[str]]:
        return [["check", str(path), "--q", str(self.q), "--out", f"{{dir}}/check{i:03d}.json"]
                for i, path in enumerate(self.paths)]

    @property
    def units(self) -> int:
        """Forms checked."""
        return len(self.corpus)

    def verify(self, op: int, rdir: Path) -> list[str]:
        entry, errors = self.corpus[op], []
        rep = _report(rdir / f"check{op:03d}.json")
        stats, bounds = rep["stats"], rep["bounds"]
        _expect(errors, "ok", True, bounds["ok"])
        _expect(errors, "x_count", entry["x"], stats["x_count"])
        _expect(errors, "bounds x_count", entry["x"], bounds["x_count"])
        for key, want in entry["expect"].items():
            got = bounds["flags"][key] if key == "tangent_plane_union" else stats[key]
            _expect(errors, f"{entry['kind']} {key}", want, got)
        return [f"form{op:03d} ({entry['kind']}, d={entry['d']}): {e}" for e in errors]


class Census:
    """``verify-counts`` at each q, seeded by the benchmark's seed."""

    setup_samples = 5

    def __init__(self, qs: tuple[int, ...], full_lines: tuple[int, ...]):
        self.qs = qs
        self.full_lines = full_lines
        self.seed = 0

    def prepare(self, seed: int, inputs: Path) -> None:
        self.seed = seed

    @property
    def setup(self) -> dict:
        return {"qs": list(self.qs)}

    @property
    def ops(self) -> list[list[str]]:
        return [["verify-counts", "--q", str(q), "--seed", str(self.seed),
                 "--out", f"{{dir}}/census{q}.json"] for q in self.qs]

    @property
    def units(self) -> int:
        """Planes of PG(3, q^2) whose section is classified."""
        return sum(oracle.n_planes(q) for q in self.qs)

    def verify(self, op: int, rdir: Path) -> list[str]:
        q, errors = self.qs[op], []
        rep = _report(rdir / f"census{q}.json")
        _expect(errors, "q", q, rep["q"])
        _expect(errors, "pass", True, rep["pass"])
        closed = oracle.census_values(q)
        names = {c["name"] for c in rep["checks"]}
        want = set(closed) if q in self.full_lines else set(closed) - {
            "line_total", "trichotomy_generator_count", "trichotomy_tangent_count"}
        for name in sorted(want - names):
            errors.append(f"check {name} missing")
        for c in rep["checks"]:
            _expect(errors, f"{c['name']} pass", True, c["pass"])
            if c["name"] in closed:
                _expect(errors, c["name"], closed[c["name"]], c["observed"])
        if q in self.full_lines:
            mode = next((c["observed"] for c in rep["checks"]
                         if c["name"] == "line_trichotomy_mode"), None)
            _expect(errors, "line_trichotomy_mode", "full", mode)
        return [f"q={q}: {e}" for e in errors]


WORKLOADS = {
    "scan-q2d2": scan_q2d2,
    "scan-q5d1": scan_q5d1,
    "check-q4": lambda: Check(4),
    "census-q3q4": lambda: Census((3, 4), full_lines=(3,)),
}
