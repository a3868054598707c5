"""Command-line interface.

Subcommands: verify-counts, search, extremal, grid, code, check.  Every
run writes one JSON document, either to --out or to stdout, of the shape

    {"report": {...}, "meta": {...}}

The report body is byte-reproducible for identical configuration; wall
times and other run metadata live only under "meta".  Exit status: 0 on
success, 1 on usage or input errors, 2 when a proved bound fails on some
examined form (the offending form is serialized in the report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from random import Random

from hermsurf.finite_field import FieldError, build_field
from hermsurf.forms import (
    FormError,
    form_from_json,
    form_to_json,
    intersection_stats,
)
from hermsurf.hermitian import HermitianSurface, LineKind, canonical_surface
from hermsurf.codes import code_report
from hermsurf.theorems import (
    BudgetExceededError,
    FalsificationError,
    check_theorems,
    build_extremal_pencil,
    build_grid_example,
    exhaustive_search,
    random_search,
    sorensen_bound,
)


# verify-counts scans every point of PG(3, q^2) once per plane: on one
# 2.1 GHz x86-64 core 13 s at q = 5, about 7 minutes at q = 7 (3.5 ms for
# each of 120,100 planes).  Every command that builds a surface shares it.
MAX_SURFACE_Q = 5


def _surface(q: int) -> HermitianSurface:
    """The canonical surface at q, or a ValueError above MAX_SURFACE_Q."""
    build_field(q)  # a q that is not a prime power is refused as such first
    if q > MAX_SURFACE_Q:
        raise ValueError(
            f"q={q} exceeds the limit q <= {MAX_SURFACE_Q} of commands that build the surface"
        )
    return canonical_surface(q)


def _emit(report: dict, meta: dict, out: str | None) -> None:
    doc = {"report": report, "meta": meta}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check(checks: list, name: str, expected, observed) -> None:
    checks.append(
        {"name": name, "expected": expected, "observed": observed, "pass": expected == observed}
    )


def census_report(q: int, seed: int = 0, samples_per_class: int = 50) -> dict:
    """The full count suite for the canonical surface at one q."""
    surface = canonical_surface(q)
    geom = surface.geometry
    checks: list[dict] = []

    _check(checks, "surface_point_count", (q**3 + 1) * (q**2 + 1), surface.n_surface_points())
    _check(checks, "generator_count", (q**3 + 1) * (q + 1), len(surface.generators()))

    # planar sections: sizes and the dual tangency criterion
    f = surface.field
    small, big = q**3 + 1, q**3 + q**2 + 1
    tangent_set = set(surface.tangent_planes())
    sizes_ok = dual_ok = True
    n_tangent = 0
    for plane in geom.points:  # dual coordinates enumerate like points
        ids = geom.plane_point_ids(plane)
        size = int((surface.position_of[ids] >= 0).sum())
        is_tangent = plane in tangent_set
        dual_sum = 0
        for c in plane:
            dual_sum = f.add(dual_sum, f.norm(c))
        if size != (big if is_tangent else small):
            sizes_ok = False
        if (dual_sum == 0) != is_tangent:
            dual_ok = False
        n_tangent += is_tangent
    _check(checks, "planar_section_sizes", True, sizes_ok)
    _check(checks, "dual_tangency_criterion", True, dual_ok)
    _check(checks, "tangent_plane_count", surface.n_surface_points(), n_tangent)

    # line trichotomy: full for small q, sampled otherwise
    rng = Random(seed)
    if geom.n_points <= 1000:
        lines = geom.enumerate_lines()
        counts = {LineKind.TANGENT: 0, LineKind.SECANT: 0, LineKind.GENERATOR: 0}
        for line in lines:
            counts[surface.classify_line(line).kind] += 1
        _check(checks, "line_total", (q**4 + 1) * (q**4 + q**2 + 1), len(lines))
        _check(checks, "trichotomy_generator_count", (q**3 + 1) * (q + 1), counts[LineKind.GENERATOR])
        _check(
            checks,
            "trichotomy_tangent_count",
            surface.n_surface_points() * (q**2 - q),
            counts[LineKind.TANGENT],
        )
        mode = "full"
    else:
        for _ in range(500):
            i, j = rng.sample(range(geom.n_points), 2)
            surface.classify_line(geom.line_between_ids(i, j))  # raises on impossible counts
        mode = "sampled"
    _check(checks, "line_trichotomy_mode", mode, mode)

    # books per line class
    want = {
        LineKind.GENERATOR: q**2 + 1,
        LineKind.TANGENT: 1,
        LineKind.SECANT: q + 1,
    }
    buckets = {kind: 0 for kind in want}
    books_ok = True
    gens = surface.generators()
    for idx in rng.sample(range(len(gens)), min(samples_per_class, len(gens))):
        if surface.classify_book(gens[idx]).tangent_plane_count != want[LineKind.GENERATOR]:
            books_ok = False
        buckets[LineKind.GENERATOR] += 1
    attempts = 0
    while (
        min(buckets[LineKind.TANGENT], buckets[LineKind.SECANT]) < samples_per_class
        and attempts < 100_000
    ):
        attempts += 1
        i, j = rng.sample(range(geom.n_points), 2)
        line = geom.line_between_ids(i, j)
        kind = surface.classify_line(line).kind
        if kind is LineKind.GENERATOR or buckets[kind] >= samples_per_class:
            continue
        if surface.classify_book(line).tangent_plane_count != want[kind]:
            books_ok = False
        buckets[kind] += 1
    _check(checks, "book_tangent_counts", True, books_ok)

    # tangent-plane line census at sampled surface points
    census_ok = True
    ids = [int(i) for i in surface.point_ids]
    for pid in rng.sample(ids, min(10, len(ids))):
        census = surface.tangent_plane_line_census(geom.points[pid])
        if census.generators != q + 1 or census.tangents_through_point != q**2 - q:
            census_ok = False
        if census.secants != census.total_lines - (q**2 + 1):
            census_ok = False
    _check(checks, "tangent_plane_line_census", True, census_ok)

    return {
        "q": q,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


# ----------------------------------------------------------------------
# subcommand drivers
# ----------------------------------------------------------------------

def _cmd_verify_counts(args) -> int:
    _surface(args.q)
    t0 = time.monotonic()
    report = census_report(args.q, seed=args.seed)
    _emit(report, _meta(args, t0), args.out)
    return 0 if report["pass"] else 1


def _cmd_search(args) -> int:
    surface = _surface(args.q)
    t0 = time.monotonic()
    if args.mode == "exhaustive":
        result = exhaustive_search(
            surface,
            args.d,
            budget=args.budget,
            workers=args.workers,
        )
    else:
        result = random_search(surface, args.d, args.samples, args.seed)
    report = result.to_json()
    report["sorensen_bound"] = sorensen_bound(args.q, args.d) if args.d <= args.q + 1 else None
    _emit(report, _meta(args, t0, wall_time=result.wall_time), args.out)
    return 0


def _cmd_extremal(args) -> int:
    surface = _surface(args.q)
    t0 = time.monotonic()
    form = build_extremal_pencil(surface, args.d)
    stats = intersection_stats(form, surface)
    report = {
        "form": form_to_json(form, args.q),
        "stats": stats.to_json(surface, verbose=args.verbose),
        "expected_x_count": sorensen_bound(args.q, args.d),
    }
    _emit(report, _meta(args, t0), args.out)
    return 0 if stats.x_count == report["expected_x_count"] else 2


def _cmd_grid(args) -> int:
    surface = _surface(args.q)
    field = surface.field
    if args.alpha is None:
        choices = [a for a in field.subfield_indices() if a not in (0, 1)]
        if not choices:
            raise FormError("the grid example needs q > 2 (no subfield element besides 0 and 1)")
        alpha = choices[0]
    else:
        alpha = args.alpha
    t0 = time.monotonic()
    form = build_grid_example(surface, alpha)
    stats = intersection_stats(form, surface)
    report = {
        "alpha": alpha,
        "form": form_to_json(form, args.q),
        "stats": stats.to_json(surface, verbose=args.verbose),
        "expected_x_count": sorensen_bound(args.q, args.q + 1),
    }
    _emit(report, _meta(args, t0), args.out)
    return 0 if stats.x_count == report["expected_x_count"] else 2


def _cmd_code(args) -> int:
    surface = _surface(args.q)
    t0 = time.monotonic()
    report = code_report(surface, args.d, budget=args.budget, collect_weights=bool(args.weight_csv))
    weights = report.pop("weight_distribution", None)
    if args.weight_csv and weights is not None:
        with open(args.weight_csv, "w") as fh:
            fh.write("weight,count\n")
            for w, c in weights.items():
                fh.write(f"{w},{c}\n")
    _emit(report, _meta(args, t0), args.out)
    return 0


def _cmd_check(args) -> int:
    with open(args.form_file) as fh:
        data = json.load(fh)
    if args.q is not None and int(data.get("q", args.q)) != args.q:
        raise FormError(f"form file is for q={data['q']}, got --q {args.q}")
    surface = _surface(int(data["q"]))
    form = form_from_json(surface.field, data)
    t0 = time.monotonic()
    stats = intersection_stats(form, surface)
    bounds = check_theorems(stats, surface)
    report = {
        "stats": stats.to_json(surface, verbose=args.verbose),
        "bounds": bounds.to_json(),
    }
    _emit(report, _meta(args, t0), args.out)
    return 0 if bounds.ok else 2


def _meta(args, t0: float, **extra) -> dict:
    meta = {
        "elapsed_s": round(time.monotonic() - t0, 3),
        "command": args.command,
    }
    meta.update(extra)
    return meta


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermsurf",
        description="Hermitian surface geometry over GF(q^2): counts, searches, codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, d_required=False):
        p.add_argument("--q", type=int, required=True, help=f"prime power, at most {MAX_SURFACE_Q}")
        if d_required:
            p.add_argument("--d", type=int, required=True, help="form degree")
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--verbose", action="store_true", help="include point lists in reports")

    p = sub.add_parser("verify-counts", help="run the census suite for one q")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    p = sub.add_parser("search", help="maximize |V(F) n V2| over degree-d forms")
    common(p, d_required=True)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--samples", type=int, default=100_000, help="random-mode sample count")
    p.add_argument("--seed", type=int, default=0, help="random-mode seed")
    p.add_argument("--budget", type=int, default=10_000_000, help="max scalar classes")
    p.add_argument(
        "--workers",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="parallel workers for exhaustive mode (1 = serial reference run)",
    )

    p = sub.add_parser("extremal", help="build the d-plane pencil attaining the bound")
    common(p, d_required=True)

    p = sub.add_parser("grid", help="build the degree-(q+1) two-ruling example (q > 2)")
    common(p)
    p.add_argument("--alpha", type=int, default=None,
                   help="subfield element index, not 0 or 1 (default: smallest valid)")

    p = sub.add_parser("code", help="evaluation code parameters [n, k, d]")
    common(p, d_required=True)
    p.add_argument("--budget", type=int, default=10_000_000, help="max codewords to enumerate")
    p.add_argument("--weight-csv", help="also write the weight distribution as CSV")

    p = sub.add_parser("check", help="full report for a serialized form")
    p.add_argument("form_file", help="JSON file: {q, d, terms: [[[e0,e1,e2,e3], c], ...]}")
    p.add_argument("--q", type=int, default=None, help="cross-check the form file's q")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--verbose", action="store_true")
    return parser


_COMMANDS = {
    "verify-counts": _cmd_verify_counts,
    "search": _cmd_search,
    "extremal": _cmd_extremal,
    "grid": _cmd_grid,
    "code": _cmd_code,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FalsificationError as err:
        doc = {"falsification": str(err), "witness": err.witness}
        sys.stderr.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return 2
    except (FieldError, FormError, BudgetExceededError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
