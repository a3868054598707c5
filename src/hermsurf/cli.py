"""Command-line interface.

Subcommands: verify-counts, search, extremal, grid, code, check.  Every
run writes one JSON document, either to --out or to stdout, of the shape

    {"report": {...}, "meta": {...}}

The report body is byte-reproducible for identical configuration; wall times
and other run metadata live only under "meta".  ``_dumps`` writes every
document in one join, a search report's argmax forms as one ``_Fragment``.
Exit status: 0 on success, 1 on usage or input errors, 2 when a proved bound
fails on some examined form (the offending form is serialized in the report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from functools import cache, partial, reduce
from json.encoder import encode_basestring_ascii
from random import Random

import numpy as np

from hermsurf.finite_field import FieldError, _prime_power
from hermsurf.forms import (
    FormError,
    form_from_json,
    form_json_q,
    intersection_stats,
    monomials,
)
from hermsurf.hermitian import HermitianSurface, canonical_surface
from hermsurf.proj_geometry import join_basis, span_ids
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


# The largest q at which every command that builds the surface is timed.
# The slowest is verify-counts, whose plane census spans the q^4+q^2+1
# planes through each surface point and so grows as q^9: on one 2.0 GHz
# x86-64 core, 2-4 s at q = 8 (extremal, grid and check at d = 9 take 0.4-0.6 s,
# the surface and its generators 0.4 s); the census alone takes 9.5 s at q = 9.
MAX_SURFACE_Q = 8
_BOOK_SAMPLES = 50  # lines of each class whose book the census checks


def _surface(q: int) -> HermitianSurface:
    """The canonical surface at q, or a ValueError above MAX_SURFACE_Q."""
    _prime_power(q)  # refuses a q that is not a prime power as such, and builds no field
    if q > MAX_SURFACE_Q:
        raise ValueError(
            f"q={q} exceeds the limit q <= {MAX_SURFACE_Q} of commands that build the surface"
        )
    return canonical_surface(q)


class _Fragment(partial):
    """A value's JSON text: fragment(indent) is what _dumps writes for it there."""


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, as one join of the pieces that
    _write appends, so no text, a large _Fragment's included, is copied at each nesting level."""
    out: list[str] = []
    _write(value, indent, out.append)
    return "".join(out)


def _write(value, indent: str, append) -> None:
    """Append _dumps(value, indent)'s pieces, indent being the newline and indentation of value's
    line; dict keys must be str.  A _Fragment, refused by json.dumps, writes fragment(indent)."""
    if isinstance(value, str):
        append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        append(json.dumps(value))
    elif isinstance(value, (list, tuple, dict)) and not value:
        append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        for i, v in enumerate(value):
            append(("," if i else "[") + inner)
            _write(v, inner, append)
        append(indent + "]")
    elif isinstance(value, dict):
        inner = indent + "  "
        for i, k in enumerate(sorted(value)):
            append(("," if i else "{") + inner + encode_basestring_ascii(k) + ": ")
            _write(value[k], inner, append)
        append(indent + "}")
    elif isinstance(value, _Fragment):
        append(value(indent))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _form_frame(q: int, d: int, indent: str):
    """(head, sep, tail, term) of a degree-d form written at indent, with no
    nested lists: _dumps(form_to_json(form, q), indent) is
    head + sep.join([term(*m, c) for m, c in form.terms()]) + tail."""
    inner, deep = indent + "  ", indent + "    "
    i1, i2 = deep + "  ", deep + "    "
    term = f"[{i1}[{i2}{{}},{i2}{{}},{i2}{{}},{i2}{{}}{i1}],{i1}{{}}{deep}]".format
    head = f'{{{inner}"d": {d},{inner}"q": {q},{inner}"terms": [{deep}'
    return head, "," + deep, inner + "]" + indent + "}", term


def _form_text(form, indent: str) -> str:
    """_dumps(form_to_json(form, form.field.q), indent), from _form_frame."""
    head, sep, tail, term = _form_frame(form.field.q, form.degree, indent)
    return head + sep.join([term(*m, c) for m, c in form.terms()]) + tail


def _forms_text(q: int, d: int, vectors: np.ndarray, indent: str) -> str:
    """_dumps([vector_to_json(q, d, v) for v in vectors], indent) for an (R, M) array of nonzero
    vectors: one join of pieces gathered from an object array by an index array, the text before
    the first form and before each other, then the term text of each (monomial index, coefficient)
    used, without and with its separator."""
    if not len(vectors):
        return "[]"
    inner, order = indent + "  ", q * q
    head, sep, tail, term = _form_frame(q, d, inner)
    (rows, cols), index = np.nonzero(vectors), np.full((len(vectors), vectors.shape[1] + 1), -1)
    keys, present = cols * order + vectors[rows, cols], np.zeros(vectors.shape[1] * order, bool)
    present[keys] = True  # the pairs used, ascending, are ranked by a cumulative sum: no sort
    used, which = np.flatnonzero(present), np.cumsum(present)[keys] - 1
    terms = [term(*monomials(d)[k // order], k % order) for k in used.tolist()]
    pieces = ["[" + inner + head, tail + "," + inner + head, *terms, *[sep + t for t in terms]]
    index[:, 0], index[0, 0] = 1, 0  # a row per form: the text before it, then its terms
    index[rows, cols + 1] = 2 + which + len(used) * np.r_[False, rows[1:] == rows[:-1]]
    return "".join(np.array(pieces, dtype=object)[index[index >= 0]].tolist()) + tail + indent + "]"


def _emit(report: dict, meta: dict, out: str | None) -> None:
    text = _dumps({"report": report, "meta": meta}) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check(checks: list, name: str, expected, observed) -> None:
    checks.append(
        {"name": name, "expected": expected, "observed": observed, "pass": expected == observed}
    )


def census_report(q: int, seed: int = 0) -> dict:
    """The full count suite for the canonical surface at one q."""
    surface = canonical_surface(q)
    geom = surface.geometry
    checks: list[dict] = []

    _check(checks, "surface_point_count", (q**3 + 1) * (q**2 + 1), surface.n_surface_points())
    _check(checks, "generator_count", (q**3 + 1) * (q + 1), len(surface.generators()))

    # planar sections: sizes and the dual tangency criterion, by plane id
    f = surface.field
    small, big = q**3 + 1, q**3 + q**2 + 1
    tangent = np.zeros(geom.n_points, dtype=bool)
    tangent[surface.tangent_plane_ids()] = True
    sizes = surface.plane_section_sizes()
    dual_sum = reduce(f.vadd, f.norm_np[geom.arr.T])  # dual coordinates enumerate like points
    sizes_ok = bool((sizes == np.where(tangent, big, small)).all())
    _check(checks, "planar_section_sizes", True, sizes_ok)
    _check(checks, "dual_tangency_criterion", True, bool(((dual_sum == 0) == tangent).all()))
    _check(checks, "tangent_plane_count", surface.n_surface_points(), int(tangent.sum()))

    # line trichotomy: full for small q, sampled otherwise (line_counts checks each count)
    rng = Random(seed)
    if geom.n_points <= 1000:
        counts = surface.line_counts(geom.line_ids(np.eye(4)))
        _check(checks, "line_total", (q**4 + 1) * (q**4 + q**2 + 1), len(counts))
        _check(checks, "trichotomy_generator_count", (q**3 + 1) * (q + 1),
               int((counts == q**2 + 1).sum()))
        _check(checks, "trichotomy_tangent_count", surface.n_surface_points() * (q**2 - q),
               int((counts == 1).sum()))
        mode = "full"
    else:
        pairs = np.array([rng.sample(range(geom.n_points), 2) for _ in range(500)])
        surface.line_counts(span_ids(f, join_basis(f, *geom.arr[pairs.T])))
        mode = "sampled"
    _check(checks, "line_trichotomy_mode", mode, mode)

    # books by their line's surface count, which is also their number of tangent
    # planes; a round draws as many pairs as still needed, as one draw fills one class
    gens = surface.generators()
    picked = rng.sample(range(len(gens)), min(_BOOK_SAMPLES, len(gens)))
    books = {1: [], q + 1: [], q**2 + 1: [gens[i].key for i in picked]}
    attempts = 0
    while (need := 2 * _BOOK_SAMPLES - len(books[1]) - len(books[q + 1])) and attempts < 100_000:
        pairs = [rng.sample(range(geom.n_points), 2) for _ in range(min(need, 100_000 - attempts))]
        attempts += len(pairs)
        bases = join_basis(f, *geom.arr[np.array(pairs).T])
        for pair, count in zip(pairs, surface.line_counts(span_ids(f, bases)).tolist()):
            if count != q**2 + 1 and len(books[count]) < _BOOK_SAMPLES:
                books[count].append(pair)
    counts, pairs = zip(*[(count, pair) for count, lines in books.items() for pair in lines])
    tangency = surface.book_tangency(*geom.arr[np.array(pairs).T])
    _check(checks, "book_tangent_counts", True, bool(((tangency >= 0).sum(1) == counts).all()))

    # tangent-plane line census at sampled surface points
    n = surface.n_surface_points()
    censuses = surface.tangent_plane_line_census(surface.arr[rng.sample(range(n), min(10, n))])
    census_ok = all((c.generators, c.tangents_through_point, c.secants)
                    == (q + 1, q**2 - q, c.total_lines - (q**2 + 1)) for c in censuses)
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
    if args.workers < 1:  # refused in random mode too, where no worker runs
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    if args.mode == "random" and args.samples > args.budget:  # before the draws' array exists
        raise BudgetExceededError(f"{args.samples} samples exceed the budget {args.budget}")
    surface = _surface(args.q)
    t0 = time.monotonic()
    if args.mode == "exhaustive":
        result = exhaustive_search(surface, args.d, budget=args.budget, workers=args.workers)
    else:
        result = random_search(surface, args.d, args.samples, args.seed)
    report = replace(result, argmax_vectors=result.argmax_vectors[:0]).to_json()
    report["argmax_forms"] = _Fragment(_forms_text, args.q, args.d, result.argmax_vectors)
    report["sorensen_bound"] = sorensen_bound(args.q, args.d) if args.d <= args.q + 1 else None
    _emit(report, _meta(args, t0, wall_time=result.wall_time), args.out)
    return 0


def _cmd_extremal(args) -> int:
    surface = _surface(args.q)
    t0 = time.monotonic()
    return _example_report(args, surface, build_extremal_pencil(surface, args.d), t0)


def _cmd_grid(args) -> int:
    surface = _surface(args.q)
    alpha = args.alpha
    if alpha is None:  # the smallest valid one; at q = 2 there is none, and the example refuses q
        alpha = next((a for a in surface.field.subfield_indices() if a > 1), 0)
    t0 = time.monotonic()
    return _example_report(args, surface, build_grid_example(surface, alpha), t0, alpha=alpha)


def _example_report(args, surface: HermitianSurface, form, t0: float, **extra) -> int:
    """Emit a constructed form's statistics; exit 2 unless its x count
    attains the Sorensen bound at its degree."""
    stats = intersection_stats(form, surface)
    report = {
        **extra,
        "form": _Fragment(_form_text, form),
        "stats": _stats_json(stats, surface, args.verbose),
        "expected_x_count": sorensen_bound(args.q, form.degree),
    }
    _emit(report, _meta(args, t0), args.out)
    return 0 if stats.x_count == report["expected_x_count"] else 2


def _stats_json(stats, surface: HermitianSurface, verbose: bool) -> dict:
    """stats.to_json, with the form written by _form_text."""
    return {**stats.to_json(surface, verbose=verbose), "form": _Fragment(_form_text, stats.form)}


def _cmd_code(args) -> int:
    surface = _surface(args.q)
    t0 = time.monotonic()
    report = code_report(surface, args.d, budget=args.budget)
    weights = report.pop("weight_distribution")
    if args.weight_csv and weights is not None:
        with open(args.weight_csv, "w") as fh:
            fh.write("weight,count\n")
            for w, c in weights.items():
                fh.write(f"{w},{c}\n")
    _emit(report, _meta(args, t0), args.out)
    return 0


def _cmd_check(args) -> int:
    with open(args.form_file) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise FormError(f"{args.form_file} nests its JSON too deeply") from None
    q = form_json_q(data)
    if args.q is not None and q != args.q:
        raise FormError(f"form file is for q={q}, got --q {args.q}")
    surface = _surface(q)
    form = form_from_json(surface.field, data)
    t0 = time.monotonic()
    stats = intersection_stats(form, surface)
    bounds = check_theorems(stats, surface)
    report = {
        "stats": _stats_json(stats, surface, args.verbose),
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


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as exit 2 means a failed proved bound."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = _Parser(
        prog="hermsurf",
        description="Hermitian surface geometry over GF(q^2): counts, searches, codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, d_required=False):
        p.add_argument("--q", type=int, required=True,
                       help=f"prime power, at most {MAX_SURFACE_Q} (verify-counts takes about"
                            f" 3 s at q={MAX_SURFACE_Q})")
        if d_required:
            p.add_argument("--d", type=int, required=True, help="form degree")
        p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("verify-counts", help="run the census suite for one q")
    p.set_defaults(run=_cmd_verify_counts)
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    p = sub.add_parser("search", help="maximize |V(F) n V2| over degree-d forms")
    p.set_defaults(run=_cmd_search)
    common(p, d_required=True)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--samples", type=int, default=100_000, help="random-mode sample count")
    p.add_argument("--seed", type=int, default=0, help="random-mode seed")
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="max scalar classes scanned, or samples drawn in random mode")
    p.add_argument(
        "--workers",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="parallel workers for exhaustive mode, at most the CPU count"
             " (1 = serial reference run)",
    )

    p = sub.add_parser("extremal", help="build the d-plane pencil attaining the bound")
    p.set_defaults(run=_cmd_extremal)
    common(p, d_required=True)
    p.add_argument("--verbose", action="store_true", help="include point lists in reports")

    p = sub.add_parser("grid", help="build the degree-(q+1) two-ruling example (q > 2)")
    p.set_defaults(run=_cmd_grid)
    common(p)
    p.add_argument("--verbose", action="store_true", help="include point lists in reports")
    p.add_argument("--alpha", type=int, default=None,
                   help="subfield element index, not 0 or 1 (default: smallest valid)")

    p = sub.add_parser("code", help="evaluation code parameters [n, k, d]")
    p.set_defaults(run=_cmd_code)
    common(p, d_required=True)
    p.add_argument("--budget", type=int, default=10_000_000, help="max codewords to enumerate")
    p.add_argument("--weight-csv", help="also write the weight distribution as CSV")

    p = sub.add_parser("check", help="full report for a serialized form")
    p.set_defaults(run=_cmd_check)
    p.add_argument("form_file", help="JSON file: {q, d, terms: [[[e0,e1,e2,e3], c], ...]}")
    p.add_argument("--q", type=int, default=None, help="cross-check the form file's q")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--verbose", action="store_true", help="include point lists in reports")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except FalsificationError as err:
        doc = {"falsification": str(err), "witness": err.witness}
        sys.stderr.write(_dumps(doc) + "\n")
        return 2
    except (FieldError, FormError, BudgetExceededError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
