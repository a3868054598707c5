"""Upper bounds on |V(F) n V2| and search drivers that try to break them.

Bound formulas (all exact, Fractions where a ratio appears):

    sorensen_bound(q, d)                 d(q^3 + q^2 - q) + q + 1
    incidence_bound(q, d, delta)         d(q^3+q^2-d+2) - delta/(q+1) * (q^2-d+1)
    residual_point_bound(q, d)           dq^3 + (d-1)q^2 + 1 - (d-1)(d-2)
    book_bound(q, d, X)                  q^2 + 1 + (d-1)(q^3+q) + (q^2-q)X
    multiplicity_bound(q, d, delta, X)   (d(q+1)-delta)(q^2+1 - X/d)
    no_tangent_plane_bound(q, d)         dq^3 + (d-1)q^2 + 1

Applicability (the surface equation must not divide F in all cases):

    incidence_bound        always
    residual_point_bound   a rational point of X off every J_F line exists
    book_bound,
    multiplicity_bound     no tangent plane in V(F), no such off-line point,
                           and J_F nonempty (both need X)
    no_tangent_plane_bound no tangent plane contained in V(F)
    plane_union_bound      V(F) is not a union of tangent planes (the value
                           is no_tangent_plane_bound); checked by
                           ``check_theorems`` via explicit factorization
    sorensen_bound         d <= q, and d = q+1 (non-multiples only)

An applicable bound that fails is a falsification event: the search
drivers raise ``FalsificationError`` with the offending form serialized.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from random import Random

import numpy as np

from hermsurf.finite_field import Field
from hermsurf.forms import (
    Form,
    FormError,
    IntersectionReport,
    class_count,
    class_vectors,
    combination_values,
    exact_quotient,
    form_from_vector,
    form_to_json,
    hermitian_divides,
    intersection_stats,
    linear_form,
    monomial_count,
    monomial_matrix,
    vanishing_tangent_planes,
)
from hermsurf.hermitian import HermitianSurface, LineKind
from hermsurf.proj_geometry import normalize


class BudgetExceededError(ValueError):
    pass


class FalsificationError(AssertionError):
    """An applicable proved bound failed; carries the witness form."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


# ----------------------------------------------------------------------
# bound formulas
# ----------------------------------------------------------------------

def sorensen_bound(q: int, d: int) -> int:
    return d * (q**3 + q**2 - q) + q + 1


def incidence_bound(q: int, d: int, delta: int) -> Fraction:
    return Fraction(d * (q**3 + q**2 - d + 2)) - Fraction(delta, q + 1) * (q**2 - d + 1)


def residual_point_bound(q: int, d: int) -> int:
    return d * q**3 + (d - 1) * q**2 + 1 - (d - 1) * (d - 2)


def book_bound(q: int, d: int, x_min: int) -> int:
    return q**2 + 1 + (d - 1) * (q**3 + q) + (q**2 - q) * x_min


def multiplicity_bound(q: int, d: int, delta: int, x_min: int) -> Fraction:
    return (d * (q + 1) - delta) * (Fraction(q**2 + 1) - Fraction(x_min, d))


def no_tangent_plane_bound(q: int, d: int) -> int:
    return d * q**3 + (d - 1) * q**2 + 1


@dataclass(frozen=True)
class BoundCheck:
    value: Fraction
    applicable: bool
    satisfied: bool | None  # None when not applicable

    def to_json(self) -> dict:
        return {
            "value": [self.value.numerator, self.value.denominator],
            "applicable": self.applicable,
            "satisfied": self.satisfied,
        }


@dataclass
class BoundReport:
    q: int
    d: int
    x_count: int
    delta: int | None
    x_min: int | None
    hermitian_multiple: bool
    contains_tangent_plane: bool
    residual_point_exists: bool
    jf_empty: bool
    tangent_plane_union: bool | None  # None when not analyzed
    checks: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.satisfied is not False for c in self.checks.values())

    def violations(self) -> list[str]:
        return [name for name, c in self.checks.items() if c.satisfied is False]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "x_count": self.x_count,
            "delta": self.delta,
            "x_min": self.x_min,
            "flags": {
                "hermitian_multiple": self.hermitian_multiple,
                "contains_tangent_plane": self.contains_tangent_plane,
                "residual_point_exists": self.residual_point_exists,
                "jf_empty": self.jf_empty,
                "tangent_plane_union": self.tangent_plane_union,
            },
            "checks": {name: c.to_json() for name, c in sorted(self.checks.items())},
            "ok": self.ok,
        }


def evaluate_bounds(report: IntersectionReport) -> BoundReport:
    """Evaluate every bound formula against one intersection report."""
    if report.hermitian_multiple:
        raise FormError("bounds do not apply when the surface equation divides the form")
    q, d, x = report.q, report.d, report.x_count
    delta = report.delta
    x_min = report.x_min
    jf_empty = report.jf_count == 0
    residual = bool(report.residual_ids)
    no_tangent = not report.contains_tangent_plane

    out = BoundReport(
        q=q, d=d, x_count=x, delta=delta, x_min=x_min,
        hermitian_multiple=False,
        contains_tangent_plane=report.contains_tangent_plane,
        residual_point_exists=residual,
        jf_empty=jf_empty,
        tangent_plane_union=None,
    )

    def check(name: str, value, applicable: bool):
        value = Fraction(value)
        out.checks[name] = BoundCheck(value, applicable, (x <= value) if applicable else None)

    check("incidence_bound", incidence_bound(q, d, delta), True)
    check("residual_point_bound", residual_point_bound(q, d), residual)
    xdep = no_tangent and not residual and not jf_empty
    check("book_bound", book_bound(q, d, x_min) if x_min is not None else 0, xdep)
    check(
        "multiplicity_bound",
        multiplicity_bound(q, d, delta, x_min) if x_min is not None else 0,
        xdep,
    )
    check("no_tangent_plane_bound", no_tangent_plane_bound(q, d), no_tangent)
    check("sorensen_bound", sorensen_bound(q, d), d <= q + 1)
    return out


# ----------------------------------------------------------------------
# structural detection and theorem-level checking
# ----------------------------------------------------------------------

def _linear_plane(form: Form) -> tuple[int, ...]:
    """Normalized dual coordinates of the plane cut out by a linear form."""
    vec = [0, 0, 0, 0]
    for m, c in form.coeffs.items():
        vec[m.index(1)] = c
    return normalize(form.field, vec)


def tangent_plane_factors(report: IntersectionReport,
                          surface: HermitianSurface) -> list[tuple[int, ...]] | None:
    """If the report's form is a product of tangent-plane linear forms,
    return the planes (with multiplicity, smallest dual tuples first);
    else None.

    Iterated exact division.  The factor order does not matter since the
    polynomial ring is a UFD.  Candidate planes are the tangent planes
    whose surface section lies in the report's X (a divisor plane always
    does), so non-products fail fast.
    """
    f = surface.field
    x_positions = surface.position_of[list(report.x_point_ids)]
    candidates = sorted(vanishing_tangent_planes(surface, x_positions))
    if not candidates:
        return None

    rest = report.form
    factors: list[tuple[int, ...]] = []
    while rest.degree > 1:
        for plane in candidates:
            quo = exact_quotient(rest, linear_form(f, plane))
            if quo is not None:
                factors.append(plane)
                rest = quo
                break
        else:
            return None
    plane = _linear_plane(rest)
    if plane in surface.tangent_planes():
        factors.append(plane)
        return sorted(factors)
    return None


def check_theorems(report: IntersectionReport, surface: HermitianSurface) -> BoundReport:
    """Full per-form verdict from the form's intersection stats: every
    bound, and the union-of-tangent-planes structural test."""
    if report.hermitian_multiple:
        out = BoundReport(
            q=report.q, d=report.d, x_count=report.x_count,
            delta=None, x_min=None, hermitian_multiple=True,
            contains_tangent_plane=report.contains_tangent_plane,
            residual_point_exists=False, jf_empty=True,
            tangent_plane_union=None,
        )
        return out
    bounds = evaluate_bounds(report)
    factors = tangent_plane_factors(report, surface)
    union = factors is not None
    bounds.tangent_plane_union = union
    value = Fraction(no_tangent_plane_bound(report.q, report.d))
    bounds.checks["plane_union_bound"] = BoundCheck(
        value, not union, (report.x_count <= value) if not union else None
    )
    # structural shadow of the residual-curve argument: an off-line
    # rational point forces delta >= q+1
    if report.residual_ids:
        bounds.checks["residual_delta"] = BoundCheck(
            Fraction(report.delta), True, report.delta >= report.q + 1
        )
    return bounds


# ----------------------------------------------------------------------
# extremal constructions
# ----------------------------------------------------------------------

def canonical_secant(surface: HermitianSurface):
    """The line {x2 = x3 = 0} when it is secant (true for the canonical
    surface); otherwise the first secant in enumeration order."""
    geom = surface.geometry
    line = geom.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    if surface.classify_line(line).kind is LineKind.SECANT:
        return line
    for i in range(geom.n_points):
        for j in range(i + 1, geom.n_points):
            line = geom.line_between_ids(i, j)
            if surface.classify_line(line).kind is LineKind.SECANT:
                return line
    raise FormError("no secant line found")  # impossible for rank 4


def tangent_planes_through(surface: HermitianSurface, line) -> list[tuple[int, ...]]:
    planes = surface.tangent_planes()
    return sorted(p for p in surface.geometry.book_of_planes(line) if p in planes)


def build_extremal_pencil(surface: HermitianSurface, d: int) -> Form:
    """Product of d tangent planes through a common secant line; meets the
    surface in exactly d(q^3 + q^2 - q) + q + 1 rational points."""
    q = surface.q
    if not 1 <= d <= q + 1:
        raise FormError(f"d must be in 1..q+1 (a secant book has only q+1 tangent planes), got {d}")
    secant = canonical_secant(surface)
    planes = tangent_planes_through(surface, secant)
    form = linear_form(surface.field, planes[0])
    for plane in planes[1:d]:
        form = form * linear_form(surface.field, plane)
    return form


def build_grid_example(surface: HermitianSurface, alpha: int) -> Form:
    """alpha(x0^(q+1) + x1^(q+1)) + x2^(q+1) + x3^(q+1) for alpha in the
    subfield, alpha not 0 or 1.  Needs q > 2.  Contains no plane, is not
    a multiple of the surface equation, and meets the canonical surface
    in (q+1)^2 generators: (q+1)(q^3+q^2-q) + q + 1 rational points."""
    f = surface.field
    q = surface.q
    if q <= 2:
        raise FormError("the grid example needs q > 2")
    if alpha in (0, 1) or alpha not in f.subfield_indices():
        raise FormError(f"alpha must be a subfield element other than 0 and 1, got {alpha}")
    e = q + 1
    coeffs = {
        (e, 0, 0, 0): alpha,
        (0, e, 0, 0): alpha,
        (0, 0, e, 0): 1,
        (0, 0, 0, e): 1,
    }
    return Form(f, e, coeffs)


# ----------------------------------------------------------------------
# search drivers
# ----------------------------------------------------------------------

@dataclass
class SearchResult:
    q: int
    d: int
    mode: str
    examined: int
    skipped_hermitian_multiples: int
    max_count: int
    argmax_forms: list[Form]
    argmax_total: int
    seed: int | None
    samples: int | None
    wall_time: float

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "mode": self.mode,
            "examined": self.examined,
            "skipped_hermitian_multiples": self.skipped_hermitian_multiples,
            "max_count": self.max_count,
            "argmax_total": self.argmax_total,
            "argmax_forms": [form_to_json(f, self.q) for f in self.argmax_forms],
            "seed": self.seed,
            "samples": self.samples,
        }


class _SearchContext:
    """Precomputed per-(q, d) state for vectorized block scanning."""

    def __init__(self, surface: HermitianSurface, d: int):
        self.surface = surface
        self.field = surface.field
        self.q = surface.q
        self.d = d
        self.n = surface.n_surface_points()
        self.rows = monomial_matrix(self.field, d, surface.arr)
        self.m = self.rows.shape[0]
        # a binary form of degree d <= q^2 with d+1 zeros on a line is zero
        # there, so d+1 points of each generator decide its containment
        self.gen_pos = surface.generator_positions()[:, : d + 1]
        q = self.q
        # cross-multiplied incidence bound: (q+1)|X| <= rhs[jf_count]
        deltas = np.arange(d * (q + 1) + 1)
        jf = d * (q + 1) - deltas
        rhs = d * (q + 1) * (q**3 + q**2 - d + 2) - deltas * (q**2 - d + 1)
        self.incidence_rhs = np.zeros(d * (q + 1) + 1, dtype=np.int64)
        self.incidence_rhs[jf] = rhs
        self.sorensen = sorensen_bound(q, d) if d <= q + 1 else None
        # exactness guard for the rational generator-containment filter
        if d > q * q:
            raise FormError(
                "vectorized scanning requires d <= q^2 (rational containment is exact there)"
            )

    def scan(self, coeffs: np.ndarray):
        """Return (x_counts, jf_counts) for a block of coefficient rows."""
        values = combination_values(self.field, self.rows, coeffs)
        zero = values == 0
        x_counts = np.count_nonzero(zero, axis=1)
        jf_counts = np.count_nonzero(zero[:, self.gen_pos].all(axis=2), axis=1)
        return x_counts, jf_counts

    def check_block(self, coeffs: np.ndarray, x_counts, jf_counts, keep: np.ndarray):
        """Raise FalsificationError if a kept row beats a proved bound."""
        lhs = x_counts * (self.q + 1)
        top = len(self.incidence_rhs) - 1
        over = jf_counts > top  # |J_F| > d(q+1) would itself refute deg X = d(q+1)
        bad = keep & (over | (lhs > self.incidence_rhs[np.minimum(jf_counts, top)]))
        if self.sorensen is not None:
            bad |= keep & (x_counts > self.sorensen)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            form = form_from_vector(self.field, self.d, coeffs[i])
            confirm = check_theorems(intersection_stats(form, self.surface), self.surface)
            raise FalsificationError(
                f"bound violated at q={self.q} d={self.d}: |X|={int(x_counts[i])}",
                {"form": form_to_json(form, self.q), "report": confirm.to_json()},
            )


@dataclass
class _Tally:
    max_count: int = -1
    argmax: list = dc_field(default_factory=list)
    total: int = 0
    examined: int = 0
    skipped: int = 0

    def merge(self, other: "_Tally", cap: int):
        self.examined += other.examined
        self.skipped += other.skipped
        if other.max_count > self.max_count:
            self.max_count = other.max_count
            self.argmax = list(other.argmax)
            self.total = other.total
        elif other.max_count == self.max_count:
            self.total += other.total
            self.argmax.extend(other.argmax[: max(0, cap - len(self.argmax))])


def _scan_block(ctx: _SearchContext, coeffs: np.ndarray, keys, tally: _Tally, cap: int):
    x_counts, jf_counts = ctx.scan(coeffs)
    keep = np.ones(len(coeffs), dtype=bool)
    if ctx.d >= ctx.q + 1:
        for i in np.nonzero(x_counts == ctx.n)[0]:
            form = form_from_vector(ctx.field, ctx.d, coeffs[int(i)])
            if hermitian_divides(form, ctx.surface):
                keep[int(i)] = False
    ctx.check_block(coeffs, x_counts, jf_counts, keep)
    kept = np.flatnonzero(keep)
    block = _Tally(examined=len(kept), skipped=len(coeffs) - len(kept))
    if len(kept):
        counts = x_counts[kept]
        block.max_count = int(counts.max())
        hits = kept[counts == block.max_count]
        block.total = len(hits)
        block.argmax = [keys[int(i)] for i in hits[:cap]]
    tally.merge(block, cap)


_WORKER_CTX: dict = {}


def _init_worker(q: int, matrix, d: int):
    from hermsurf.finite_field import build_field

    surface = HermitianSurface(build_field(q), matrix)
    surface.generators()
    _WORKER_CTX["ctx"] = _SearchContext(surface, d)


def _scan_range(ctx: _SearchContext, start: int, stop: int, block: int, cap: int,
                progress: bool) -> _Tally:
    tally = _Tally()
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        coeffs = class_vectors(ctx.field, ctx.m, lo, hi)
        _scan_block(ctx, coeffs, range(lo, hi), tally, cap)
        if progress and lo // 1_000_000 != hi // 1_000_000:
            print(f"scanned {hi}/{stop} classes", file=sys.stderr)
    return tally


def _worker_scan_range(start: int, stop: int, block: int, cap: int):
    # a violation travels back as a dict: FalsificationError does not
    # unpickle, since its constructor needs the witness
    try:
        return _scan_range(_WORKER_CTX["ctx"], start, stop, block, cap, False)
    except FalsificationError as err:
        return {"violation": err.witness, "message": str(err)}


def exhaustive_search(
    surface: HermitianSurface,
    d: int,
    *,
    budget: int = 10_000_000,
    workers: int = 1,
    block: int = 8192,
    argmax_cap: int = 4096,
    progress: bool = True,
) -> SearchResult:
    """Scan every scalar class of degree-d forms, tracking max |X|.

    Every scanned form is checked against the incidence bound and (for
    d <= q+1) the Sorensen bound; a violation aborts the scan.  At
    d >= q+1, multiples of the surface equation are skipped and counted
    separately.
    """
    total = class_count(surface.field.order, monomial_count(d))
    if total > budget:
        raise BudgetExceededError(
            f"{total} scalar classes exceed the budget {budget}; use random_search"
        )
    ctx = _SearchContext(surface, d)
    start_t = time.monotonic()

    if workers <= 1:
        tally = _scan_range(ctx, 0, total, block, argmax_cap, progress)
    else:
        chunk = max(block, (total + workers * 4 - 1) // (workers * 4))
        ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(surface.q, surface.matrix, d),
        ) as pool:
            futures = [pool.submit(_worker_scan_range, lo, hi, block, argmax_cap) for lo, hi in ranges]
            results = [fut.result() for fut in futures]
        for res in results:
            if isinstance(res, dict):
                raise FalsificationError(res["message"], res["violation"])
        tally = _Tally()
        for res in results:
            tally.merge(res, argmax_cap)

    argmax_forms = [
        form_from_vector(surface.field, d, class_vectors(surface.field, ctx.m, i, i + 1)[0])
        for i in sorted(tally.argmax)
    ]
    return SearchResult(
        q=surface.q, d=d, mode="exhaustive",
        examined=tally.examined,
        skipped_hermitian_multiples=tally.skipped,
        max_count=tally.max_count,
        argmax_forms=argmax_forms,
        argmax_total=tally.total,
        seed=None, samples=None,
        wall_time=time.monotonic() - start_t,
    )


def _random_linear(field: Field, rng: Random) -> Form:
    while True:
        vec = [rng.randrange(field.order) for _ in range(4)]
        if any(vec):
            return linear_form(field, vec)


def _random_secant_pencil_factors(surface: HermitianSurface, rng: Random, d: int):
    geom = surface.geometry
    ids = [int(i) for i in surface.point_ids]
    while True:
        a, b = rng.sample(ids, 2)
        line = geom.line_between_ids(a, b)
        if surface.classify_line(line).kind is LineKind.SECANT:
            break
    planes = tangent_planes_through(surface, line)
    return [linear_form(surface.field, rng.choice(planes)) for _ in range(d)]


def random_search(
    surface: HermitianSurface,
    d: int,
    samples: int,
    seed: int,
    *,
    block: int = 4096,
    argmax_cap: int = 4096,
) -> SearchResult:
    """Reproducible random scan: half uniform coefficient vectors, half
    structured products of linear forms (every other structured draw uses
    tangent planes through a common secant, the conjectured extremals).

    Output is fully determined by (seed, samples, q, d).
    """
    if samples < 1:
        raise FormError("samples must be >= 1")
    ctx = _SearchContext(surface, d)
    rng = Random(seed)
    start_t = time.monotonic()

    seen: set[tuple[int, ...]] = set()
    vectors: list[tuple[int, ...]] = []
    skipped = 0
    for i in range(samples):
        if i % 2 == 0:
            vec = [0] * ctx.m
            while not any(vec):
                vec = [rng.randrange(surface.field.order) for _ in range(ctx.m)]
            form = form_from_vector(surface.field, d, vec)
        else:
            if i % 4 == 1 and d <= surface.q + 1:
                factors = _random_secant_pencil_factors(surface, rng, d)
            else:
                factors = [_random_linear(surface.field, rng) for _ in range(d)]
            form = factors[0]
            for g in factors[1:]:
                form = form * g
        form = form.normalized()
        if d >= surface.q + 1 and hermitian_divides(form, surface):
            skipped += 1
            continue
        vec = form.coefficient_vector()
        if vec not in seen:
            seen.add(vec)
            vectors.append(vec)

    tally = _Tally()
    tally.skipped = skipped
    for lo in range(0, len(vectors), block):
        chunk = vectors[lo : lo + block]
        coeffs = np.array(chunk, dtype=np.int16)
        _scan_block(ctx, coeffs, chunk, tally, argmax_cap)

    argmax_forms = [
        form_from_vector(surface.field, d, vec) for vec in sorted(tally.argmax)
    ]
    return SearchResult(
        q=surface.q, d=d, mode="random",
        examined=tally.examined,
        skipped_hermitian_multiples=tally.skipped,
        max_count=tally.max_count,
        argmax_forms=argmax_forms,
        argmax_total=tally.total,
        seed=seed, samples=samples,
        wall_time=time.monotonic() - start_t,
    )
