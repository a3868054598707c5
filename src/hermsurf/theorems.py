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
    residual_point_bound   a rational point of X off every J_F line exists,
                           and d <= q^2+1 (the value is incidence_bound at
                           delta = q+1, and such a point forces
                           delta >= q+1; the incidence bound falls with
                           delta only while q^2-d+1 >= 0)
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

import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from random import Random

import numpy as np

from hermsurf.finite_field import Field, build_field
from hermsurf.forms import (
    SCAN_BLOCK,
    Form,
    FormError,
    IntersectionReport,
    class_count,
    class_vectors,
    class_zero_blocks,
    combination_values,
    exact_quotient,
    form_from_vector,
    form_to_json,
    intersection_stats,
    jf_mask,
    linear_form,
    monomial_count,
    monomial_matrix,
    multiples_of_h,
    pack_bits,
    require_scan_degree,
    standard_monomials,
    unpack_bits,
    vector_to_json,
    zero_counts,
)
from hermsurf.hermitian import HermitianSurface, LineKind
from hermsurf.proj_geometry import _normalized


class BudgetExceededError(ValueError):
    pass


class FalsificationError(AssertionError):
    """An applicable proved bound failed; carries the witness form."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):  # so that a violation crosses process boundaries
        return type(self), (str(self), self.witness)


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
    check("residual_point_bound", residual_point_bound(q, d), residual and d <= q * q + 1)
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

def tangent_plane_factors(report: IntersectionReport,
                          surface: HermitianSurface) -> list[tuple[int, ...]] | None:
    """If the report's form is a product of tangent-plane linear forms,
    return the planes (with multiplicity, smallest dual tuples first);
    else None.

    Every factor plane lies in V(F), so only the report's k tangent planes
    can divide.  Each of them divides F: F restricted to a plane inside
    V(F) is zero.  Distinct planes are coprime in the UFD, so their
    product divides F, and k <= d (``contains_tangent_plane`` raises
    otherwise).  When k = d, F is a scalar times that product, so the
    planes are the factors, with no arithmetic.  When k < d, a product of
    them meets the surface in their sections, the q+1 generators through
    each tangency point, so a larger X refutes it with no division.
    Otherwise each is divided out while it divides and the rest is not
    linear; the order does not matter.  A product is left with one of
    them, whose linear form is normalized.
    """
    planes = report.contained_tangent_planes
    if not planes:
        return None
    if len(planes) == report.d:
        return list(planes)
    points = surface.position_of[[surface.tangent_planes()[plane] for plane in planes]]
    sections = surface.generator_positions()[surface.generators_through()[points]]
    if len(np.unique(sections)) < report.x_count:
        return None
    f = surface.field
    rest, factors = report.form, []
    for plane in planes:
        divisor = linear_form(f, plane)
        while rest.degree > 1 and (quo := exact_quotient(rest, divisor)) is not None:
            factors.append(plane)
            rest = quo
    last = rest.normalized()
    factors += [plane for plane in planes if linear_form(f, plane) == last]
    return sorted(factors) if len(factors) == report.d else None


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
    surface); otherwise the line joining the first surface point P to the
    first later one off its tangent plane T_P.  A line through two surface
    points is a generator if it lies in T_P and a secant otherwise."""
    geom = surface.geometry
    line = geom.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    if surface.classify_line(line).kind is LineKind.SECANT:
        return line
    on = surface.generator_positions()[surface.generators_through()[0]]  # T_P's section, P on it
    off = np.setdiff1d(np.arange(surface.n_surface_points()), on)
    return geom.line_between_ids(*surface.point_ids[[0, off[0]]].tolist())


def secant_tangent_planes(surface: HermitianSurface, a: int, b: int) -> list[tuple[int, ...]]:
    """The q+1 tangent planes, ascending, through the secant of surface positions a and b.  T_P
    holds it iff P is on T_a and T_b, which cut the generators through a and b: where those meet."""
    rows, through = surface.generator_positions(), surface.generators_through()
    touch = np.intersect1d(rows[through[a]], rows[through[b]])
    return sorted(map(tuple, surface.geometry.arr[surface.tangent_plane_ids()[touch]].tolist()))


def build_extremal_pencil(surface: HermitianSurface, d: int) -> Form:
    """Product of d tangent planes through a common secant line; meets the
    surface in exactly d(q^3 + q^2 - q) + q + 1 rational points."""
    q = surface.q
    if not 1 <= d <= q + 1:
        raise FormError(f"d must be in 1..q+1 (a secant book has only q+1 tangent planes), got {d}")
    secant = surface.classify_line(canonical_secant(surface)).point_ids
    planes = secant_tangent_planes(surface, *surface.position_of[list(secant[:2])])
    return reduce(Form.__mul__, [linear_form(surface.field, plane) for plane in planes[:d]])


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
    argmax_vectors: list[list[int]]  # normalized coefficient vectors, monomial order
    argmax_total: int
    seed: int | None
    samples: int | None
    wall_time: float
    field: Field = dc_field(repr=False, compare=False)

    @property
    def argmax_forms(self) -> list[Form]:
        return [form_from_vector(self.field, self.d, vec) for vec in self.argmax_vectors]

    def to_json(self) -> dict:
        """The report dicts; the CLI writes their bytes from argmax_vectors."""
        return {
            "q": self.q,
            "d": self.d,
            "mode": self.mode,
            "examined": self.examined,
            "skipped_hermitian_multiples": self.skipped_hermitian_multiples,
            "max_count": self.max_count,
            "argmax_total": self.argmax_total,
            "argmax_forms": [vector_to_json(self.q, self.d, vec) for vec in self.argmax_vectors],
            "seed": self.seed,
            "samples": self.samples,
        }


_ARGMAX_CAP = 4096  # argmax classes kept for a report, the first in scan order
_MATRIX_ELEMENTS = 1 << 21  # cap on a search's M N: random search's tables take 2 q^2 M N bytes
_SAMPLE_CHUNK = 4096  # distinct draws evaluated at once; their values take 2 N bytes each


def _incidence_floor(q: int, d: int) -> tuple[np.ndarray, int]:
    """(rhs, floor): the incidence check is (q+1)|X| <= rhs[|J_F|]; the floor is proved below."""
    top = d * (q + 1)
    rhs = np.array([int((q + 1) * incidence_bound(q, d, top - j)) for j in range(top + 1)])
    j, n = top + 1, q * q + 1  # one generator more than J_F may hold, and its points
    cover = max(j * n - j * j // 4, (j * n + q) // (q + 1))
    return rhs, min(int(rhs.min()) // (q + 1) + 1, cover)


class _SearchContext:
    """Precomputed per-(q, d) state for vectorized block scanning.

    ``scan`` finds J_F only where |X| >= floor = min(A, B); J_F = 0 elsewhere changes no verdict.
    A = min(incidence_rhs) // (q+1) + 1, d(q^3+1)+1 as the rhs rises with J_F for d <= q^2: below
    A, (q+1)|X| <= incidence_rhs[J_F] for every J_F <= d(q+1).  B = max(jn - floor(j^2/4),
    ceil(jn/(q+1))) for j = d(q+1)+1, n = q^2+1: j generators cover at least B points, so below B,
    J_F <= d(q+1) (no ``over``).  The generators form the generalized quadrangle H(3, q^2) of order
    (q^2, q): q+1 lie on each point, two share at most one point, and no three meet pairwise in three
    points.  j of them with r_P through P cover jn - sum(r_P - 1) points; one through each P joined to
    the other r_P - 1 is a graph with that many edges and no triangle (the edges at P form a star),
    so by Mantel's theorem jn - sum(r_P - 1) >= jn - floor(j^2/4)."""

    def __init__(self, surface: HermitianSurface, d: int):
        self.surface = surface
        self.field = surface.field
        self.q = surface.q
        self.d = d
        self.n, self.m = surface.n_surface_points(), monomial_count(d)
        if self.m * self.n > _MATRIX_ELEMENTS:
            raise BudgetExceededError(f"{self.m} x {self.n} monomial values exceed {_MATRIX_ELEMENTS}")
        self.rows = monomial_matrix(self.field, d, surface.arr)
        self.incidence_rhs, self.floor = _incidence_floor(self.q, d)
        self.sorensen = sorensen_bound(self.q, d) if d <= self.q + 1 else None

    @cached_property
    def standard(self) -> np.ndarray:
        """Positions of the standard monomials, the rows of the code basis; built for scans only."""
        return np.flatnonzero(standard_monomials(self.surface, self.d))

    def __reduce__(self):
        # a worker process rebuilds the context once, from (q, matrix, d)
        return _worker_context, (self.q, self.surface.matrix, self.d)

    def scan(self, words: np.ndarray):
        """(x_counts, jf_counts) of a block's ``pack_bits`` zero words; J_F is 0 below the floor."""
        x_counts = zero_counts(words)
        above, jf_counts = np.flatnonzero(x_counts >= self.floor), np.zeros_like(x_counts)
        jf = jf_mask(self.surface, unpack_bits(words[above], self.n), self.d)
        jf_counts[above] = np.count_nonzero(jf, axis=1)
        return x_counts, jf_counts

    def lift(self, vectors: np.ndarray) -> np.ndarray:
        """M-long coefficient vectors of k-long code-class vectors, 0 off the standard monomials."""
        out = np.zeros((len(vectors), self.m), dtype=vectors.dtype)
        out[:, self.standard] = vectors
        return out

    def check_block(self, x_counts, jf_counts, vector):
        """Raise FalsificationError if a row beats a proved bound;
        vector(i) decodes row i's coefficients for the witness."""
        lhs = x_counts * (self.q + 1)
        top = len(self.incidence_rhs) - 1
        over = jf_counts > top  # |J_F| > d(q+1) would itself refute deg X = d(q+1)
        bad = over | (lhs > self.incidence_rhs[np.minimum(jf_counts, top)])
        if self.sorensen is not None:
            bad |= x_counts > self.sorensen
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            form = form_from_vector(self.field, self.d, vector(i))
            confirm = check_theorems(intersection_stats(form, self.surface), self.surface)
            raise FalsificationError(
                f"bound violated at q={self.q} d={self.d}: |X|={int(x_counts[i])}",
                {"form": form_to_json(form, self.q), "report": confirm.to_json()},
            )


@lru_cache(maxsize=1)
def _worker_context(q: int, matrix, d: int) -> _SearchContext:
    return _SearchContext(HermitianSurface(build_field(q), matrix), d)


@dataclass
class _Tally:
    max_count: int = -1
    argmax: list = dc_field(default_factory=list)
    total: int = 0
    examined: int = 0
    skipped: int = 0

    def merge(self, other: "_Tally"):
        self.examined += other.examined
        if other.max_count > self.max_count:
            self.max_count = other.max_count
            self.argmax = list(other.argmax)
            self.total = other.total
        elif other.max_count == self.max_count:
            self.total += other.total
            self.argmax.extend(other.argmax[: max(0, _ARGMAX_CAP - len(self.argmax))])


def _scan_block(ctx: _SearchContext, x_counts, jf_counts, keys, vector, tally: _Tally):
    """Tally one nonempty block of non-multiples of H from its ``scan`` counts.  keys[i] stands for
    row i in the argmax list; vector(i) decodes row i's coefficients, which only a witness needs."""
    ctx.check_block(x_counts, jf_counts, vector)
    top = int(x_counts.max())
    hits = np.flatnonzero(x_counts == top)
    argmax = [keys[int(i)] for i in hits[:_ARGMAX_CAP]]
    tally.merge(_Tally(top, argmax, total=len(hits), examined=len(x_counts)))


def _scan_range(ctx: _SearchContext, start: int, stop: int) -> _Tally:
    tally, k = _Tally(), len(ctx.standard)
    for lo, hi, words in class_zero_blocks(ctx.field, ctx.rows[ctx.standard], start, stop):
        _scan_block(ctx, *ctx.scan(words), range(lo, hi),
                    lambda i: ctx.lift(class_vectors(ctx.field, k, [lo + i]))[0], tally)
        if (lo - start) // 1_000_000 != (hi - start) // 1_000_000:
            print(f"scanned {hi - start} of {stop - start} classes", file=sys.stderr)
    return tally


def _result(ctx: _SearchContext, mode: str, tally: _Tally, argmax_vectors, start_t: float,
            seed: int | None = None, samples: int | None = None) -> SearchResult:
    return SearchResult(
        q=ctx.q, d=ctx.d, mode=mode,
        examined=tally.examined,
        skipped_hermitian_multiples=tally.skipped,
        max_count=tally.max_count,
        argmax_vectors=argmax_vectors,
        argmax_total=tally.total,
        seed=seed, samples=samples,
        wall_time=time.monotonic() - start_t,
        field=ctx.field,
    )


def exhaustive_search(surface: HermitianSurface, d: int, *, budget: int = 10_000_000,
                      workers: int = 1) -> SearchResult:
    """Scan every scalar class of degree-d forms mod the surface equation H for the max |X|.
    F and F + G H meet the surface alike, so the scan and the budget cover the classes of the
    code basis (``standard_monomials``); at d >= q+1 argmax forms are standard-monomial
    representatives.  As class_count(Q, M) = Q^(M-k) class_count(Q, k) + class_count(Q, M-k)
    for Q = q^2, each scanned class stands for Q^(M-k) examined ones, and the last term counts
    the skipped multiples of H.  Every scanned form is checked against the incidence bound and
    (for d <= q+1) the Sorensen bound; a violation aborts the scan.  A parallel scan uses at
    most min(workers, CPU count) processes (workers < 1 raises ValueError); each scanning
    process writes a line to stderr for every million classes of its range."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    require_scan_degree(surface.q, d)
    order, k = surface.field.order, int(standard_monomials(surface, d).sum())
    total = class_count(order, k)
    budget = min(budget, 2**63 - 1)  # class_vectors decodes int64 class indices only
    if total > budget:
        raise BudgetExceededError(
            f"{total} scalar classes exceed the budget {budget}; use random_search"
        )
    ctx = _SearchContext(surface, d)
    start_t = time.monotonic()

    # a fork pool starts all its workers at once, so it never gets more
    # than the CPUs or the ranges can use; one range is scanned in process
    workers = min(workers, os.cpu_count() or 1)
    chunk = max(SCAN_BLOCK, (total + workers * 4 - 1) // (workers * 4))
    starts = range(0, total, chunk)
    workers = min(workers, len(starts))
    if workers <= 1:
        tally = _scan_range(ctx, 0, total)
    else:
        from concurrent.futures import ProcessPoolExecutor  # its import costs every run ~20 ms

        stops = [min(lo + chunk, total) for lo in starts]
        tally = _Tally()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # results come in range order, so the first violation is raised
            for part in pool.map(_scan_range, repeat(ctx), starts, stops):
                tally.merge(part)

    tally.examined *= order ** (ctx.m - k)
    tally.total *= order ** (ctx.m - k)
    tally.skipped = class_count(order, ctx.m - k)
    argmax = ctx.lift(class_vectors(surface.field, k, sorted(tally.argmax))).tolist()
    return _result(ctx, "exhaustive", tally, argmax, start_t)


def _nonzero(rng: Random, order: int, m: int) -> list[int]:
    """m uniform element indices, drawn again while all are 0."""
    while True:
        vec = [rng.randrange(order) for _ in range(m)]
        if any(vec):
            return vec


def _random_secant_pencil_factors(surface: HermitianSurface, rng: Random, d: int):
    """d tangent planes through a random secant: surface points a, b span one iff b is off T_a,
    which cuts the surface in the generators through a."""
    rows, through = surface.generator_positions(), surface.generators_through()
    while True:
        a, b = rng.sample(range(len(through)), 2)
        if not (rows[through[a]] == b).any():
            break
    planes = secant_tangent_planes(surface, a, b)
    return [linear_form(surface.field, rng.choice(planes)) for _ in range(d)]


def random_search(surface: HermitianSurface, d: int, samples: int, seed: int) -> SearchResult:
    """Reproducible random scan: half uniform coefficient vectors, half
    structured products of linear forms (every other structured draw uses
    tangent planes through a common secant, the conjectured extremals).
    Draws are normalized and deduplicated in one batch; one that vanishes at
    every surface point is a multiple of H, skipped and counted per draw.

    Output is fully determined by (seed, samples, q, d).
    """
    require_scan_degree(surface.q, d)
    if samples < 1:
        raise FormError("samples must be >= 1")
    ctx = _SearchContext(surface, d)
    rng = Random(seed)
    start_t = time.monotonic()

    drawn = np.empty((samples, ctx.m), dtype=np.int16)
    for i, row in enumerate(drawn):
        if i % 2 == 0:
            row[:] = _nonzero(rng, ctx.field.order, ctx.m)
            continue
        if i % 4 == 1 and d <= surface.q + 1:
            factors = _random_secant_pencil_factors(surface, rng, d)
        else:
            factors = [linear_form(ctx.field, _nonzero(rng, ctx.field.order, 4)) for _ in range(d)]
        row[:] = reduce(Form.__mul__, factors).coefficient_vector()

    # unique sorts the rows, so argmax keys sort as their vectors do
    rows, first, counts = np.unique(_normalized(ctx.field, drawn)[0], axis=0,
                                    return_index=True, return_counts=True)
    tally = _Tally()
    for keys in np.split(np.argsort(first), range(_SAMPLE_CHUNK, len(first), _SAMPLE_CHUNK)):
        zero = combination_values(ctx.field, ctx.rows, rows[keys]) == 0
        x_counts, jf_counts = ctx.scan(pack_bits(zero))
        multiple = multiples_of_h(surface, x_counts, d)
        tally.skipped += int(counts[keys[multiple]].sum())
        keys, x_counts, jf_counts = keys[~multiple], x_counts[~multiple], jf_counts[~multiple]
        if len(keys):
            _scan_block(ctx, x_counts, jf_counts, keys, lambda i: rows[keys[i]], tally)
    return _result(ctx, "random", tally, rows[sorted(tally.argmax)].tolist(), start_t, seed, samples)
