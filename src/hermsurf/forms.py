"""Homogeneous forms over GF(q^2) and their intersection statistics
with a Hermitian surface.

A form of degree d is a map from exponent 4-tuples (summing to d) to
nonzero element indices, under the graded lexicographic monomial order
with x0 > x1 > x2 > x3.  Scalar normalization makes the leading (first
in monomial order) coefficient equal 1; forms are compared per scalar
class through their normalized coefficient vectors.

``intersection_stats`` computes, for a form F and a non-degenerate
surface S with generator set J:

    X          = V(F) n S, its rational points
    J_F        = generators symbolically contained in V(F)
    delta      = d(q+1) - |J_F|
    residuals  = rational points of X on no line of J_F (a nonempty set
                 certifies that the non-line part of X has a rational
                 point; emptiness certifies nothing)
    T(l)       = lines of J_F meeting l (l excluded), per l in J_F
    X_min      = min |T(l)| over J_F (None when J_F is empty)
    a[l][Pi]   = members of T(l) inside the plane Pi, over the book of l
    r[P]       = number of J_F lines through P, for P on their union

plus the flags: is V(F) a multiple of the surface equation, and does
V(F) contain a tangent plane.

Line and plane containment are decided symbolically (the restriction of
F to a parametrization vanishes identically), which is correct over the
algebraic closure for every degree.  Rational vanishing is used only as
a no-false-negative prefilter before the symbolic check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hermsurf.finite_field import Field, nullspace
from hermsurf.hermitian import HermitianError, HermitianSurface
from hermsurf.proj_geometry import Line


class FormError(ValueError):
    pass


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """Exponent tuples of degree d in graded lex order, x0 > x1 > x2 > x3."""
    out = []
    for e0 in range(degree, -1, -1):
        for e1 in range(degree - e0, -1, -1):
            for e2 in range(degree - e0 - e1, -1, -1):
                out.append((e0, e1, e2, degree - e0 - e1 - e2))
    return tuple(out)


def monomial_count(degree: int) -> int:
    return math.comb(degree + 3, 3)


def _convolve(field: Field, a: dict, b: dict) -> dict:
    """Product of two polynomials given as {exponent tuple: element index}."""
    add, mul = field.add, field.mul
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = add(out.get(e, 0), mul(c1, c2))
    return {e: c for e, c in out.items() if c}


class Form:
    """A nonzero homogeneous form in x0..x3 over a fixed field."""

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: Field, degree: int, coeffs: dict):
        if degree < 1:
            raise FormError(f"degree must be >= 1, got {degree}")
        clean = {}
        for exps, c in coeffs.items():
            if not 0 <= c < field.order:
                raise FormError(f"coefficient {c} is not an element index 0..{field.order - 1}")
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != 4 or any(e < 0 for e in exps) or sum(exps) != degree:
                raise FormError(f"bad exponent tuple {exps} for degree {degree}")
            clean[exps] = int(c)
        if not clean:
            raise FormError("the zero form is not allowed")
        self.field = field
        self.degree = degree
        self.coeffs = clean

    # -- structure ------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, int, int, int], int]]:
        """(exponents, coefficient) pairs in monomial order."""
        return [(m, self.coeffs[m]) for m in monomials(self.degree) if m in self.coeffs]

    def leading_monomial(self) -> tuple[int, int, int, int]:
        return self.terms()[0][0]

    def normalized(self) -> "Form":
        lead = self.coeffs[self.leading_monomial()]
        if lead == 1:
            return self
        inv = self.field.inv(lead)
        return Form(
            self.field,
            self.degree,
            {m: self.field.mul(inv, c) for m, c in self.coeffs.items()},
        )

    def coefficient_vector(self) -> tuple[int, ...]:
        return tuple(self.coeffs.get(m, 0) for m in monomials(self.degree))

    def scale(self, c: int) -> "Form":
        if c == 0:
            raise FormError("cannot scale a form by zero")
        return Form(self.field, self.degree, {m: self.field.mul(c, x) for m, x in self.coeffs.items()})

    def __mul__(self, other: "Form") -> "Form":
        if other.field is not self.field:
            raise FormError("forms over different fields")
        return Form(self.field, self.degree + other.degree,
                    _convolve(self.field, self.coeffs, other.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and other.field is self.field
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.degree, frozenset(self.coeffs.items())))

    def __repr__(self):
        names = ("x0", "x1", "x2", "x3")
        parts = []
        for m, c in self.terms()[:6]:
            mono = "*".join(
                f"{n}^{e}" if e > 1 else n for n, e in zip(names, m) if e
            ) or "1"
            parts.append(f"{c}.{mono}")
        tail = " + ..." if len(self.coeffs) > 6 else ""
        return f"Form(d={self.degree}: {' + '.join(parts)}{tail})"

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point) -> int:
        f = self.field
        total = 0
        for exps, c in self.coeffs.items():
            term = c
            for x, e in zip(point, exps):
                if e:
                    term = f.mul(term, f.pow(x, e))
                    if term == 0:
                        break
            total = f.add(total, term)
        return total

    def values_at(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (N, 4) array of element indices."""
        f = self.field
        pw = f.pow_table(self.degree)
        acc = np.zeros(len(pts), dtype=np.int16)
        for exps, c in self.coeffs.items():
            term = np.full(len(pts), c, dtype=np.int16)
            for i, e in enumerate(exps):
                if e:
                    term = f.mul_np[term, pw[pts[:, i], e]]
            acc = f.add_np[acc, term]
        return acc


def linear_form(field: Field, coeffs) -> Form:
    return Form(field, 1, {tuple(int(i == j) for i in range(4)): c for j, c in enumerate(coeffs) if c})


def surface_form(surface: HermitianSurface) -> Form:
    """The defining polynomial x^T A x^(q) of the surface, degree q+1."""
    f = surface.field
    q = surface.q
    coeffs: dict = {}
    for i in range(4):
        for j in range(4):
            c = surface.matrix[i][j]
            if c:
                e = [0, 0, 0, 0]
                e[i] += 1
                e[j] += q
                e = tuple(e)
                coeffs[e] = f.add(coeffs.get(e, 0), c)
    return Form(f, q + 1, coeffs)


# ----------------------------------------------------------------------
# restriction and containment
# ----------------------------------------------------------------------

def restrict(form: Form, frame) -> dict[tuple[int, ...], int]:
    """Nonzero coefficients of F(t_0 frame_0 + ... + t_(k-1) frame_(k-1)).

    A frame of k = 2 points spans a line and one of k = 3 points a plane;
    the result maps exponent k-tuples of (t_0, ..., t_(k-1)) to element
    indices.  It is empty exactly when F vanishes identically on the span.
    """
    f = form.field
    k = len(frame)
    one = {(0,) * k: 1}
    powers = []  # powers[j][e] = x_j^e for x_j = sum_i t_i frame_i[j]
    for j in range(4):
        x = {tuple(int(i == r) for r in range(k)): pt[j] for i, pt in enumerate(frame) if pt[j]}
        pw = [one]
        for _ in range(max(m[j] for m in form.coeffs)):
            pw.append(_convolve(f, pw[-1], x))
        powers.append(pw)
    out: dict = {}
    for exps, c in form.coeffs.items():
        poly = {(0,) * k: c}
        for pw, e in zip(powers, exps):
            if e:
                poly = _convolve(f, poly, pw[e])
        for m, v in poly.items():
            out[m] = f.add(out.get(m, 0), v)
    return {m: v for m, v in out.items() if v}


def line_contained(form: Form, geometry, line: Line) -> bool:
    """True iff the restriction to the line vanishes identically (over the
    algebraic closure, not just at rational points)."""
    p0, p1 = line.key
    return not restrict(form, (geometry.points[p0], geometry.points[p1]))


def plane_contained(form: Form, geometry, plane) -> bool:
    """True iff the restriction to the plane vanishes identically."""
    return not restrict(form, nullspace(geometry.field, [plane]))


# ----------------------------------------------------------------------
# multivariate division
# ----------------------------------------------------------------------

def divide(form: Form, divisor: Form) -> tuple[dict, dict]:
    """Division by a single divisor under the graded lex order.

    Returns (quotient, remainder) as coefficient dicts satisfying
    form = quotient * divisor + remainder, with no remainder monomial
    divisible by the divisor's leading monomial.  The remainder is zero
    exactly when the divisor divides the form.
    """
    f = form.field
    lead = divisor.leading_monomial()
    lead_inv = f.inv(divisor.coeffs[lead])
    rem = dict(form.coeffs)
    quo: dict = {}
    div_terms = list(divisor.coeffs.items())
    while True:
        target = None
        for m in rem:
            if all(a >= b for a, b in zip(m, lead)):
                if target is None or m > target:
                    target = m
        if target is None:
            break
        shift = tuple(a - b for a, b in zip(target, lead))
        factor = f.mul(rem[target], lead_inv)
        quo[shift] = f.add(quo.get(shift, 0), factor)
        for dm, dc in div_terms:
            m = tuple(a + b for a, b in zip(shift, dm))
            val = f.sub(rem.get(m, 0), f.mul(factor, dc))
            if val:
                rem[m] = val
            else:
                rem.pop(m, None)
    return quo, rem


def divides(divisor: Form, form: Form) -> bool:
    if divisor.degree > form.degree:
        return False
    return not divide(form, divisor)[1]


def exact_quotient(form: Form, divisor: Form) -> Form | None:
    quo, rem = divide(form, divisor)
    if rem:
        return None
    return Form(form.field, form.degree - divisor.degree, quo)


def hermitian_divides(form: Form, surface: HermitianSurface) -> bool:
    """Does the surface equation divide F?  Trivially false for d <= q."""
    if form.degree < surface.q + 1:
        return False
    return divides(surface_form(surface), form)


# ----------------------------------------------------------------------
# intersection statistics
# ----------------------------------------------------------------------

@dataclass
class IntersectionReport:
    """The intersection statistics of one form against one surface.

    When the form is a multiple of the surface equation the generator
    statistics do not apply: ``jf_indices`` and everything after it are
    None.
    """

    form: Form
    q: int
    d: int
    x_count: int
    x_point_ids: tuple[int, ...]
    hermitian_multiple: bool
    contains_tangent_plane: bool
    jf_indices: tuple[int, ...] | None  # indices into surface.generators()
    delta: int | None
    residual_ids: tuple[int, ...] | None  # points of X on no J_F line
    meeting_sizes: tuple[int, ...] | None  # |T(l)| aligned with jf_indices
    x_min: int | None  # min |T(l)|; None when J_F is empty
    book_counts: dict | None  # jf index -> {plane tuple: a_{Pi,l}}
    multiplicities: dict | None  # point id -> r_P on the union of J_F

    @property
    def v2_component(self) -> bool:
        return self.hermitian_multiple

    @property
    def jf_count(self) -> int | None:
        return None if self.jf_indices is None else len(self.jf_indices)

    def jf_lines(self, surface: HermitianSurface) -> tuple[Line, ...]:
        gens = surface.generators()
        return tuple(gens[i] for i in self.jf_indices or ())

    def to_json(self, surface: HermitianSurface, verbose: bool = False) -> dict:
        geom = surface.geometry
        out = {
            "q": self.q,
            "d": self.d,
            "form": form_to_json(self.form, self.q),
            "x_count": self.x_count,
            "hermitian_multiple": self.hermitian_multiple,
            "v2_component": self.v2_component,
            "contains_tangent_plane": self.contains_tangent_plane,
            "jf_count": self.jf_count,
            "delta": self.delta,
            "residual_count": None if self.residual_ids is None else len(self.residual_ids),
            "x_min": self.x_min,
        }
        if verbose:
            out["x_points"] = [list(geom.points[i]) for i in self.x_point_ids]
            if self.jf_indices is not None:
                out["jf_lines"] = [geom.serialize_line(l) for l in self.jf_lines(surface)]
                out["meeting_sizes"] = list(self.meeting_sizes)
                out["multiplicities"] = {
                    str(list(geom.points[pid])): r for pid, r in sorted(self.multiplicities.items())
                }
        return out


def _vanishing_generators(surface: HermitianSurface, zero_positions) -> np.ndarray:
    """Mask of the generators whose rational points all lie in a zero set,
    given by its positions in the surface point list."""
    zero = np.zeros(len(surface.point_ids), dtype=bool)
    zero[zero_positions] = True
    return zero[surface.generator_positions()].all(axis=1)


def vanishing_tangent_planes(surface: HermitianSurface, zero_positions) -> list[tuple[int, ...]]:
    """The tangent planes T_P, in surface point order, whose section lies
    in a zero set given by its surface positions: the section of T_P is
    the q+1 generators through P, so these are the P with rational
    r_P = q+1.  Every tangent plane inside V(F) passes for F's zero set."""
    lines = _vanishing_generators(surface, zero_positions)
    planes = list(surface.tangent_planes())
    return [planes[i] for i in np.flatnonzero(lines[surface.generators_through()].all(axis=1))]


def contains_tangent_plane(form: Form, surface: HermitianSurface,
                           zero_positions: np.ndarray | None = None) -> bool:
    """Is some tangent plane of the surface inside V(F)?

    Prefilter: a contained plane's surface section must vanish under F.
    Candidates are then confirmed symbolically.
    """
    if zero_positions is None:
        zero_positions = np.flatnonzero(form.values_at(surface.arr) == 0)
    geom = surface.geometry
    return any(plane_contained(form, geom, plane)
               for plane in vanishing_tangent_planes(surface, zero_positions))


def contained_planes(form: Form, geometry) -> list[tuple[int, ...]]:
    """Every plane of PG(3, q^2) inside V(F) (prefilter + symbolic)."""
    vals = form.values_at(geometry.arr)
    zero = vals == 0
    out = []
    for plane in geometry.points:  # dual coordinates enumerate like points
        ids = geometry.plane_point_ids(plane)
        if zero[ids].all() and plane_contained(form, geometry, plane):
            out.append(plane)
    return out


def intersection_stats(form: Form, surface: HermitianSurface) -> IntersectionReport:
    if not surface.is_nondegenerate:
        raise HermitianError("intersection statistics need a non-degenerate surface")
    if form.field is not surface.field:
        raise FormError("form and surface live over different fields")
    q = surface.q
    d = form.degree

    zero_positions = np.flatnonzero(form.values_at(surface.arr) == 0)
    x_ids = tuple(int(surface.point_ids[i]) for i in zero_positions)

    if hermitian_divides(form, surface):
        # V(H) contains no plane and the ring is a domain, so a plane lies
        # in V(F) = V(H) u V(F/H) exactly when it lies in V(F/H)
        rest = exact_quotient(form, surface_form(surface)) if d > q + 1 else None
        return IntersectionReport(
            form=form, q=q, d=d,
            x_count=len(x_ids), x_point_ids=x_ids,
            hermitian_multiple=True,
            contains_tangent_plane=rest is not None and contains_tangent_plane(rest, surface),
            jf_indices=None, delta=None, residual_ids=None,
            meeting_sizes=None, x_min=None, book_counts=None, multiplicities=None,
        )

    # J_F: rational prefilter, symbolic confirmation
    gens = surface.generators()
    geom = surface.geometry
    jf = tuple(int(i) for i in np.flatnonzero(_vanishing_generators(surface, zero_positions))
               if line_contained(form, geom, gens[int(i)]))
    delta = d * (q + 1) - len(jf)

    # r_P: the J_F lines through each surface point
    in_jf = np.zeros(len(gens), dtype=bool)
    in_jf[list(jf)] = True
    through = surface.generators_through()
    r = in_jf[through].sum(axis=1)
    residuals = tuple(pid for pid, p in zip(x_ids, zero_positions.tolist()) if not r[p])
    multiplicities = {int(surface.point_ids[p]): int(r[p]) for p in np.flatnonzero(r)}

    # T(l) and the book table a_{Pi,l}
    gen_pos = surface.generator_positions()
    meeting: list[int] = []
    book_counts: dict = {}
    for i in jf:
        line = gens[i]
        rows = through[gen_pos[i]]
        tl = set(rows[in_jf[rows]].tolist()) - {i}
        meeting.append(len(tl))
        counts = {plane: 0 for plane in geom.book_of_planes(line)}
        line_pts = set(line.point_ids)
        for m in tl:
            third = next(pid for pid in gens[m].point_ids if pid not in line_pts)
            plane = geom.plane_through(
                geom.points[line.key[0]], geom.points[line.key[1]], geom.points[third]
            )
            counts[plane] += 1
        book_counts[i] = counts

    return IntersectionReport(
        form=form, q=q, d=d,
        x_count=len(x_ids), x_point_ids=x_ids,
        hermitian_multiple=False,
        contains_tangent_plane=contains_tangent_plane(form, surface, zero_positions),
        jf_indices=jf, delta=delta, residual_ids=residuals,
        meeting_sizes=tuple(meeting),
        x_min=min(meeting) if meeting else None,
        book_counts=book_counts,
        multiplicities=multiplicities,
    )


def incidence_double_count(form: Form, surface: HermitianSurface) -> tuple[int, int]:
    """(|X| * (q+1), sum over generators of |l n V(F)|); always equal,
    because every surface point lies on exactly q+1 generators."""
    zero = form.values_at(surface.arr) == 0
    lhs = int(zero.sum()) * (surface.q + 1)
    rhs = int(zero[surface.generator_positions()].sum())
    return lhs, rhs


# ----------------------------------------------------------------------
# batch evaluation helpers (shared by searches and weight enumeration)
# ----------------------------------------------------------------------

def monomial_matrix(field: Field, degree: int, pts: np.ndarray) -> np.ndarray:
    """(M, N) values of every degree-d monomial at every point."""
    pw = field.pow_table(degree)
    rows = []
    for exps in monomials(degree):
        term = np.ones(len(pts), dtype=np.int16)
        for i, e in enumerate(exps):
            if e:
                term = field.mul_np[term, pw[pts[:, i], e]]
        rows.append(term)
    return np.array(rows, dtype=np.int16)


@lru_cache(maxsize=None)
def _digit_lanes(field: Field) -> tuple[int, np.ndarray, np.ndarray]:
    """(group K, pack_mul, unpack) for adding field elements as packed digits.

    An element is packed as its 2k GF(p) digits in radix-R lanes of one
    uint16, R = K(p-1)+1 for the largest K with R^(2k) <= 2^16, so a sum
    of up to K packed elements carries no lane into the next.
    pack_mul[c, x] is the packed c*x, and unpack maps every packed sum
    to the element index of its digits mod p.
    """
    p, digits = field.p, 2 * field.k
    radix = 2
    while (radix + 1) ** digits <= 1 << 16:
        radix += 1
    group = (radix - 1) // (p - 1)
    radix = group * (p - 1) + 1
    vecs = np.array([field.vector_of(i) for i in range(field.order)], dtype=np.int64)
    pack = vecs @ radix ** np.arange(digits)
    pack_mul = pack[field.mul_np].astype(np.uint16)
    index_of = np.zeros(field.order, dtype=np.int16)
    index_of[vecs @ p ** np.arange(digits)] = np.arange(field.order)
    # base-p code of the lanes mod p for every packed value, highest lane first
    codes = np.zeros(1, dtype=np.int16)
    for _ in range(digits):
        codes = (codes[:, None] * p + np.arange(radix, dtype=np.int16) % p).ravel()
    return group, pack_mul, np.take(index_of, codes)


# A slice of rows has about this many elements, which bounds the
# transients of one decode, but at least _SLICE_ROWS rows, so that wide
# rows do not pay numpy's per-call overhead many times.
_SLICE_ELEMENTS = 1 << 16
_SLICE_ROWS = 64


def combination_values(field: Field, rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(B, N) values of the linear combinations coeffs @ rows over the field.

    rows is (M, N); coeffs is (B, M) of element indices.  For each used
    monomial m the table of packed c*rows[m] over all elements c is built
    once; a class then costs one row gather per nonzero term.  Groups of
    K packed terms add as plain integers, are decoded by one lookup and
    merged with field addition.  Rows are evaluated in slices so the
    decode's intp index stays small.
    """
    group, pack_mul, unpack = _digit_lanes(field)
    b, n = coeffs.shape[0], rows.shape[1]
    used = np.flatnonzero(coeffs.any(axis=0))
    tables = [pack_mul[:, rows[m]] for m in used]
    out = np.zeros((b, n), dtype=np.int16)
    step = max(_SLICE_ROWS, _SLICE_ELEMENTS // max(n, 1))
    for lo in range(0, b, step):
        part = coeffs[lo : lo + step]
        res = out[lo : lo + step]
        for g in range(0, len(used), group):
            acc = np.take(tables[g], part[:, used[g]], axis=0)
            for j in range(g + 1, min(g + group, len(used))):
                acc += np.take(tables[j], part[:, used[j]], axis=0)
            vals = np.take(unpack, acc)
            res[...] = vals if g == 0 else field.add_np[res, vals]
    return out


def class_count(order: int, m: int) -> int:
    """Number of scalar classes of nonzero length-m vectors."""
    return (order**m - 1) // (order - 1)


def class_vectors(field: Field, m: int, start: int, stop: int) -> np.ndarray:
    """Decode scalar-class indices [start, stop) into normalized vectors.

    Classes are ordered by the position j of the leading 1, then by the
    remaining m-1-j digits read as a base-(q^2) integer.
    """
    order = field.order
    out = np.zeros((stop - start, m), dtype=np.int16)
    row = 0
    offset = 0
    for j in range(m):
        size = order ** (m - 1 - j)
        lo, hi = max(start, offset), min(stop, offset + size)
        if lo < hi:
            tails = np.arange(lo - offset, hi - offset, dtype=np.int64)
            block = slice(row, row + hi - lo)
            out[block, j] = 1
            for t in range(m - 1 - j):
                div = order ** (m - 2 - j - t)
                if div < hi - offset:  # larger divisors leave the digit 0
                    out[block, j + 1 + t] = (tails // div) % order
            row += hi - lo
        offset += size
    return out


def form_from_vector(field: Field, degree: int, vec) -> Form:
    return Form(field, degree, {m: int(c) for m, c in zip(monomials(degree), vec) if c})


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def form_to_json(form: Form, q: int) -> dict:
    return {
        "q": q,
        "d": form.degree,
        "terms": [[list(m), c] for m, c in form.terms()],
    }


def form_from_json(field: Field, data: dict) -> Form:
    if int(data["q"]) != field.q:
        raise FormError(f"form is over q={data['q']}, expected q={field.q}")
    degree = int(data["d"])
    coeffs = {tuple(int(e) for e in m): int(c) for m, c in data["terms"]}
    return Form(field, degree, coeffs)
