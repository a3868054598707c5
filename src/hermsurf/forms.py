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
    J_F        = generators contained in V(F)
    delta      = d(q+1) - |J_F|
    residuals  = rational points of X on no line of J_F (a nonempty set
                 certifies that the non-line part of X has a rational
                 point; emptiness certifies nothing)
    T(l)       = lines of J_F meeting l (l excluded), per l in J_F
    X_min      = min |T(l)| over J_F (None when J_F is empty)
    a[l][Pi]   = members of T(l) inside Pi, over the book of l (on demand)
    r[P]       = number of J_F lines through P, for P on their union

plus whether V(F) is a multiple of the surface equation, and the tangent
planes of the surface that lie in V(F).

Containment is decided by evaluation alone, for the degrees 1 <= d <= q^2
that ``intersection_stats``, ``line_contained``, ``plane_contained`` and
``contains_tangent_plane`` accept (``require_scan_degree``): a line or a
plane lies in V(F) exactly when F vanishes at all of its rational points.
F restricted to a line is a binary form of degree d, and a nonzero one
has at most d < q^2+1 zeros; restricted to a plane it is a ternary form,
and a nonzero one has at most d q^2 + 1 < q^4+q^2+1 rational zeros
(Serre, "Lettre a M. Tsfasman", Asterisque 198-200, 1991).  So J_F is
the set of generators whose q^2+1 rational points all lie in V(F), and
any d+1 of those points decide it (``jf_mask`` reads the first d+1).

Three consequences let ``intersection_stats`` and ``tangent_plane_factors``
decide from the zero set, for 1 <= d <= q^2:

(a) The surface equation H divides F exactly when X is every surface
    point: a multiple vanishes on V(H), and ``codes.build_code`` proves
    the converse (Bezout).  So no form of degree d <= q has X = S.
(b) For d <= q, a tangent plane T_P whose q+1 generators lie in J_F lies
    in V(F): those are q+1 lines of V(F) in T_P, and a nonzero ternary
    form of degree d vanishes on at most d lines (each is a linear factor).
(c) A plane in V(F) divides F (F restricted to it is zero), and distinct
    planes are coprime, so at most d distinct planes lie in V(F); when
    exactly d do, F is a scalar times their product.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from hermsurf.finite_field import Field
from hermsurf.hermitian import HermitianError, HermitianSurface, InternalConsistencyError
from hermsurf.proj_geometry import Line, dual_basis, span_ids


class FormError(ValueError):
    pass


def _graded_lex(degree: int):
    """Exponent tuples of degree d in graded lex order, x0 > x1 > x2 > x3."""
    for e0 in range(degree, -1, -1):
        for e1 in range(degree - e0, -1, -1):
            for e2 in range(degree - e0 - e1, -1, -1):
                yield (e0, e1, e2, degree - e0 - e1 - e2)


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(_graded_lex(degree))


def monomial_count(degree: int) -> int:
    return math.comb(degree + 3, 3)


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
            exps = tuple(map(int, exps))
            if len(exps) != 4 or min(exps) < 0 or sum(exps) != degree:
                raise FormError(f"bad exponent tuple {exps} for degree {degree}")
            clean[exps] = int(c)
        if not clean:
            raise FormError("the zero form is not allowed")
        self.field = field
        self.degree = degree
        self.coeffs = clean

    # -- structure ------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, int, int, int], int]]:
        """(exponents, coefficient) pairs in monomial order: descending tuples."""
        return sorted(self.coeffs.items(), reverse=True)

    def leading_monomial(self) -> tuple[int, int, int, int]:
        return max(self.coeffs)

    def normalized(self) -> "Form":
        lead = self.coeffs[self.leading_monomial()]
        if lead == 1:
            return self
        return self.scale(self.field.inv(lead))

    def coefficient_vector(self) -> tuple[int, ...]:
        return tuple(self.coeffs.get(m, 0) for m in monomials(self.degree))

    def scale(self, c: int) -> "Form":
        if c == 0:
            raise FormError("cannot scale a form by zero")
        return Form(self.field, self.degree, {m: self.field.mul(c, x) for m, x in self.coeffs.items()})

    def __mul__(self, other: "Form") -> "Form":
        if other.field is not self.field:
            raise FormError("forms over different fields")
        add, mul = self.field.add, self.field.mul
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = add(out.get(e, 0), mul(c1, c2))
        return Form(self.field, self.degree + other.degree, out)

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
        """Vectorized evaluation at an (N, 4) array of element indices.

        Each term c x^e is read from ``_lanes`` at its log sum (``_logs``),
        with exponents reduced to 1..Q-1, which changes no value; every
        |s| < 2^35 is exact in float64.  Terms are added K at a time as
        packed digits (``_digit_lanes``) over slices of points.
        """
        f = self.field
        cycle = f.order - 1
        group, _, unpack = _digit_lanes(f)
        exps = np.array(list(self.coeffs), dtype=np.int64)
        exps = np.where(exps > 0, (exps - 1) % cycle + 1, 0)
        top = cycle + int(exps.sum(axis=1).max()) * (cycle - 1)  # the largest s
        lanes = _lanes(f, top)
        exps = exps.astype(np.float64)
        coeffs = np.array(list(self.coeffs.values()), dtype=np.float64)[:, None]
        out = np.empty(len(pts), dtype=np.int16)
        step = _SLICE_ELEMENTS // min(group, len(exps))
        for lo in range(0, len(pts), step):
            logs = _logs(pts[lo : lo + step].T, top)
            res = out[lo : lo + step]
            for g in range(0, len(exps), group):
                s = exps[g : g + group] @ logs + coeffs[g : g + group]
                packed = np.take(lanes, s.astype(np.intp), mode="clip")
                vals = np.take(unpack, packed.sum(axis=0, dtype=np.uint16))
                res[...] = vals if g == 0 else f.vadd(res, vals)
        return out


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


def standard_monomials(surface: HermitianSurface, degree: int) -> np.ndarray:
    """Mask of the degree-d monomials not divisible by the surface equation's leading monomial."""
    return (np.array(monomials(degree)) < surface_form(surface).leading_monomial()).any(axis=1)


# ----------------------------------------------------------------------
# containment
# ----------------------------------------------------------------------

def require_scan_degree(q: int, d: int) -> None:
    """Refuse d outside 1..q^2, where rational points decide the
    containment of lines and planes exactly (see the module docstring)."""
    if not 1 <= d <= q * q:
        raise FormError(f"d must be in 1..q^2 = 1..{q * q}, got {d}")


def line_contained(form: Form, geometry, line: Line) -> bool:
    """Does V(F) contain the line?  F vanishes at its rational points."""
    require_scan_degree(geometry.field.q, form.degree)
    return not form.values_at(geometry.arr[list(line.point_ids)]).any()


def plane_contained(form: Form, geometry, plane) -> bool:
    """Does V(F) contain the plane?  F vanishes at its rational points."""
    require_scan_degree(geometry.field.q, form.degree)
    return not form.values_at(geometry.arr[geometry.plane_point_ids(plane)]).any()


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
    # a step at target only touches monomials below it, so one descending
    # pass meets every divisible remainder term in turn; it is not cached,
    # so a high-degree division keeps no exponent table
    for target in _graded_lex(form.degree):
        if target not in rem or any(a < b for a, b in zip(target, lead)):
            continue
        shift = tuple(a - b for a, b in zip(target, lead))
        factor = f.mul(rem[target], lead_inv)
        quo[shift] = factor
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
    contained_tangent_planes: tuple[tuple[int, ...], ...]  # inside V(F), ascending
    jf_indices: tuple[int, ...] | None  # indices into surface.generators()
    delta: int | None
    residual_ids: tuple[int, ...] | None  # points of X on no J_F line
    meeting_sizes: tuple[int, ...] | None  # |T(l)| aligned with jf_indices
    x_min: int | None  # min |T(l)|; None when J_F is empty
    multiplicities: dict | None  # point id -> r_P on the union of J_F

    @property
    def v2_component(self) -> bool:
        return self.hermitian_multiple

    @property
    def contains_tangent_plane(self) -> bool:
        return bool(self.contained_tangent_planes)

    @property
    def jf_count(self) -> int | None:
        return None if self.jf_indices is None else len(self.jf_indices)

    def jf_lines(self, surface: HermitianSurface) -> tuple[Line, ...]:
        gens = surface.generators()
        return tuple(gens[i] for i in self.jf_indices or ())

    def book_counts(self, surface: HermitianSurface) -> dict | None:
        """jf index -> {plane tuple: a_{Pi,l}} over the book of l.

        The planes through a generator l are the tangent planes T_P at its
        points P (l is its own polar), and the lines of T(l) through P lie
        in T_P, so a_{T_P,l} = r_P - 1.
        """
        if self.jf_indices is None:
            return None
        r = _jf_multiplicities(surface, self.jf_indices).tolist()
        planes = list(surface.tangent_planes())
        gen_pos = surface.generator_positions()
        return {i: {planes[p]: r[p] - 1 for p in gen_pos[i].tolist()} for i in self.jf_indices}

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
            out["x_points"] = geom.arr[list(self.x_point_ids)].tolist()
            if self.jf_indices is not None:
                out["jf_lines"] = [geom.serialize_line(l) for l in self.jf_lines(surface)]
                out["meeting_sizes"] = list(self.meeting_sizes)
                out["multiplicities"] = {
                    str(geom.arr[pid].tolist()): r for pid, r in sorted(self.multiplicities.items())
                }
        return out


def jf_mask(surface: HermitianSurface, zero: np.ndarray, d: int) -> np.ndarray:
    """(..., G) mask of J_F, the generators inside V(F), from the (..., n) masks of the surface
    points where forms of degree d vanish: the first d+1 points of each generator decide it."""
    cols = surface.generator_positions()[:, : d + 1].T
    return reduce(operator.and_, (zero[..., col] for col in cols))


def multiples_of_h(surface: HermitianSurface, x_counts, d: int) -> np.ndarray:
    """Mask of the degree-d forms, by their |X|, that H divides: (a) of the module docstring."""
    multiple = np.asarray(x_counts) == surface.n_surface_points()
    if d <= surface.q and multiple.any():
        raise InternalConsistencyError(f"a form of degree {d} <= q vanishes on the surface")
    return multiple


def _jf_multiplicities(surface: HermitianSurface, jf) -> np.ndarray:
    """r_P at every surface position: the number of J_F lines through P."""
    points = surface.generator_positions()[np.asarray(jf, dtype=np.intp)]
    return np.bincount(points.ravel(), minlength=len(surface.point_ids))


def contains_tangent_plane(form: Form, surface: HermitianSurface,
                           multiplicities: np.ndarray | None = None) -> tuple[tuple[int, ...], ...]:
    """The tangent planes of the surface inside V(F), ascending: empty,
    and so false, when V(F) contains none.  A caller that has F's r_P
    (``_jf_multiplicities``) passes them as multiplicities.

    The section of T_P is the q+1 generators through P, so the candidates
    are the T_P with r_P = q+1, and every tangent plane inside V(F) is
    one.  For d <= q every candidate lies in V(F), by (b) of the module
    docstring.  Above q, F is evaluated at all of their points in one
    batch, and a candidate lies in V(F) when F vanishes at every one of
    them.  More than d of them contradicts (c).
    """
    require_scan_degree(surface.q, form.degree)
    if multiplicities is None:
        jf = jf_mask(surface, form.values_at(surface.arr) == 0, form.degree)
        multiplicities = _jf_multiplicities(surface, np.flatnonzero(jf))
    ids = surface.tangent_plane_ids()[multiplicities == surface.q + 1]
    planes = sorted(map(tuple, surface.geometry.arr[ids].tolist()))
    if planes and form.degree > surface.q:
        ids = span_ids(surface.field, dual_basis(surface.field, planes))
        zero = form.values_at(surface.geometry.arr[ids.ravel()]).reshape(ids.shape) == 0
        planes = [plane for plane, inside in zip(planes, zero.all(axis=1)) if inside]
    if len(planes) > form.degree:
        raise InternalConsistencyError(f"{len(planes)} tangent planes lie in V(F), d={form.degree}")
    return tuple(planes)


def intersection_stats(form: Form, surface: HermitianSurface) -> IntersectionReport:
    if not surface.is_nondegenerate:
        raise HermitianError("intersection statistics need a non-degenerate surface")
    if form.field is not surface.field:
        raise FormError("form and surface live over different fields")
    q, d = surface.q, form.degree
    require_scan_degree(q, d)

    zero = form.values_at(surface.arr) == 0
    x_ids = tuple(surface.point_ids[zero].tolist())

    if multiples_of_h(surface, len(x_ids), d):
        # V(H) contains no plane and the ring is a domain, so a plane lies
        # in V(F) = V(H) u V(F/H) exactly when it lies in V(F/H)
        rest = exact_quotient(form, surface_form(surface)) if d > q + 1 else None
        if d > q + 1 and rest is None:
            raise InternalConsistencyError("F vanishes on the surface, but H does not divide it")
        return IntersectionReport(
            form=form, q=q, d=d,
            x_count=len(x_ids), x_point_ids=x_ids,
            hermitian_multiple=True,
            contained_tangent_planes=contains_tangent_plane(rest, surface) if rest else (),
            jf_indices=None, delta=None, residual_ids=None,
            meeting_sizes=None, x_min=None, multiplicities=None,
        )

    jf = np.flatnonzero(jf_mask(surface, zero, d))

    # r_P, and T(l): the lines of T(l) through a point P of l are the
    # other r_P - 1 lines of J_F through P, and no two of them meet l twice
    r = _jf_multiplicities(surface, jf)
    meeting = (r[surface.generator_positions()[jf]] - 1).sum(axis=1).tolist()
    on_union = np.flatnonzero(r)

    return IntersectionReport(
        form=form, q=q, d=d,
        x_count=len(x_ids), x_point_ids=x_ids,
        hermitian_multiple=False,
        contained_tangent_planes=contains_tangent_plane(form, surface, r),
        jf_indices=tuple(jf.tolist()), delta=d * (q + 1) - len(jf),
        residual_ids=tuple(surface.point_ids[zero & (r == 0)].tolist()),
        meeting_sizes=tuple(meeting),
        x_min=min(meeting) if meeting else None,
        multiplicities=dict(zip(surface.point_ids[on_union].tolist(), r[on_union].tolist())),
    )


def incidence_double_count(form: Form, surface: HermitianSurface) -> tuple[int, int]:
    """(|X| * (q+1), sum over generators of |l n V(F)|); always equal,
    because every surface point lies on exactly q+1 generators."""
    zero = form.values_at(surface.arr) == 0
    lhs = int(zero.sum()) * (surface.q + 1)
    rhs = int(zero[surface.generator_positions()].sum())
    return lhs, rhs


# ----------------------------------------------------------------------
# batch evaluation helpers: every product is formed by the log rule of
# _logs.  Exhaustive scans and weight enumeration run on
# class_zero_blocks and zero_counts; combination_values serves random search.
# ----------------------------------------------------------------------

def _logs(values: np.ndarray, top: int) -> np.ndarray:
    """L(x) = x-1 for element indices x >= 1 and -1-top for 0, as float64.
    A log sum s = c + sum_j e_j L(x_j) (c, e_j >= 1) that is at most top
    on nonzero x_j is below 1 exactly where some x_j is 0; elsewhere the
    product c x^e has index 1 + (s-1) mod (Q-1)."""
    return np.where(values > 0, values - 1.0, -1.0 - top)


def monomial_matrix(field: Field, degree: int, pts: np.ndarray) -> np.ndarray:
    """(M, N) values of every degree-d monomial at every point, x^e from
    the log sum 1 + sum_j e_j L(x_j) one row at a time, so that no (M, N)
    array of log sums is held."""
    cycle = field.order - 1
    logs = _logs(pts.T, degree * cycle)
    out = np.empty((monomial_count(degree), len(pts)), dtype=np.int16)
    for row, exps in zip(out, monomials(degree)):
        s = np.dot(exps, logs) + 1
        row[...] = np.where(s >= 1, 1 + (s - 1) % cycle, 0)
    return out


@lru_cache(maxsize=None)
def _digit_lanes(field: Field) -> tuple[int, np.ndarray, np.ndarray]:
    """(group K, pack, unpack) for adding field elements as packed digits.

    An element is packed as its 2k GF(p) digits in radix-R lanes of one
    uint16, R = K(p-1)+1 for the largest K with R^(2k) <= 2^16, so a sum
    of up to K packed elements carries no lane into the next.
    pack[x] is the packed element x, and unpack maps every packed sum
    to the element index of its digits mod p.
    """
    p, digits = field.p, 2 * field.k
    radix = 2
    while (radix + 1) ** digits <= 1 << 16:
        radix += 1
    group = (radix - 1) // (p - 1)
    radix = group * (p - 1) + 1
    pack = (field.digits @ radix ** np.arange(digits)).astype(np.uint16)
    # base-p code of the lanes mod p for every packed value, highest lane first
    codes = np.zeros(1, dtype=np.int16)
    for _ in range(digits):
        codes = (codes[:, None] * p + np.arange(radix, dtype=np.int16) % p).ravel()
    return group, pack, np.take(field.index_of_code, codes)


@lru_cache(maxsize=None)
def _lanes(field: Field, top: int) -> np.ndarray:
    """The packed element at each log sum s in 0..top, read-only; s = 0, where
    a lookup with mode="clip" puts every s < 1, holds the packed 0."""
    s = np.arange(top + 1)
    lanes = _digit_lanes(field)[1][np.where(s >= 1, 1 + (s - 1) % (field.order - 1), 0)]
    lanes.flags.writeable = False
    return lanes


# A slice of rows has about this many elements, which bounds the
# transients of one decode, but at least _SLICE_ROWS rows, so that wide
# rows do not pay numpy's per-call overhead many times.
_SLICE_ELEMENTS = 1 << 16
_SLICE_ROWS = 64


def combination_values(field: Field, rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(B, N) values of the linear combinations coeffs @ rows over the field.

    rows is (M, N); coeffs is (B, M) of element indices, any vectors.

    For each used monomial m the (Q, N) table of packed c*rows[m] is read
    from ``_lanes`` at 1 + L(c) + L(rows[m]); a vector then costs one row
    gather per nonzero term.  Groups of K packed terms add as plain
    integers, are decoded by one lookup and merged with field addition.
    Rows are evaluated in slices so the decode's intp index stays small.
    """
    group, _, unpack = _digit_lanes(field)
    top = 2 * field.order - 3  # the largest 1 + L(c) + L(x)
    lanes = _lanes(field, top)
    scalars = 1 + _logs(np.arange(field.order), top)[:, None]
    b, n = coeffs.shape[0], rows.shape[1]
    used = np.flatnonzero(coeffs.any(axis=0))
    tables = [np.take(lanes, (scalars + _logs(rows[m], top)).astype(np.intp), mode="clip")
              for m in used]
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
            res[...] = vals if g == 0 else field.vadd(res, vals)
    return out


def class_count(order: int, m: int) -> int:
    """Number of scalar classes of nonzero length-m vectors."""
    return (order**m - 1) // (order - 1)


def class_vectors(field: Field, m: int, indices) -> np.ndarray:
    """Decode an array of scalar-class indices into normalized vectors,
    one row per index, in the order given.

    Classes are ordered by the position j of the leading 1, then by the
    remaining m-1-j digits read as a base-(q^2) integer.
    """
    order = field.order
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros((len(indices), m), dtype=np.int16)
    if not len(indices):
        return out
    top, total = int(indices.max()), class_count(order, m)
    if indices.min() < 0 or top >= total:
        raise ValueError(f"class indices must lie in 0..{total - 1}")
    # the first class led by each position, up to the first past every index
    offsets = [0]
    while len(offsets) < m and offsets[-1] <= top:
        offsets.append(offsets[-1] + order ** (m - len(offsets)))
    offsets = np.array([min(o, top + 1) for o in offsets], dtype=np.int64)
    lead = np.searchsorted(offsets, indices, side="right") - 1
    tails = indices - offsets[lead]
    for j in range(m - 1, 0, -1):
        place = order ** (m - 1 - j)
        if place > top:  # this and every larger place value leave the digit 0
            break
        out[:, j] = (tails // place) % order
    out[np.arange(len(indices)), lead] = 1
    return out


SCAN_BLOCK = 1 << 13  # scalar classes per block of a scan, at most
_TABLE_BYTES = 1 << 24  # bound on the bit table of class_zero_blocks
_BLOCK_WORDS = 1 << 17  # bound on the words of a block of several spans


def pack_bits(mask: np.ndarray) -> np.ndarray:
    """Little-endian uint64 words of a (..., N) bool mask: bit i of word w is point 64w+i, padding 0."""
    out = np.zeros((*mask.shape[:-1], -(-mask.shape[-1] // 64) * 8), dtype=np.uint8)
    out[..., : -(-mask.shape[-1] // 8)] = np.packbits(mask, axis=-1, bitorder="little")
    return out.view("<u8")


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The (..., n) bool mask of the first n bits of ``pack_bits`` words (n = 64 W keeps padding)."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def zero_counts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of (B, W) words, as int64: the zeros of each class of a block."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def class_zero_blocks(field: Field, rows: np.ndarray, start: int, stop: int):
    """Yield (lo, hi, words) over the scalar classes [start, stop) in ``class_vectors`` order:
    words is the (hi-lo, W) ``pack_bits`` mask of the points where each class's combination is 0.

    Bit-sliced layout: (R, N) element indices are (b, R, W) words, plane j packing bit j,
    b = bitlen(q^2-1).  The table T holds minus every combination of the last L rows, for the
    largest L with q^(2L) <= SCAN_BLOCK and T within _TABLE_BYTES, packed by top-digit slices.
    A span of q^(2L) classes shares its digits up to row i0 (the leading 1 included), so one prefix
    P, and words = ~OR_j(T_j ^ P_j) & valid = OR_j(T_j ^ P_j) ^ valid, as T and P have padding bits
    0 (valid masks the N points).  The q^2 prefixes base + c rows[i0] are packed at once whenever a
    higher digit changes, base summed from the partial sum before the first digit that changed.  A
    block joins the spans of consecutive c, gcd(q^2, spans within _BLOCK_WORDS words) of them."""
    order = field.order
    m, n = rows.shape
    planes, valid = (order - 1).bit_length(), pack_bits(np.ones(n, dtype=bool))
    bits = (1 << np.arange(planes, dtype=np.int16))[:, None, None]

    def packed(row, base):
        """The (b, Q len(base), W) words of c row + base, c = 0..Q-1, ceil(Q / len(base)) slices a pass."""
        out, size = np.empty((planes, order * len(base), valid.size), dtype=np.uint64), len(base)
        for c in range(0, order, step := -(-order // size)):
            values = field.vadd(field.vmul(np.arange(c, min(order, c + step))[:, None, None], row), base)
            out[:, c * size : (c + step) * size] = pack_bits(values.reshape(-1, n) & bits != 0)
        return out

    cap = min(SCAN_BLOCK, _TABLE_BYTES // planes // valid.nbytes)  # classes in a span, at most
    low = max((e for e in range(m) if order**e <= cap), default=0)
    negs, lower = field.neg_np[rows[m - max(low, 1) :]], np.zeros((1, n), dtype=np.int16)
    for row in negs[:0:-1]:  # the rows below the table's top digit, the last first
        lower = field.vadd(field.vmul(np.arange(order)[:, None, None], row), lower).reshape(-1, n)
    per = math.gcd(order, max(1, _BLOCK_WORDS // order**low // valid.size))  # spans in a block
    table, xor = packed(negs[0], lower), np.empty((per, order**low, valid.size), dtype=np.uint64)
    for j in range(m):
        offset, size = class_count(order, m) - class_count(order, m - j), order ** (m - 1 - j)
        i0, key, done, sums = max(j, m - 1 - low), None, [], [np.zeros((1, n), dtype=np.int16)]
        span, lo0, end = order ** (m - 1 - i0), max(start, offset), min(stop, offset + size)
        step = min(span * per, size)  # a block's spans share one prefix table; step divides offset
        for first in range(lo0 - lo0 % step, end, step):
            lo, hi = max(lo0, first), min(end, first + step)
            high = (size + first - offset) // span  # the digits at j..i0, the leading 1 first
            if high // order != key:  # sums[e] adds the digits before the e-th
                digits = [high // order**e % order for e in range(i0 - j, 0, -1)]
                e = next((e for e, (a, b) in enumerate(zip(done, digits)) if a != b), len(done))
                sums[e:] = accumulate(map(field.vmul, digits[e:], rows[j + e : i0]), field.vadd,
                                      initial=sums[e])
                prefixes, done, key = packed(rows[i0], sums[-1]), digits, high // order
            p, t = prefixes[:, high % order : high % order + step // span, None], table[:, None, :span]
            words = t[0] ^ p[0]
            for b in range(1, planes):
                words |= np.bitwise_xor(t[b], p[b], out=xor[: step // span, :span])
            words = words.reshape(-1, valid.size)[lo - first : hi - first]
            yield lo, hi, np.bitwise_xor(words, valid, out=words)


def form_from_vector(field: Field, degree: int, vec) -> Form:
    return Form(field, degree, {m: int(c) for m, c in zip(monomials(degree), vec) if c})


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def vector_to_json(q: int, degree: int, vec) -> dict:
    """A form of the given degree serialized from its coefficient vector
    (Python ints in monomial order), without building the ``Form``."""
    return {
        "q": q,
        "d": degree,
        "terms": [[list(m), c] for m, c in zip(monomials(degree), vec) if c],
    }


def form_to_json(form: Form, q: int) -> dict:
    return {"q": q, "d": form.degree, "terms": [[list(m), c] for m, c in form.terms()]}


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormError(f"{what} must be an integer, got {value!r}")
    return value


def form_json_q(data) -> int:
    """The q of a serialized form, once the document's shape is checked."""
    if not isinstance(data, dict) or not {"q", "d", "terms"} <= data.keys():
        raise FormError("a serialized form is a JSON object with keys q, d and terms")
    return _json_int(data["q"], "q")


def form_from_json(field: Field, data) -> Form:
    q = form_json_q(data)
    if q != field.q:
        raise FormError(f"form is over q={q}, expected q={field.q}")
    degree = _json_int(data["d"], "d")
    terms = data["terms"]
    if not isinstance(terms, list) or not all(
        isinstance(t, list) and len(t) == 2 and isinstance(t[0], list) for t in terms
    ):
        raise FormError("terms must be a list of [[e0, e1, e2, e3], coefficient] pairs")
    ints, coeffs = [int] * 4, {}
    for m, c in terms:  # the types are checked here, once; the values by Form
        if list(map(type, m)) != ints:  # a bool, a non-int, or not four exponents
            m = [_json_int(e, "an exponent") for e in m]
        if tuple(m) in coeffs:
            raise FormError(f"monomial {m} appears more than once")
        coeffs[tuple(m)] = c if type(c) is int else _json_int(c, "a coefficient")
    return Form(field, degree, coeffs)
