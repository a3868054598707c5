"""Encodings, enumerations and serializers that only the tests call.

Each takes the hermsurf object it reads as its first argument: a field,
a geometry, a surface, a form or a bound report.
"""

import numpy as np

from hermsurf.finite_field import Field
from hermsurf.proj_geometry import GeometryError, Line, _rref_matrices, dual_basis, incidence, span_ids


# -- fields ---------------------------------------------------------------

def vector_of(field: Field, index: int) -> tuple[int, ...]:
    return tuple(field.digits[index].tolist())


def index_of_vector(field: Field, vec) -> int:
    code = np.mod(vec, field.p) @ field.p ** np.arange(2 * field.k)  # a wrong length raises
    return int(field.index_of_code[code])


def field_describe(field: Field) -> dict:
    return {"p": field.p, "k": field.k, "q": field.q, "modulus": list(field.modulus)}


# -- Hermitian matrices and surfaces ---------------------------------------

def conj_transpose(field: Field, a):
    return tuple(tuple(field.conj(a[j][i]) for j in range(4)) for i in range(4))


def random_hermitian(field: Field, rng):
    """A uniformly random nonzero Hermitian matrix (any rank)."""
    sub = field.subfield_indices()
    while True:
        a = [[0] * 4 for _ in range(4)]
        for i in range(4):
            a[i][i] = rng.choice(sub)
            for j in range(i + 1, 4):
                a[i][j] = rng.randrange(field.order)
                a[j][i] = field.conj(a[i][j])
        if any(x for row in a for x in row):
            return tuple(tuple(row) for row in a)


def surface_points(surface) -> list[tuple[int, ...]]:
    return [tuple(p) for p in surface.arr.tolist()]


def tangent_plane(surface, point) -> tuple[int, ...]:
    """Dual coordinates A P^(q) of the tangent plane at P, normalized.  P
    must be on the surface, and the surface nondegenerate."""
    plane_ids = surface.tangent_plane_ids()  # refuses a degenerate surface first
    return tuple(surface.geometry.arr[plane_ids[surface._positions([point])[0]]].tolist())


def surface_describe(surface) -> dict:
    """Serialized form: q plus the 16 matrix element indices, row major."""
    return {"q": surface.q, "matrix": [c for row in surface.matrix for c in row]}


# -- forms ----------------------------------------------------------------

def incidence_double_count(form, surface) -> tuple[int, int]:
    """(|X| * (q+1), sum over generators of |l n V(F)|); always equal,
    because every surface point lies on exactly q+1 generators."""
    zero = form.values_at(surface.arr) == 0
    lhs = int(zero.sum()) * (surface.q + 1)
    rhs = int(zero[surface.generator_positions()].sum())
    return lhs, rhs


# -- the geometry of PG(3, q^2) --------------------------------------------

def projective_points(field: Field, dim: int) -> list[tuple[int, ...]]:
    """All points of PG(dim, q^2) as normalized tuples, ascending lex order."""
    if dim not in (1, 2, 3):
        raise GeometryError(f"dim must be 1, 2 or 3, got {dim}")
    return [tuple(p) for p in _rref_matrices(field.order, 1, dim + 1)[:, 0].tolist()]


def points_on_line(geometry, line: Line) -> list[tuple[int, ...]]:
    return geometry._tuples(list(line.point_ids))


def enumerate_lines(geometry) -> list[Line]:
    """All lines in ascending key order, which is the order in which a
    walk over ascending point pairs first meets them."""
    return [Line(tuple(row)) for row in geometry.line_ids(np.eye(4)).tolist()]


def incident(geometry, plane, point) -> bool:
    return bool(incidence(geometry.field, geometry.normalize(point), geometry.normalize(plane)) == 0)


def points_on_plane(geometry, plane) -> list[tuple[int, ...]]:
    return geometry._tuples(geometry.plane_point_ids(plane))


def lines_in_plane(geometry, plane) -> list[Line]:
    """The q^4+q^2+1 lines of a plane, by key."""
    ids = geometry.line_ids(dual_basis(geometry.field, [geometry.normalize(plane)])[0])
    return [Line(tuple(row)) for row in ids.tolist()]


def planes_through_point(geometry, P) -> list[tuple[int, ...]]:
    """The q^4+q^2+1 planes through P, in ascending tuple order (dual
    coordinates enumerate like points)."""
    f = geometry.field
    return geometry._tuples(span_ids(f, dual_basis(f, [geometry.normalize(P)]))[0])


# -- bound reports ---------------------------------------------------------

def violations(report) -> list[str]:
    return [name for name, c in report.checks.items() if c.satisfied is False]
