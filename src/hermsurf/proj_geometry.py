"""Points, lines and planes of PG(3, q^2).

A point is a normalized coordinate 4-tuple of element indices: the first
nonzero coordinate is scaled to 1, so two tuples represent the same
projective point iff their normalized forms are identical.  Planes use
the same normalization on dual coordinates, and a point P lies on the
plane c iff sum(c_i * P_i) = 0.

Point ids follow the ascending lexicographic order of the normalized
tuples and are computed in closed form (Q = q^2): offset(lead) plus the
base-Q value of the coordinates after the first nonzero one, with
offsets 0, 1, 1+Q and 1+Q+Q^2 for leads 3, 2, 1, 0.  Planes get ids the
same way.  ``span_ids`` lists the ids in the span of a basis in reduced
row echelon form (RREF): the points of a line or plane, the planes
through a point or line, and the lines of a plane.  Closed forms give
every such basis, and the plane through three points, with no row
reduction.  The two smallest ids on a line are its two lexicographically
smallest points, which form the line's canonical key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from hermsurf.finite_field import Field


class GeometryError(ValueError):
    pass


def normalize(field: Field, coords) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1.  Idempotent."""
    coords = tuple(coords)
    for c in coords:
        if c != 0:
            if c == 1:
                return coords
            inv = field.inv(c)
            return tuple(field.mul(inv, x) for x in coords)
    raise GeometryError("cannot normalize the zero tuple")


@lru_cache(maxsize=None)
def _rref_matrices(order: int, k: int, n: int) -> np.ndarray:
    """Every k x n matrix of rank k in reduced row echelon form over a
    field of the given order, as a read-only (count, k, n) array.  For k = 1
    these are the normalized points of PG(n-1), in ascending lexicographic order."""
    blocks = []
    for pivots in itertools.combinations(range(n - 1, -1, -1), k):
        pivots = pivots[::-1]
        free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
        block = np.zeros((order ** len(free), k, n), dtype=np.int16)
        block[:, range(k), pivots] = 1
        grid = np.indices((order,) * len(free)).reshape(len(free), len(block))
        for (r, c), values in zip(free, grid):
            block[:, r, c] = values
        blocks.append(block)
    matrices = np.concatenate(blocks)
    matrices.flags.writeable = False
    return matrices


def projective_points(field: Field, dim: int) -> list[tuple[int, ...]]:
    """All points of PG(dim, q^2) as normalized tuples, ascending lex order."""
    if dim not in (1, 2, 3):
        raise GeometryError(f"dim must be 1, 2 or 3, got {dim}")
    return [tuple(p) for p in _rref_matrices(field.order, 1, dim + 1)[:, 0].tolist()]


def _normalized(field: Field, x: np.ndarray, col=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows x[i] / x[i, col[i]] by the log rule (col: first nonzero by default), and col."""
    col = (x != 0).argmax(axis=1) if col is None else col
    pivot = x[np.arange(len(x)), col, None]
    return np.where(x > 0, 1 + (x - pivot) % (field.order - 1), 0).astype(np.int16), col


def incidence(field: Field, pts, planes) -> np.ndarray:
    """sum_k P_k c_k over the last axis of point rows P and plane rows c (or any
    two index arrays), broadcast against each other: 0 iff P is on c."""
    terms = field.vmul(pts, planes)
    acc = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        acc = field.vadd(acc, terms[..., k])
    return acc


def join_basis(field: Field, a, b) -> np.ndarray:
    """(B, 2, 4) RREF bases of the lines through distinct points a[i], b[i], else GeometryError:
    normalized rows, b - a for equal leads, the upper row cleared at the lower's pivot."""
    (a, lead_a), (b, lead_b) = (_normalized(field, np.array(r, np.int16)) for r in (a, b))
    same = (lead_a == lead_b)[:, None]
    b, lead_b = _normalized(field, np.where(same, field.vadd(b, field.neg_np[a]), b))
    first = (lead_a < lead_b)[:, None]
    top, low = np.where(first, a, b), np.where(first, b, a)
    scale = top[np.arange(len(top)), np.maximum(lead_a, lead_b), None]
    basis = np.stack([field.vadd(top, field.neg_np[field.vmul(scale, low)]), low], axis=1)
    if not basis.any(axis=2).all():  # from a zero row, or from b - a = 0
        raise GeometryError("join_basis needs two independent nonzero rows")
    return basis


def dual_line_basis(field: Field, lines) -> np.ndarray:
    """(B, 2, 4) RREF bases of the null spaces of RREF line bases (books of planes, or
    where two planes meet): e_f - r0[f] e_i - r1[f] e_j, free columns f, pivots i < j."""
    lines = np.asarray(lines, dtype=np.int16)
    pivots = (lines != 0).argmax(axis=2)
    free = np.nonzero((np.arange(4) != pivots[..., None]).all(axis=1))[1].reshape(-1, 2)
    null, b = np.eye(4, dtype=np.int16)[free], np.arange(len(lines))[:, None]
    for r in range(2):
        null[b, [0, 1], pivots[:, r, None]] = field.neg_np[lines[b, r, free]]
    return join_basis(field, null[:, 0], null[:, 1])


def span_ids(field: Field, rows) -> np.ndarray:
    """Ids of every point in the projective span of a basis in RREF, else GeometryError.

    ``rows`` is one (k, 4) basis, giving a ((Q^k-1)/(Q-1),) array, or a
    (B, k, 4) batch of bases with one k, giving a (B, (Q^k-1)/(Q-1)) array;
    ids are in no particular order.  In RREF, a combination whose first
    nonzero coefficient a_j is 1 is normalized: it is 0 before row j's
    pivot, 1 there and a_i at each later row's pivot.
    So its id is offset(pivot_j) + sum_(i>j) a_i Q^(3-pivot_i) plus each
    non-pivot entry times its place value; only those entries need field
    arithmetic.  The span is b_j + <b_(j+1), ..., b_(k-1)> over j.  One-row
    bases are scaled by the log rule; zero, dependent and unreduced ones are refused.
    """
    bases = np.array(rows, dtype=np.int16)
    if bases.ndim == 2:
        return span_ids(field, bases[None])[0]
    count, k = bases.shape[:2]
    if k == 1:  # a zero row fails the test below
        bases[:, 0] = _normalized(field, bases[:, 0])[0]
    pivots = (bases != 0).argmax(axis=2)  # in RREF: p_j ascend, column p_j = e_j
    unit = (np.take_along_axis(bases, pivots[:, None], axis=2) == np.eye(k)).all(axis=(1, 2))
    if not (unit & (pivots[:, 1:] > pivots[:, :-1]).all(axis=1)).all():
        raise GeometryError("span_ids needs bases in reduced row echelon form")
    free = np.nonzero((np.arange(4) != pivots[..., None]).all(axis=1))[1].reshape(count, 4 - k)
    tails = bases[np.arange(count)[:, None, None], np.arange(k)[:, None], free[:, None]]
    order = field.order
    place = order ** np.arange(3, -1, -1, dtype=np.int32)  # of each coordinate in an id
    offset = np.array([1 + order + order**2, 1 + order, 1, 0], dtype=np.int32)
    scalars = np.arange(order, dtype=np.int32)
    combos = np.zeros((count, 1, 4 - k), dtype=np.int16)  # a combination of the rows after j
    value = np.zeros((count, 1), dtype=np.int32)  # and the place values of its pivot entries
    parts = [(offset[pivots[:, -1]] + (tails[:, -1] * place[free]).sum(axis=1))[:, None]]
    for j in range(k - 2, -1, -1):
        multiples = field.vmul(scalars[:, None], tails[:, None, j + 1])
        combos = field.vadd(combos[:, :, None], multiples[:, None]).reshape(count, -1, 4 - k)
        value = (value[:, :, None] + scalars * place[pivots[:, j + 1, None, None]]).reshape(count, -1)
        entries = field.vadd(combos, tails[:, None, j])
        ids = offset[pivots[:, j, None]] + value
        for c in range(4 - k):
            ids = ids + entries[:, :, c] * place[free[:, c, None]]
        parts.append(ids)
    return np.concatenate(parts, axis=1)


def dual_basis(field: Field, rows) -> np.ndarray:
    """(B, 3, 4) bases of the null spaces of B nonzero rows, the planes through a
    point or the points on a plane: with x_l the last nonzero entry of x, the rows
    e_c - (x_c / x_l) e_l, c != l, are orthogonal to x, and in RREF as x_c = 0 for c > l."""
    x = np.asarray(rows, dtype=np.int16)
    last = 3 - (x[:, ::-1] != 0).argmax(axis=1)
    basis = np.tile(np.eye(4, dtype=np.int16), (len(x), 1, 1))
    basis[np.arange(len(x)), :, last] = field.neg_np[_normalized(field, x, last)[0]]
    return basis[np.arange(4) != last[:, None]].reshape(-1, 3, 4)


@dataclass(frozen=True)
class Line:
    """A line of PG(3, q^2): the ascending tuple of its point ids.

    The canonical key is the pair of the two smallest ids, i.e. the two
    lexicographically smallest points on the line.
    """

    point_ids: tuple[int, ...]

    @property
    def key(self) -> tuple[int, int]:
        return (self.point_ids[0], self.point_ids[1])

    def __repr__(self):
        return f"Line{self.key}"


class Geometry:
    """PG(3, q^2) with closed-form point ids and incidence helpers."""

    def __init__(self, field: Field):
        self.field = field
        self.arr = _rref_matrices(field.order, 1, 4)[:, 0]  # row i = coordinates of point i
        self.n_points = len(self.arr)

    @cached_property
    def points(self) -> list[tuple[int, ...]]:
        """The points as tuples, by id (a view for serialization and tests)."""
        return [tuple(p) for p in self.arr.tolist()]

    def _tuples(self, ids) -> list[tuple[int, ...]]:
        return [tuple(p) for p in self.arr[np.sort(ids)].tolist()]

    # -- points ---------------------------------------------------------

    def normalize(self, coords) -> tuple[int, ...]:
        """Normalize a point or a plane, checking that it has 4 entries, each
        an element index 0..q^2-1."""
        coords = tuple(coords)
        if len(coords) != 4:
            raise GeometryError(f"a point of PG(3, q^2) has 4 coordinates, got {len(coords)}")
        for c in coords:
            if not (type(c) is int or isinstance(c, np.integer)) or not 0 <= c < self.field.order:
                raise GeometryError(
                    f"coordinates must be element indices 0..{self.field.order - 1}, got {c!r}"
                )
        return normalize(self.field, coords)

    def point_id(self, coords) -> int:
        return int(span_ids(self.field, [self.normalize(coords)])[0])

    # -- lines ----------------------------------------------------------

    def line_through(self, P, Q) -> Line:
        P, Q = self.normalize(P), self.normalize(Q)  # join_basis refuses P = Q
        ids = span_ids(self.field, join_basis(self.field, [P], [Q]))[0]
        return Line(tuple(np.sort(ids).tolist()))

    def line_between_ids(self, pid: int, qid: int) -> Line:
        return self.line_through(self.arr[pid].tolist(), self.arr[qid].tolist())

    def line_ids(self, basis) -> np.ndarray:
        """(L, q^2+1) ids of every line inside the span of a 3- or 4-row RREF
        basis, each row ascending, the rows in key order: the spans of
        R·basis over the 2 x k RREF matrices R.  A (B, k, 4) batch of bases
        gives a (B, L, q^2+1) array."""
        f = self.field
        bases = np.asarray(basis, dtype=np.int16)
        if bases.ndim == 2:
            return self.line_ids(bases[None])[0]
        coeffs = _rref_matrices(f.order, 2, bases.shape[1])
        rows = incidence(f, coeffs[:, :, None], bases.transpose(0, 2, 1)[:, None, None])  # R·basis
        ids = np.sort(span_ids(f, rows.reshape(-1, 2, 4)), axis=1).reshape(*rows.shape[:2], -1)
        return np.take_along_axis(ids, np.lexsort((ids[..., 1], ids[..., 0]))[..., None], axis=1)

    # -- planes ---------------------------------------------------------

    def plane_through(self, P, Q, R) -> tuple[int, ...]:
        """In the book u, v of the line PQ, the plane (v·R)u - (u·R)v holds R;
        it is zero iff R is on every plane of the book, i.e. on the line."""
        f = self.field
        P, Q, R = (self.normalize(x) for x in (P, Q, R))  # join_basis refuses P = Q
        u, v = dual_line_basis(f, join_basis(f, [P], [Q]))[0]
        vr, ur = incidence(f, R, [v, u])
        plane = f.vadd(f.vmul(vr, u), f.neg_np[f.vmul(ur, v)])
        if not plane.any():
            raise GeometryError("plane_through needs three non-collinear points")
        return normalize(f, plane.tolist())

    def plane_point_ids(self, plane) -> np.ndarray:
        """Ids of the points on a plane, ascending."""
        return np.sort(span_ids(self.field, dual_basis(self.field, [self.normalize(plane)]))[0])

    def book_of_planes(self, line: Line) -> list[tuple[int, ...]]:
        """The q^2+1 planes containing the line, in ascending tuple order."""
        f, (a, b) = self.field, self.arr[list(line.key)]
        return self._tuples(span_ids(f, dual_line_basis(f, join_basis(f, [a], [b])))[0])

    # -- serialization ---------------------------------------------------

    def serialize_line(self, line: Line) -> list[list[int]]:
        return self.arr[list(line.key)].tolist()

    def __repr__(self):
        return f"Geometry(q={self.field.q}, points={self.n_points})"


@lru_cache(maxsize=None)
def geometry_for(field: Field) -> Geometry:
    return Geometry(field)
