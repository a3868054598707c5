"""Points, lines and planes of PG(3, q^2).

A point is a normalized coordinate 4-tuple of element indices: the first
nonzero coordinate is scaled to 1, so two tuples represent the same
projective point iff their normalized forms are identical.  Planes use
the same normalization on dual coordinates, and a point P lies on the
plane c iff sum(c_i * P_i) = 0.

``Geometry`` interns every point of PG(3, q^2), assigning integer ids in
ascending lexicographic order of the normalized index tuples.  Because
ids follow that order, the two smallest ids on a line are its two
lexicographically smallest points, which form the line's canonical key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hermsurf.finite_field import Field, nullspace


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


def projective_points(field: Field, dim: int) -> list[tuple[int, ...]]:
    """All points of PG(dim, q^2) as normalized tuples, ascending lex order."""
    if dim not in (1, 2, 3):
        raise GeometryError(f"dim must be 1, 2 or 3, got {dim}")
    n = dim + 1
    pts: list[tuple[int, ...]] = []
    for lead in range(n - 1, -1, -1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(field.order), repeat=n - 1 - lead):
            pts.append(prefix + tail)
    return pts


def on_plane(field: Field, plane, pts: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (N, 4) point array that lie on the plane
    (vectorized pairing with its dual coordinates)."""
    acc = np.zeros(len(pts), dtype=np.int16)
    for i, c in enumerate(plane):
        if c:
            acc = field.add_np[acc, field.mul_np[c, pts[:, i]]]
    return acc == 0


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
    """Interned PG(3, q^2) with incidence and enumeration helpers."""

    def __init__(self, field: Field):
        self.field = field
        self.points = projective_points(field, 3)
        self.point_index = {pt: i for i, pt in enumerate(self.points)}
        self.arr = np.array(self.points, dtype=np.int16)
        self.n_points = len(self.points)

    # -- points ---------------------------------------------------------

    def normalize(self, coords) -> tuple[int, ...]:
        return normalize(self.field, coords)

    def point_id(self, coords) -> int:
        return self.point_index[self.normalize(coords)]

    # -- lines ----------------------------------------------------------

    def line_points(self, P, Q) -> list[tuple[int, ...]]:
        """The q^2+1 points a*P + b*Q over (a : b) in PG(1, q^2)."""
        f = self.field
        P = self.normalize(P)
        Q = self.normalize(Q)
        if P == Q:
            raise GeometryError("line_points needs two distinct points")
        pts = [P]
        for a in range(f.order):
            pts.append(self.normalize(tuple(f.add(f.mul(a, x), y) for x, y in zip(P, Q))))
        return pts

    def line_through(self, P, Q) -> Line:
        ids = sorted(self.point_index[pt] for pt in self.line_points(P, Q))
        return Line(tuple(ids))

    def line_between_ids(self, pid: int, qid: int) -> Line:
        return self.line_through(self.points[pid], self.points[qid])

    def points_on_line(self, line: Line) -> list[tuple[int, ...]]:
        return [self.points[i] for i in line.point_ids]

    def enumerate_lines(self) -> list[Line]:
        """All lines, each built once via covered point-pair bookkeeping."""
        covered: set[tuple[int, int]] = set()
        lines = []
        for i in range(self.n_points):
            for j in range(i + 1, self.n_points):
                if (i, j) in covered:
                    continue
                line = self.line_between_ids(i, j)
                lines.append(line)
                covered.update(itertools.combinations(line.point_ids, 2))
        return lines

    # -- planes ---------------------------------------------------------

    def incident(self, plane, point) -> bool:
        f = self.field
        s = 0
        for c, x in zip(plane, point):
            s = f.add(s, f.mul(c, x))
        return s == 0

    def plane_through(self, P, Q, R) -> tuple[int, ...]:
        rows = [self.normalize(P), self.normalize(Q), self.normalize(R)]
        basis = nullspace(self.field, rows)
        if len(basis) != 1:
            raise GeometryError("plane_through needs three non-collinear points")
        return normalize(self.field, basis[0])

    def plane_point_ids(self, plane) -> np.ndarray:
        """Ids of the points on a plane, ascending."""
        return np.nonzero(on_plane(self.field, plane, self.arr))[0]

    def points_on_plane(self, plane) -> list[tuple[int, ...]]:
        return [self.points[int(i)] for i in self.plane_point_ids(plane)]

    def planes_through_point(self, P) -> list[tuple[int, ...]]:
        basis = nullspace(self.field, [self.normalize(P)])
        return self._span_planes(basis)

    def book_of_planes(self, line: Line) -> list[tuple[int, ...]]:
        """The q^2+1 planes containing the line, in ascending tuple order."""
        p0, p1 = line.key
        basis = nullspace(self.field, [self.points[p0], self.points[p1]])
        return self._span_planes(basis)

    def _span_planes(self, basis) -> list[tuple[int, ...]]:
        f = self.field
        planes = set()
        for combo in projective_points(f, len(basis) - 1):
            vec = [0, 0, 0, 0]
            for coef, bvec in zip(combo, basis):
                if coef:
                    for i in range(4):
                        vec[i] = f.add(vec[i], f.mul(coef, bvec[i]))
            planes.add(normalize(f, vec))
        return sorted(planes)

    def lines_in_plane(self, plane) -> list[Line]:
        ids = [int(i) for i in self.plane_point_ids(plane)]
        covered: set[tuple[int, int]] = set()
        lines = []
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                pair = (ids[a], ids[b])
                if pair in covered:
                    continue
                line = self.line_between_ids(*pair)
                lines.append(line)
                covered.update(itertools.combinations(line.point_ids, 2))
        return lines

    # -- serialization ---------------------------------------------------

    def serialize_line(self, line: Line) -> list[list[int]]:
        p0, p1 = line.key
        return [list(self.points[p0]), list(self.points[p1])]

    def __repr__(self):
        return f"Geometry(q={self.field.q}, points={self.n_points})"


@lru_cache(maxsize=None)
def geometry_for(field: Field) -> Geometry:
    return Geometry(field)
