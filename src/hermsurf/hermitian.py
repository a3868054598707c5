"""Hermitian matrices and surfaces in PG(3, q^2).

A Hermitian matrix A is a nonzero 4x4 matrix over GF(q^2) with
A^T = A^(q) (entrywise q-th power).  The surface V(A) is the zero set of
x^T A x^(q); it is non-degenerate iff rank A = 4, in which case

    |V(A)(GF(q^2))| = (q^3 + 1)(q^2 + 1)

and the surface carries (q^3 + 1)(q + 1) generators (lines fully
contained in it).  Every line of PG(3, q^2) meets the surface in exactly
1, q+1 or q^2+1 rational points (tangent / secant / generator), so a
line's class is its surface-point count, and that count is also the
number of tangent planes through the line (``line_counts``).  The
tangent plane at a surface point P is the polar plane with dual
coordinates A P^(q); it cuts the surface in the q+1 generators through P
(q^3 + q^2 + 1 points), while a non-tangent plane cuts a non-degenerate
Hermitian curve with q^3 + 1 points.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hermsurf.finite_field import Field, matrix_rank
from hermsurf.proj_geometry import (Line, dual_basis, dual_line_basis, geometry_for,
                                    incidence, join_basis, span_ids)


class HermitianError(ValueError):
    pass


class InternalConsistencyError(RuntimeError):
    """An impossible count was observed; this can only be a bug."""


Matrix = tuple[tuple[int, ...], ...]

_SECTION_BATCH = 256  # surface points whose planes are spanned at once
_CENSUS_IDS = 1 << 18  # line point ids that one tangent-plane census call spans at most


def is_hermitian(field: Field, a) -> bool:
    a = tuple(tuple(row) for row in a)
    if len(a) != 4 or any(len(row) != 4 for row in a):
        raise HermitianError("a Hermitian matrix must be 4x4")
    if any(not 0 <= x < field.order for row in a for x in row):
        raise HermitianError(f"matrix entries must be element indices 0..{field.order - 1}")
    if all(x == 0 for row in a for x in row):
        return False
    return all(a[i][j] == field.conj(a[j][i]) for i in range(4) for j in range(4))


def _polar(field: Field, a, pts) -> np.ndarray:
    """Rows A P^(q): dual coordinates of the polar planes of point rows (the
    last axis), so that the pairing u^T A v^(q) is incidence(u, _polar(v))."""
    conj = field.conj_np[np.asarray(pts)]
    polar = np.zeros(conj.shape, dtype=np.int16)
    for i, j in zip(*np.nonzero(a)):
        polar[..., i] = field.vadd(polar[..., i], field.vmul(a[i][j], conj[..., j]))
    return polar


def canonicalize(field: Field, a) -> tuple[Matrix, int]:
    """Diagonalize a Hermitian matrix by congruence.

    Returns (T, r) with T invertible and T^T A T^(q) = diag(1,..,1,0,..,0)
    with r ones, r = rank A.  Gram-Schmidt for the sesquilinear pairing
    h(u, v) = u^T A v^(q): repeatedly pick a vector of nonzero h(v, v),
    scale it to h(v, v) = 1 via a norm preimage, and project the rest
    onto its orthogonal complement.  When every remaining vector is
    isotropic but some pair u, w has h(u, w) = beta != 0, the combination
    v = u + lambda w with trace(lambda^q beta) != 0 has h(v, v) != 0.
    """
    a = tuple(tuple(row) for row in a)
    if not is_hermitian(field, a):
        raise HermitianError("matrix is not Hermitian (or is zero)")

    f = field
    vectors = [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)]
    ortho: list[tuple[int, ...]] = []

    def h(u, v):
        return int(incidence(f, u, _polar(f, a, v)))

    while vectors:
        v = next((w for w in vectors if h(w, w) != 0), None)
        if v is None:
            pairs = ((u, w, h(u, w)) for u, w in itertools.combinations(vectors, 2))
            hyp = next((pair for pair in pairs if pair[2] != 0), None)
            if hyp is None:
                break  # pairing vanishes on the remaining span
            u, w, beta = hyp
            mu = f.nonzero_trace_element()
            lam = f.conj(f.div(mu, beta))  # lambda^q = mu / beta
            v = tuple(f.add(x, f.mul(lam, y)) for x, y in zip(u, w))
            vectors[vectors.index(u)] = v
        # scale to h(v, v) = 1: norms are onto the subfield
        c = f.norm_preimage(f.inv(h(v, v)))
        v = tuple(f.mul(c, x) for x in v)
        vectors = [
            tuple(f.sub(x, f.mul(h(u, v), y)) for x, y in zip(u, v))
            for u in vectors
            if u is not v
        ]
        vectors = [u for u in vectors if any(u)]
        ortho.append(v)

    rank = len(ortho)
    columns = ortho + vectors
    if len(columns) != 4:
        raise InternalConsistencyError("basis lost during diagonalization")
    transform = tuple(tuple(columns[j][i] for j in range(4)) for i in range(4))
    if rank != matrix_rank(field, [list(r) for r in a]):
        raise InternalConsistencyError("congruence rank disagrees with Gaussian rank")
    return transform, rank


def congruence(field: Field, a: Matrix, t: Matrix) -> Matrix:
    """T^T A T^(q): entry (i, j) is the pairing of the columns t_i and t_j of T."""
    cols = np.array(t).T
    return tuple(map(tuple, incidence(field, cols[:, None], _polar(field, a, cols)).tolist()))


class LineKind(enum.Enum):
    TANGENT = "tangent"
    SECANT = "secant"
    GENERATOR = "generator"


@dataclass(frozen=True)
class LineClass:
    kind: LineKind
    point_ids: tuple[int, ...]  # surface points on the line, ascending


@dataclass(frozen=True)
class BookClassification:
    tangent_plane_count: int
    tangency_point_ids: tuple[int, ...]


@dataclass(frozen=True)
class TangentPlaneCensus:
    generators: int
    tangents_through_point: int
    secants: int
    total_lines: int


class HermitianSurface:
    """A Hermitian surface with cached rational points and generators."""

    def __init__(self, field: Field, matrix):
        if not is_hermitian(field, matrix):
            raise HermitianError("defining matrix is not Hermitian")
        self.field = field
        self.matrix: Matrix = tuple(tuple(row) for row in matrix)
        self.geometry = geometry_for(field)
        self.rank = matrix_rank(field, [list(r) for r in self.matrix])

        # x^T A x^(q) pairs each point with the coordinates of its polar plane
        arr, n = self.geometry.arr, self.geometry.n_points
        polar = _polar(field, self.matrix, arr)
        self.point_ids = np.flatnonzero(incidence(field, arr, polar) == 0).astype(np.int64)
        self.arr = arr[self.point_ids]  # (n_surface_points, 4) coordinates
        # position of a geometry point id inside the surface point list
        self.position_of = np.full(n, -1, dtype=np.int64)
        self.position_of[self.point_ids] = np.arange(len(self.point_ids))

        self._tangent_plane_ids: np.ndarray | None = None
        self._tangent_planes: dict[tuple[int, ...], int] | None = None
        self._generators: tuple[Line, ...] | None = None
        self._generator_positions: np.ndarray | None = None
        self._generators_through: np.ndarray | None = None

    @classmethod
    def canonical(cls, field: Field) -> "HermitianSurface":
        """The surface x0^(q+1) + x1^(q+1) + x2^(q+1) + x3^(q+1) = 0."""
        ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
        return cls(field, ident)

    # -- basic queries ----------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def is_nondegenerate(self) -> bool:
        return self.rank == 4

    def n_surface_points(self) -> int:
        return len(self.point_ids)

    def contains(self, point) -> bool:
        return bool(self.position_of[self.geometry.point_id(point)] >= 0)

    def _require_nondegenerate(self):
        if not self.is_nondegenerate:
            raise HermitianError(f"operation needs a non-degenerate surface (rank {self.rank})")

    # -- tangent planes ---------------------------------------------------

    def _positions(self, points) -> np.ndarray:
        """Positions in the surface point list of points, else HermitianError."""
        positions = self.position_of[[self.geometry.point_id(p) for p in points]]
        if (positions < 0).any():
            raise HermitianError(f"{points[positions.argmin()]} is not on the surface")
        return positions

    def tangent_plane_ids(self) -> np.ndarray:
        """Plane id (dual coordinates ranked like points) of the tangent
        plane at each surface point, by surface position."""
        if self._tangent_plane_ids is None:
            self._require_nondegenerate()
            polars = _polar(self.field, self.matrix, self.arr)[:, None]
            self._tangent_plane_ids = span_ids(self.field, polars)[:, 0]
        return self._tangent_plane_ids

    def tangent_planes(self) -> dict[tuple[int, ...], int]:
        """plane tuple -> id of the tangency point (a bijection)."""
        if self._tangent_planes is None:
            planes = self.geometry.arr[self.tangent_plane_ids()].tolist()
            self._tangent_planes = dict(zip(map(tuple, planes), self.point_ids.tolist()))
        return self._tangent_planes

    def tangent_section_positions(self) -> list[np.ndarray]:
        """For the tangent plane at the i-th surface point: positions (into
        the surface point list) of the plane's section of the surface,
        ascending.  The section is the union of the q+1 generators through
        the point."""
        own = np.arange(len(self.point_ids))
        rows = self.generator_positions()[self.generators_through()].reshape(len(own), -1)
        others = rows[rows != own[:, None]].reshape(len(own), -1)
        return list(np.sort(np.column_stack([own, others])))

    # -- line classification ----------------------------------------------

    def line_counts(self, ids) -> np.ndarray:
        """The number of surface points on each row of an array of line
        point ids (a scalar for one row).  Any count but 1, q+1 or q^2+1
        raises InternalConsistencyError."""
        self._require_nondegenerate()
        q = self.q
        counts = (self.position_of[ids] >= 0).sum(axis=-1)
        bad = counts[~np.isin(counts, (1, q + 1, q * q + 1))]
        if bad.size:
            raise InternalConsistencyError(
                f"a line meets the surface in {bad.flat[0]} points; expected 1, {q+1} or {q*q+1}"
            )
        return counts

    def classify_line(self, line: Line) -> LineClass:
        ids = np.array(line.point_ids)
        count = self.line_counts(ids)
        kind = {1: LineKind.TANGENT, self.q + 1: LineKind.SECANT}.get(count, LineKind.GENERATOR)
        return LineClass(kind, tuple(ids[self.position_of[ids] >= 0].tolist()))

    # -- generators --------------------------------------------------------

    def generators(self) -> tuple[Line, ...]:
        """All lines contained in the surface, by key.

        The polar plane of a point off the surface is not tangent, so each
        generator meets it in exactly one of its q^3+1 surface points R.  If
        R_i = 1 leads R, the plane x_i = 0 misses R and meets the tangent
        plane T_R in a line, R's chord.  T_R cuts the surface in the q+1
        generators through R, which meet only in R; the chord, a line of T_R
        off R, meets each once.  So its q+1 surface points, the feet, lie one
        on each generator through R, and those generators join R to its feet.
        """
        if self._generators is None:
            self._require_nondegenerate()
            f, geom, q, a = self.field, self.geometry, self.q, self.matrix
            off_surface = geom.arr[np.flatnonzero(self.position_of < 0)[:1]]
            rs = self.arr[incidence(f, self.arr, _polar(f, a, off_surface)) == 0]
            axes = np.eye(4, dtype=np.int16)[(rs != 0).argmax(axis=1)]
            chords = span_ids(f, dual_line_basis(f, join_basis(f, _polar(f, a, rs), axes)))
            on = self.position_of[chords] >= 0
            if (on.sum(axis=1) != q + 1).any():
                raise InternalConsistencyError(f"a chord holds other than {q+1} surface points")
            feet = geom.arr[chords[on]]
            ids = np.sort(span_ids(f, join_basis(f, np.repeat(rs, q + 1, axis=0), feet)))
            ids = ids[np.lexsort((ids[:, 1], ids[:, 0]))]
            positions = self.position_of[ids]
            if (positions < 0).any():
                raise InternalConsistencyError("the join of a point and a foot leaves the surface")
            flat = positions.ravel()
            if (np.bincount(flat, minlength=len(self.point_ids)) != q + 1).any():
                raise InternalConsistencyError("a surface point is not on exactly q+1 generators")
            # a stable sort keeps each point's generator indices ascending
            through = np.argsort(flat, kind="stable") // (q * q + 1)
            self._generators = tuple(Line(tuple(row)) for row in ids.tolist())
            self._generator_positions = positions
            self._generators_through = through.reshape(len(self.point_ids), q + 1)
        return self._generators

    def generator_positions(self) -> np.ndarray:
        """(num_generators, q^2+1) positions into the surface point list."""
        self.generators()
        return self._generator_positions

    def generators_through(self) -> np.ndarray:
        """(n_surface_points, q+1): row i holds the indices (into
        generators(), ascending) of the lines through the i-th surface point."""
        self.generators()
        return self._generators_through

    # -- books and censuses --------------------------------------------------

    def plane_section_sizes(self) -> np.ndarray:
        """|plane n surface| for every plane, by plane id.  The planes
        through a surface point x are the span of a basis of x's null space,
        so one bincount over those spans counts each plane once for every
        surface point on it."""
        f = self.field
        sizes = np.zeros(self.geometry.n_points, dtype=np.int64)
        for lo in range(0, len(self.arr), _SECTION_BATCH):
            ids = span_ids(f, dual_basis(f, self.arr[lo : lo + _SECTION_BATCH]))
            sizes += np.bincount(ids.ravel(), minlength=len(sizes))
        return sizes

    def book_tangency(self, a, b) -> np.ndarray:
        """(B, q^2+1): for each plane through the line joining rows a[i] and
        b[i], the id of the surface point it is tangent at, or -1."""
        f, tangency = self.field, np.full(self.geometry.n_points, -1, dtype=np.int64)
        tangency[self.tangent_plane_ids()] = self.point_ids  # plane id -> tangency point id
        return tangency[span_ids(f, dual_line_basis(f, join_basis(f, a, b)))]

    def classify_book(self, line: Line) -> BookClassification:
        """Count tangent planes among the q^2+1 planes through the line."""
        touch = self.book_tangency(*self.geometry.arr[list(line.key), None])[0]
        touch = np.sort(touch[touch >= 0])
        return BookClassification(len(touch), tuple(touch.tolist()))

    def tangent_plane_line_census(self, points):
        """Classify every line inside the tangent plane at a surface point, or
        at each row of a (B, 4) array of them, giving a list of B censuses."""
        if np.ndim(points) == 1:
            return self.tangent_plane_line_census([points])[0]
        q, plane_ids, positions = self.q, self.tangent_plane_ids(), self._positions(points)
        bases = dual_basis(self.field, self.geometry.arr[plane_ids[positions]])
        pids = self.point_ids[positions, None, None]
        step = max(1, _CENSUS_IDS // ((q**4 + q**2 + 1) * (q**2 + 1)))  # planes per line_ids call
        censuses = []
        for lo in range(0, len(positions), step):
            ids = self.geometry.line_ids(bases[lo : lo + step])  # (step, L, q^2+1)
            counts = self.line_counts(ids)
            if ((ids == pids[lo : lo + step]).any(axis=2) == (counts == q + 1)).any():
                raise InternalConsistencyError("a tangent-plane line is secant iff it misses the point")
            censuses += [TangentPlaneCensus(*(int((row == c).sum()) for c in (q * q + 1, 1, q + 1)),
                                            len(row)) for row in counts]
        return censuses

    def __repr__(self):
        return f"HermitianSurface(q={self.q}, rank={self.rank}, points={len(self.point_ids)})"


@lru_cache(maxsize=None)
def canonical_surface(q: int) -> HermitianSurface:
    """Cached canonical surface for a supported q."""
    from hermsurf.finite_field import build_field

    return HermitianSurface.canonical(build_field(q))
