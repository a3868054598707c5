"""Hermitian matrices and surfaces in PG(3, q^2).

A Hermitian matrix A is a nonzero 4x4 matrix over GF(q^2) with
A^T = A^(q) (entrywise q-th power).  The surface V(A) is the zero set of
x^T A x^(q); it is non-degenerate iff rank A = 4, in which case

    |V(A)(GF(q^2))| = (q^3 + 1)(q^2 + 1)

and the surface carries (q^3 + 1)(q + 1) generators (lines fully
contained in it).  Every line of PG(3, q^2) meets the surface in exactly
1, q+1 or q^2+1 rational points (tangent / secant / generator), and the
tangent plane at a surface point P is the polar plane with dual
coordinates A P^(q); it cuts the surface in the q+1 generators through P
(q^3 + q^2 + 1 points), while a non-tangent plane cuts a non-degenerate
Hermitian curve with q^3 + 1 points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hermsurf.finite_field import Field, matrix_rank
from hermsurf.proj_geometry import Geometry, Line, geometry_for, normalize, on_plane


class HermitianError(ValueError):
    pass


class InternalConsistencyError(RuntimeError):
    """An impossible count was observed; this can only be a bug."""


Matrix = tuple[tuple[int, ...], ...]


def conj_transpose(field: Field, a: Matrix) -> Matrix:
    return tuple(tuple(field.conj(a[j][i]) for j in range(4)) for i in range(4))


def is_hermitian(field: Field, a) -> bool:
    a = tuple(tuple(row) for row in a)
    if len(a) != 4 or any(len(row) != 4 for row in a):
        raise HermitianError("a Hermitian matrix must be 4x4")
    if any(not 0 <= x < field.order for row in a for x in row):
        raise HermitianError(f"matrix entries must be element indices 0..{field.order - 1}")
    if all(x == 0 for row in a for x in row):
        return False
    return all(a[i][j] == field.conj(a[j][i]) for i in range(4) for j in range(4))


def random_hermitian(field: Field, rng) -> Matrix:
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


def _pair(field: Field, a: Matrix, u, v) -> int:
    """The sesquilinear pairing u^T A v^(q)."""
    s = 0
    for i in range(4):
        if u[i] == 0:
            continue
        for j in range(4):
            s = field.add(s, field.mul(field.mul(u[i], a[i][j]), field.conj(v[j])))
    return s


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
        return _pair(f, a, u, v)

    while vectors:
        v = next((w for w in vectors if h(w, w) != 0), None)
        if v is None:
            hyp = None
            for i in range(len(vectors)):
                for j in range(i + 1, len(vectors)):
                    beta = h(vectors[i], vectors[j])
                    if beta != 0:
                        hyp = (vectors[i], vectors[j], beta)
                        break
                if hyp:
                    break
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
    """T^T A T^(q)."""
    f = field
    out = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            s = 0
            for r in range(4):
                for c in range(4):
                    s = f.add(s, f.mul(f.mul(t[r][i], a[r][c]), f.conj(t[c][j])))
            out[i][j] = s
    return tuple(tuple(row) for row in out)


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

    def __init__(self, field: Field, matrix, geometry: Geometry | None = None):
        if not is_hermitian(field, matrix):
            raise HermitianError("defining matrix is not Hermitian")
        self.field = field
        self.matrix: Matrix = tuple(tuple(row) for row in matrix)
        self.geometry = geometry if geometry is not None else geometry_for(field)
        self.rank = matrix_rank(field, [list(r) for r in self.matrix])

        f = field
        arr = self.geometry.arr
        n = self.geometry.n_points
        acc = np.zeros(n, dtype=np.int16)
        for i in range(4):
            for j in range(4):
                c = self.matrix[i][j]
                if c:
                    term = f.mul_np[f.mul_np[c, arr[:, i]], f.conj_np[arr[:, j]]]
                    acc = f.add_np[acc, term]
        self.point_ids = np.nonzero(acc == 0)[0].astype(np.int64)
        self.arr = arr[self.point_ids]  # (n_surface_points, 4) coordinates
        self.point_id_set = frozenset(int(i) for i in self.point_ids)
        # position of a geometry point id inside the surface point list
        self.position_of = np.full(n, -1, dtype=np.int64)
        self.position_of[self.point_ids] = np.arange(len(self.point_ids))

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
        p = self.geometry.normalize(point)
        return _pair(self.field, self.matrix, p, p) == 0

    def points(self) -> list[tuple[int, ...]]:
        return [self.geometry.points[int(i)] for i in self.point_ids]

    def _require_nondegenerate(self):
        if not self.is_nondegenerate:
            raise HermitianError(f"operation needs a non-degenerate surface (rank {self.rank})")

    # -- tangent planes ---------------------------------------------------

    def _polar(self, point) -> tuple[int, ...]:
        """Dual coordinates A P^(q) of the polar plane of P, normalized."""
        f = self.field
        coeffs = [0, 0, 0, 0]
        for i in range(4):
            for j in range(4):
                coeffs[i] = f.add(coeffs[i], f.mul(self.matrix[i][j], f.conj(point[j])))
        return normalize(f, coeffs)

    def tangent_plane(self, point) -> tuple[int, ...]:
        """Dual coordinates A P^(q), normalized.  P must be on the surface."""
        self._require_nondegenerate()
        p = self.geometry.normalize(point)
        if not self.contains(p):
            raise HermitianError(f"{p} is not on the surface")
        return self._polar(p)

    def tangent_planes(self) -> dict[tuple[int, ...], int]:
        """plane tuple -> id of the tangency point (a bijection)."""
        if self._tangent_planes is None:
            self._require_nondegenerate()
            self._tangent_planes = {
                self._polar(self.geometry.points[i]): i for i in self.point_ids.tolist()
            }
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

    def classify_line(self, line: Line) -> LineClass:
        self._require_nondegenerate()
        q = self.q
        on = tuple(i for i in line.point_ids if i in self.point_id_set)
        if len(on) == 1:
            kind = LineKind.TANGENT
        elif len(on) == q + 1:
            kind = LineKind.SECANT
        elif len(on) == q * q + 1:
            kind = LineKind.GENERATOR
        else:
            raise InternalConsistencyError(
                f"line meets the surface in {len(on)} points; expected 1, {q+1} or {q*q+1}"
            )
        return LineClass(kind, on)

    # -- generators --------------------------------------------------------

    def generators(self) -> tuple[Line, ...]:
        """All lines contained in the surface, from one non-tangent section.

        The polar plane of a point off the surface is not tangent, so each
        generator meets it in exactly one of its q^3+1 surface points R.
        The section of the tangent plane at R is the q+1 generators through
        R; walking its uncovered points builds each of them once.
        """
        if self._generators is None:
            self._require_nondegenerate()
            geom, f, q = self.geometry, self.field, self.q
            off_surface = geom.points[int(np.flatnonzero(self.position_of < 0)[0])]
            found: list[Line] = []
            for rid in self.point_ids[on_plane(f, self._polar(off_surface), self.arr)].tolist():
                section = self.point_ids[on_plane(f, self._polar(geom.points[rid]), self.arr)]
                covered: set[int] = {rid}
                count = 0
                for qid in section.tolist():
                    if qid in covered:
                        continue
                    line = geom.line_between_ids(rid, qid)
                    covered.update(line.point_ids)
                    found.append(line)
                    count += 1
                if count != q + 1:
                    raise InternalConsistencyError(
                        f"tangent section split into {count} lines, expected {q+1}"
                    )
            if len(found) != (q**3 + 1) * (q + 1):
                raise InternalConsistencyError(
                    f"found {len(found)} generators, expected {(q**3 + 1) * (q + 1)}"
                )
            gens = tuple(sorted(found, key=lambda line: line.key))
            positions = self.position_of[np.array([line.point_ids for line in gens])]
            flat = positions.ravel()
            if (np.bincount(flat, minlength=len(self.point_ids)) != q + 1).any():
                raise InternalConsistencyError("a surface point is not on exactly q+1 generators")
            # a stable sort keeps each point's generator indices ascending
            through = np.argsort(flat, kind="stable") // (q * q + 1)
            self._generators = gens
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

    def classify_book(self, line: Line) -> BookClassification:
        """Count tangent planes among the q^2+1 planes through the line."""
        self._require_nondegenerate()
        tangent = self.tangent_planes()
        touch = []
        for plane in self.geometry.book_of_planes(line):
            pid = tangent.get(plane)
            if pid is not None:
                touch.append(pid)
        return BookClassification(len(touch), tuple(sorted(touch)))

    def tangent_plane_line_census(self, point) -> TangentPlaneCensus:
        """Classify every line inside the tangent plane at a surface point."""
        self._require_nondegenerate()
        geom = self.geometry
        pid = geom.point_id(point)
        plane = self.tangent_plane(point)
        gens = tangents = secants = 0
        lines = geom.lines_in_plane(plane)
        for line in lines:
            cls = self.classify_line(line)
            if cls.kind is LineKind.GENERATOR:
                if pid not in line.point_ids:
                    raise InternalConsistencyError("generator in tangent plane misses the point")
                gens += 1
            elif cls.kind is LineKind.TANGENT:
                if pid not in line.point_ids:
                    raise InternalConsistencyError("tangent line in tangent plane misses the point")
                tangents += 1
            else:
                if pid in line.point_ids:
                    raise InternalConsistencyError("secant through the tangency point")
                secants += 1
        return TangentPlaneCensus(gens, tangents, secants, len(lines))

    def describe(self) -> dict:
        """Serialized form: q plus the 16 matrix element indices, row major."""
        return {"q": self.q, "matrix": [c for row in self.matrix for c in row]}

    def __repr__(self):
        return f"HermitianSurface(q={self.q}, rank={self.rank}, points={len(self.point_ids)})"


@lru_cache(maxsize=None)
def canonical_surface(q: int) -> HermitianSurface:
    """Cached canonical surface for a supported q."""
    from hermsurf.finite_field import build_field

    return HermitianSurface.canonical(build_field(q))
