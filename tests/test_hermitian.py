import random

import numpy as np
import pytest

from hermsurf.finite_field import build_field, matrix_rank
from hermsurf.hermitian import (
    BookClassification,
    HermitianError,
    HermitianSurface,
    InternalConsistencyError,
    LineKind,
    canonical_surface,
    canonicalize,
    congruence,
    conj_transpose,
    is_hermitian,
    random_hermitian,
)


def brute_force_points(field, matrix, geometry):
    """Independent oracle: evaluate x^T A x^(q) at every point."""
    out = []
    for pt in geometry.points:
        s = 0
        for i in range(4):
            for j in range(4):
                s = field.add(s, field.mul(field.mul(pt[i], matrix[i][j]), field.conj(pt[j])))
        if s == 0:
            out.append(pt)
    return out


def random_surface(q, seed):
    """A surface of a seeded random rank-4 Hermitian matrix."""
    f = build_field(q)
    rng = random.Random(seed)
    while True:
        a = random_hermitian(f, rng)
        if matrix_rank(f, [list(r) for r in a]) == 4:
            return HermitianSurface(f, a)


@pytest.fixture(scope="module")
def s2():
    return canonical_surface(2)


@pytest.fixture(scope="module")
def s3():
    return canonical_surface(3)


def test_point_counts(s2, s3):
    assert s2.n_surface_points() == 45
    assert s3.n_surface_points() == 280


def test_membership_examples(s2):
    w = s2.field.gen_index
    w2 = s2.field.mul(w, w)
    assert s2.contains((1, 1, 0, 0))
    assert not s2.contains((1, 0, 0, 0))
    assert s2.contains((1, w, w, w2))


def test_points_match_brute_force(s2):
    oracle = brute_force_points(s2.field, s2.matrix, s2.geometry)
    assert s2.points() == oracle


def test_hermitian_predicate():
    f = build_field(2)
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert is_hermitian(f, ident)
    assert not is_hermitian(f, tuple(tuple(0 for _ in range(4)) for _ in range(4)))
    w = f.gen_index
    bad = [[0, w, 0, 0], [w, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    # off-diagonal pair must be conjugate, not equal, so this fails for w != w^2
    assert not is_hermitian(f, bad)
    good = [[0, w, 0, 0], [f.conj(w), 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert is_hermitian(f, good)
    assert conj_transpose(f, tuple(tuple(r) for r in good)) == tuple(tuple(r) for r in good)


def test_canonicalize_identity_and_cone():
    f = build_field(2)
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    t, r = canonicalize(f, ident)
    assert r == 4 and t == ident
    cone = tuple(tuple(int(i == j and i < 3) for j in range(4)) for i in range(4))
    t, r = canonicalize(f, cone)
    assert r == 3
    assert congruence(f, cone, t) == cone  # already canonical diag(1,1,1,0)


@pytest.mark.parametrize("q", [2, 3])
def test_canonicalize_random(q):
    f = build_field(q)
    rng = random.Random(11 + q)
    from hermsurf.proj_geometry import geometry_for

    geom = geometry_for(f)
    for _ in range(30):
        a = random_hermitian(f, rng)
        t, r = canonicalize(f, a)
        diag = congruence(f, a, t)
        expected = tuple(tuple(1 if (i == j and i < r) else 0 for j in range(4)) for i in range(4))
        assert diag == expected
        assert r == matrix_rank(f, [list(row) for row in a])
        assert matrix_rank(f, [list(row) for row in t]) == 4
        # point count is a congruence invariant
        assert len(brute_force_points(f, a, geom)) == len(brute_force_points(f, diag, geom))


def test_canonicalize_rejects_non_hermitian():
    f = build_field(2)
    w = f.gen_index
    with pytest.raises(HermitianError):
        canonicalize(f, [[w, 0, 0, 0]] + [[0] * 4] * 3)  # diagonal not in subfield


def test_rank_invariant_under_congruence():
    f = build_field(2)
    rng = random.Random(13)
    base = random_hermitian(f, rng)
    base_rank = matrix_rank(f, [list(r) for r in base])
    trials = 0
    while trials < 100:
        t = tuple(tuple(rng.randrange(f.order) for _ in range(4)) for _ in range(4))
        if matrix_rank(f, [list(r) for r in t]) != 4:
            continue
        trials += 1
        b = congruence(f, base, t)
        assert matrix_rank(f, [list(r) for r in b]) == base_rank


def test_non_tangent_sections_have_no_generator(s2):
    """A non-tangent plane cuts a Hermitian curve: q^3+1 points, no line."""
    tangent = set(s2.tangent_planes())
    gen_keys = {g.key for g in s2.generators()}
    checked = 0
    for plane in s2.geometry.points:
        if plane in tangent:
            continue
        lines = s2.geometry.lines_in_plane(plane)
        assert all(line.key not in gen_keys for line in lines)
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_surface_describe(s2):
    data = s2.describe()
    assert data["q"] == 2
    assert len(data["matrix"]) == 16
    assert data["matrix"] == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]


def test_tangent_plane_examples(s2):
    assert s2.tangent_plane((1, 1, 0, 0)) == (1, 1, 0, 0)
    section = [
        pt for pt in s2.points() if s2.geometry.incident((1, 1, 0, 0), pt)
    ]
    assert len(section) == 13  # q^3 + q^2 + 1
    non_tangent = [pt for pt in s2.points() if pt[0] == 0]
    assert len(non_tangent) == 9  # q^3 + 1
    with pytest.raises(HermitianError):
        s2.tangent_plane((1, 0, 0, 0))


def test_tangent_planes_biject_with_points(s2, s3):
    for s in (s2, s3):
        planes = s.tangent_planes()
        assert len(planes) == s.n_surface_points()
        assert sorted(planes.values()) == [int(i) for i in s.point_ids]


def test_dual_tangency_criterion(s2):
    f = s2.field
    tangent = set(s2.tangent_planes())
    for plane in s2.geometry.points:
        dual_sum = 0
        for c in plane:
            dual_sum = f.add(dual_sum, f.norm(c))
        assert (dual_sum == 0) == (plane in tangent)


def test_classify_line_examples(s2):
    g = s2.geometry
    gen = g.line_through((1, 1, 0, 0), (0, 0, 1, 1))
    assert s2.classify_line(gen).kind is LineKind.GENERATOR
    sec = g.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    cls = s2.classify_line(sec)
    assert cls.kind is LineKind.SECANT
    pts = [g.points[i] for i in cls.point_ids]
    assert pts == [(1, 1, 0, 0), (1, 2, 0, 0), (1, 3, 0, 0)]
    tan = g.line_through((1, 1, 0, 0), (0, 0, 1, 0))
    cls = s2.classify_line(tan)
    assert cls.kind is LineKind.TANGENT
    assert [g.points[i] for i in cls.point_ids] == [(1, 1, 0, 0)]


def test_trichotomy_exhaustive_q2(s2):
    counts = {LineKind.TANGENT: 0, LineKind.SECANT: 0, LineKind.GENERATOR: 0}
    for line in s2.geometry.enumerate_lines():
        cls = s2.classify_line(line)
        assert len(cls.point_ids) in (1, 3, 5)
        counts[cls.kind] += 1
    assert counts[LineKind.GENERATOR] == 27
    assert counts[LineKind.TANGENT] == 45 * 2  # (q^2 - q) tangents per point
    assert counts[LineKind.SECANT] == 357 - 27 - 90


def test_generator_counts(s2, s3):
    assert len(s2.generators()) == 27
    assert len(s3.generators()) == 112


@pytest.mark.parametrize("seed", [None, 5, 6], ids=["canonical", "random5", "random6"])
def test_generators_match_all_line_classification(seed):
    """Oracle: classify every line of PG(3,4) and compare the sets."""
    s = canonical_surface(2) if seed is None else random_surface(2, seed)
    via_classification = {
        line.key
        for line in s.geometry.enumerate_lines()
        if s.classify_line(line).kind is LineKind.GENERATOR
    }
    assert [g.key for g in s.generators()] == sorted(via_classification)


@pytest.mark.parametrize("q", [2, 3])
def test_generators_through_each_point(q):
    s = canonical_surface(q)
    gens = s.generators()
    through = s.generators_through()
    assert through.shape == (s.n_surface_points(), q + 1)
    for pid, row in zip(s.point_ids.tolist(), through.tolist()):
        assert row == sorted(set(row))
        assert all(pid in gens[g].point_ids for g in row)
    assert through.size == len(gens) * (q * q + 1)


@pytest.mark.parametrize("seed", [None, 7], ids=["canonical", "random7"])
@pytest.mark.parametrize("q", [2, 3])
def test_tangent_sections_match_plane_scan(q, seed):
    """Oracle: each tangent section against a scan of its plane over PG(3, q^2)."""
    s = canonical_surface(q) if seed is None else random_surface(q, seed)
    geom = s.geometry
    sections = s.tangent_section_positions()
    assert len(sections) == s.n_surface_points()
    for pid, section in zip(s.point_ids.tolist(), sections):
        pos = s.position_of[geom.plane_point_ids(s.tangent_plane(geom.points[pid]))]
        assert section.dtype == np.int64
        assert np.array_equal(section, pos[pos >= 0])


def test_generator_points_lie_on_surface(s3):
    for line in s3.generators()[:20]:
        assert set(line.point_ids) <= s3.point_id_set
        assert len(line.point_ids) == 10


def test_classify_book_examples(s2):
    g = s2.geometry
    sec = g.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    book = s2.classify_book(sec)
    assert book.tangent_plane_count == 3
    # tangency points are off the secant
    assert set(book.tangency_point_ids).isdisjoint(sec.point_ids)
    gen = g.line_through((1, 1, 0, 0), (0, 0, 1, 1))
    book = s2.classify_book(gen)
    assert book.tangent_plane_count == 5
    assert set(book.tangency_point_ids) <= set(gen.point_ids)
    tan = g.line_through((1, 1, 0, 0), (0, 0, 1, 0))
    book = s2.classify_book(tan)
    assert book == BookClassification(1, (s2.geometry.point_id((1, 1, 0, 0)),))


@pytest.mark.parametrize("q", [2, 3])
def test_book_counts_sampled(q):
    s = canonical_surface(q)
    g = s.geometry
    rng = random.Random(17)
    want = {LineKind.GENERATOR: q * q + 1, LineKind.TANGENT: 1, LineKind.SECANT: q + 1}
    seen = {k: 0 for k in want}
    for line in rng.sample(s.generators(), 10):
        assert s.classify_book(line).tangent_plane_count == want[LineKind.GENERATOR]
        seen[LineKind.GENERATOR] += 1
    attempts = 0
    while min(seen[LineKind.TANGENT], seen[LineKind.SECANT]) < 10 and attempts < 20000:
        attempts += 1
        i, j = rng.sample(range(g.n_points), 2)
        line = g.line_between_ids(i, j)
        kind = s.classify_line(line).kind
        if kind is LineKind.GENERATOR or seen[kind] >= 10:
            continue
        assert s.classify_book(line).tangent_plane_count == want[kind]
        seen[kind] += 1
    assert seen[LineKind.TANGENT] == seen[LineKind.SECANT] == 10


def test_census_q2(s2):
    census = s2.tangent_plane_line_census((1, 1, 0, 0))
    assert census.generators == 3
    assert census.tangents_through_point == 2
    assert census.secants == 16
    assert census.total_lines == 21


def test_census_q3(s3):
    pt = s3.geometry.points[int(s3.point_ids[7])]
    census = s3.tangent_plane_line_census(pt)
    assert census.generators == 4
    assert census.tangents_through_point == 6
    assert census.secants == 91 - 10


def test_degenerate_surface_refusals():
    f = build_field(2)
    cone = tuple(tuple(int(i == j and i < 3) for j in range(4)) for i in range(4))
    s = HermitianSurface(f, cone)
    assert s.rank == 3
    assert not s.is_nondegenerate
    line = s.geometry.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(HermitianError):
        s.classify_line(line)
    with pytest.raises(HermitianError):
        s.generators()
    with pytest.raises(HermitianError):
        s.tangent_plane((1, 1, 0, 0))
    # degenerate surfaces are still constructible and countable
    assert s.n_surface_points() == len(brute_force_points(f, cone, s.geometry))


def test_surface_requires_hermitian_matrix():
    f = build_field(2)
    with pytest.raises(HermitianError):
        HermitianSurface(f, [[0] * 4] * 4)


def test_matrix_entries_are_range_checked():
    f = build_field(2)
    for c in (-1, 4):
        a = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        a[3][3] = c
        with pytest.raises(HermitianError):
            is_hermitian(f, a)
        with pytest.raises(HermitianError):
            HermitianSurface(f, a)


def test_matrix_shape_is_checked():
    f = build_field(2)
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for a in ([row[:3] for row in ident[:3]], ident[:3], [row[:3] for row in ident],
              [row + [0] for row in ident] + [[0] * 5]):
        with pytest.raises(HermitianError):
            is_hermitian(f, a)
        with pytest.raises(HermitianError):
            HermitianSurface(f, a)


def test_non_canonical_surface_full_structure():
    """A random rank-4 matrix carries the same geometry as the canonical one."""
    s = random_surface(2, 99)
    assert s.n_surface_points() == 45
    assert len(s.generators()) == 27
    assert len(s.tangent_planes()) == 45
    pt = s.geometry.points[int(s.point_ids[3])]
    census = s.tangent_plane_line_census(pt)
    assert (census.generators, census.tangents_through_point, census.secants) == (3, 2, 16)
    assert s.classify_book(s.generators()[0]).tangent_plane_count == 5
    secant = next(
        line
        for line in s.geometry.enumerate_lines()
        if s.classify_line(line).kind is LineKind.SECANT
    )
    assert s.classify_book(secant).tangent_plane_count == 3
