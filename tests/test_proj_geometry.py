import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermsurf.finite_field import build_field, matrix_rank, nullspace, rref
from hermsurf.hermitian import canonical_surface
from hermsurf.proj_geometry import (
    Geometry,
    GeometryError,
    Line,
    _rref_matrices,
    dual_basis,
    geometry_for,
    join_basis,
    normalize,
    span_ids,
)
from helpers import (
    enumerate_lines,
    incident,
    lines_in_plane,
    planes_through_point,
    points_on_line,
    points_on_plane,
    projective_points,
    tangent_plane,
)


@pytest.fixture(scope="module")
def g2():
    return geometry_for(build_field(2))


@pytest.fixture(scope="module")
def g3():
    return geometry_for(build_field(3))


def test_normalize_examples():
    f = build_field(2)
    w = f.gen_index  # omega
    assert normalize(f, (0, w, w, 0)) == (0, 1, 1, 0)
    assert normalize(f, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert normalize(f, normalize(f, (0, w, w, 0))) == (0, 1, 1, 0)
    with pytest.raises(GeometryError):
        normalize(f, (0, 0, 0, 0))


def test_normalize_scaling_invariance():
    f = build_field(2)
    rng = random.Random(5)
    for _ in range(100):
        v = [rng.randrange(f.order) for _ in range(4)]
        if not any(v):
            continue
        base = normalize(f, v)
        for lam in range(1, f.order):
            scaled = tuple(f.mul(lam, x) for x in v)
            assert normalize(f, scaled) == base


def test_point_counts():
    f2, f3 = build_field(2), build_field(3)
    assert len(projective_points(f2, 3)) == 85
    assert len(projective_points(f3, 3)) == 820
    assert len(projective_points(f2, 1)) == 5
    assert len(projective_points(f2, 2)) == 21


def test_enumeration_is_sorted_and_normalized(g2):
    assert g2.points == sorted(g2.points)
    for pt in g2.points:
        assert g2.normalize(pt) == pt
    assert len(set(g2.points)) == 85


def test_coordinate_line(g2):
    line = g2.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    pts = points_on_line(g2, line)
    assert len(pts) == 5
    assert all(p[2] == 0 and p[3] == 0 for p in pts)


def test_line_symmetry_and_well_definedness(g2):
    rng = random.Random(6)
    for _ in range(200):
        i, j = rng.sample(range(g2.n_points), 2)
        P, Q = g2.points[i], g2.points[j]
        line = g2.line_through(P, Q)
        assert g2.line_through(Q, P) == line
        # any two distinct points of the line give the same line back
        a, b = rng.sample(line.point_ids, 2)
        assert g2.line_between_ids(a, b) == line
    with pytest.raises(GeometryError):
        g2.line_through((1, 0, 0, 0), (1, 0, 0, 0))


def test_line_census_partitions_pairs(g2):
    lines = enumerate_lines(g2)
    assert len(lines) == 357  # (s^2+1)(s^2+s+1), s = 4
    seen_pairs = set()
    for line in lines:
        assert len(line.point_ids) == 5
        assert len(set(line.point_ids)) == 5
        for pair in itertools.combinations(line.point_ids, 2):
            assert pair not in seen_pairs
            seen_pairs.add(pair)
    assert len(seen_pairs) == 85 * 84 // 2  # every pair on exactly one line


def test_line_points_have_rank_two(g2):
    f = g2.field
    rng = random.Random(7)
    lines = enumerate_lines(g2)
    for line in rng.sample(lines, 30):
        base = [list(g2.points[line.key[0]]), list(g2.points[line.key[1]])]
        for pid in line.point_ids:
            rows = base + [list(g2.points[pid])]
            assert matrix_rank(f, rows) == 2


def test_plane_through_and_incidence(g2):
    plane = g2.plane_through((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert plane == (0, 0, 0, 1)
    assert incident(g2, plane, (1, 1, 1, 0))
    assert not incident(g2, plane, (0, 0, 0, 1))
    with pytest.raises(GeometryError):
        g2.plane_through((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0))


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), data=st.data())
def test_plane_through_matches_nullspace(q, data):
    """Oracle: the normalized nullspace of three points, any nonzero multiples
    of them, when they span a plane; GeometryError when they are collinear,
    R drawn on the line PQ (or P = Q) or at random."""
    f = build_field(q)
    g = geometry_for(f)
    point, scalar = st.integers(0, g.n_points - 1), st.integers(0, f.order - 1)
    P, Q, R = (list(g.points[data.draw(point)]) for _ in range(3))
    if data.draw(st.booleans(), label="R on the line PQ"):
        a, b = data.draw(scalar), data.draw(scalar)
        R = [f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(P, Q)]
        assume(any(R))
    rows = [[f.mul(data.draw(scalar.filter(bool)), x) for x in row] for row in (P, Q, R)]
    if matrix_rank(f, rows) < 3:
        with pytest.raises(GeometryError):
            g.plane_through(*rows)
        return
    plane = g.plane_through(*rows)
    assert plane == normalize(f, nullspace(f, rows)[0])
    assert all(incident(g, plane, row) for row in rows)


def test_plane_point_and_line_counts(g2):
    for plane in [(0, 0, 0, 1), (1, 2, 3, 1)]:
        assert len(points_on_plane(g2, plane)) == 21
        assert len(lines_in_plane(g2, plane)) == 21


def test_planes_through_point_count(g2):
    assert len(planes_through_point(g2, (1, 0, 0, 0))) == 21
    assert len(planes_through_point(g2, (1, 2, 3, 1))) == 21


def test_book_of_coordinate_line(g2):
    line = g2.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    book = g2.book_of_planes(line)
    assert book == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 2), (0, 0, 1, 3)]
    line_pts = set(line.point_ids)
    for plane in book:
        ids = set(int(i) for i in g2.plane_point_ids(plane))
        assert line_pts <= ids


def test_book_size_q3(g3):
    line = g3.line_through((1, 0, 0, 0), (0, 1, 2, 3))
    assert len(g3.book_of_planes(line)) == 10


def test_book_matches_plane_intersection_exhaustive(g2):
    """Every plane through two points of the line appears exactly once."""
    for line in enumerate_lines(g2):
        book = g2.book_of_planes(line)
        p0, p1 = line.key
        via_points = set(planes_through_point(g2, g2.points[p0])) & set(
            planes_through_point(g2, g2.points[p1])
        )
        assert set(book) == via_points
        assert len(book) == len(set(book)) == 5


def test_books_cover_space_and_meet_in_line(g2, g3):
    def check(g, lines):
        everything = set(range(g.n_points))
        for line in lines:
            book = g.book_of_planes(line)
            union = set()
            id_sets = []
            for plane in book:
                ids = set(int(x) for x in g.plane_point_ids(plane))
                union |= ids
                id_sets.append(ids)
            assert union == everything
            for s1, s2 in itertools.combinations(id_sets, 2):
                assert s1 & s2 == set(line.point_ids)

    check(g2, enumerate_lines(g2))  # exhaustive at q = 2
    rng = random.Random(9)
    sampled = [
        g3.line_between_ids(*rng.sample(range(g3.n_points), 2)) for _ in range(10)
    ]
    check(g3, sampled)


def test_planes_pairwise_meet_in_line(g2):
    rng = random.Random(10)
    planes = rng.sample(g2.points, 40)  # dual tuples enumerate like points
    for c1, c2 in itertools.combinations(planes, 2):
        ids1 = set(int(x) for x in g2.plane_point_ids(c1))
        ids2 = set(int(x) for x in g2.plane_point_ids(c2))
        common = ids1 & ids2
        assert len(common) == 5
        a, b = sorted(common)[:2]
        assert set(g2.line_between_ids(a, b).point_ids) == common


def test_serialize_line(g2):
    line = g2.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    pair = g2.serialize_line(line)
    assert pair == [[0, 1, 0, 0], [1, 0, 0, 0]]  # two lex-smallest points


@pytest.mark.parametrize("q", [2, 3, 4])
def test_closed_form_ids_match_enumeration(q):
    """Oracle: every nonzero 4-tuple normalized by scalar field calls,
    deduplicated and sorted; the closed-form id of point i is i."""
    f = build_field(q)
    g = geometry_for(f)
    vectors = itertools.product(range(f.order), repeat=4)
    oracle = sorted({normalize(f, v) for v in vectors if any(v)})
    assert g.points == oracle
    assert g.arr.dtype == np.int16
    assert np.array_equal(span_ids(f, g.arr[:, None])[:, 0], np.arange(g.n_points))
    rng = random.Random(q)
    for i in rng.sample(range(g.n_points), 50):
        lam = rng.randrange(1, f.order)
        assert g.point_id([f.mul(lam, x) for x in g.points[i]]) == i


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), k=st.integers(1, 3), data=st.data())
def test_span_ids_match_rank_filter(q, k, data):
    """Oracle: the points P of PG(3, q^2) with rank(rows + [P]) = k."""
    f = build_field(q)
    g = geometry_for(f)
    entry = st.integers(0, f.order - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=k, max_size=k))
    assume(matrix_rank(f, rows) == k)
    reduced = rref(f, rows)[0]
    ids = span_ids(f, reduced)
    oracle = [i for i, pt in enumerate(g.points) if matrix_rank(f, rows + [list(pt)]) == k]
    assert sorted(ids.tolist()) == oracle
    assert len(ids) == (f.order**k - 1) // (f.order - 1)
    batch = span_ids(f, np.array([reduced, reduced]))
    assert batch.shape == (2, len(ids)) and (batch == ids).all()
    # one-row bases are scaled; unreduced and permuted ones are refused, alone or in a batch
    if k == 1:
        assert np.array_equal(span_ids(f, rows), ids)
        return
    for basis in ([rows] if rows != reduced else []) + [reduced[::-1]]:
        with pytest.raises(GeometryError):
            span_ids(f, basis)
        with pytest.raises(GeometryError):
            span_ids(f, np.array([reduced, basis]))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), data=st.data())
def test_dual_basis_is_an_rref_nullspace(q, data):
    """Oracle: nullspace.  A vector read as a point or as a plane, scaled by
    any nonzero element, has a dual basis in RREF that spans what the
    nullspace basis spans: the planes through the point, or the points on
    the plane."""
    f = build_field(q)
    g = geometry_for(f)
    ids = data.draw(st.lists(st.integers(0, g.n_points - 1), min_size=1, max_size=4))
    rows = [[f.mul(data.draw(st.integers(1, f.order - 1)), x) for x in g.points[i]] for i in ids]
    bases = dual_basis(f, rows)
    assert bases.shape == (len(rows), 3, 4)
    for row, basis in zip(rows, bases.tolist()):
        reduced, pivots = rref(f, basis)
        assert reduced == basis and len(pivots) == 3
        oracle = span_ids(f, rref(f, nullspace(f, [row]))[0])
        assert np.array_equal(np.sort(span_ids(f, basis)), np.sort(oracle))


def test_span_ids_rejects_dependent_rows():
    f = build_field(2)
    with pytest.raises(GeometryError):
        span_ids(f, [[1, 0, 0, 0], [2, 0, 0, 0]])
    with pytest.raises(GeometryError):
        span_ids(f, [[1, 2, 3, 0], [0, 1, 1, 0], [1, 3, 2, 0]])  # third = first + 1 * second


def test_enumerate_lines_matches_pair_walk(g2):
    """Oracle: walk the point pairs in ascending order; each uncovered
    pair's line is the set of points P with rank(P_i, P_j, P) = 2."""
    f = g2.field
    covered = set()
    lines = []
    for i, j in itertools.combinations(range(g2.n_points), 2):
        if (i, j) in covered:
            continue
        base = [list(g2.points[i]), list(g2.points[j])]
        ids = tuple(n for n, pt in enumerate(g2.points) if matrix_rank(f, base + [list(pt)]) == 2)
        lines.append(Line(ids))
        covered.update(itertools.combinations(ids, 2))
    assert enumerate_lines(g2) == lines


def test_lines_in_plane_are_the_lines_inside_it(g3):
    rng = random.Random(11)
    lines = enumerate_lines(g3)
    for plane in rng.sample(g3.points, 3):
        on = set(g3.plane_point_ids(plane).tolist())
        inside = [line for line in lines if set(line.point_ids) <= on]
        assert lines_in_plane(g3, plane) == inside
        assert len(inside) == 91


def test_line_ids_of_a_batch_of_planes(g3):
    """A (B, 3, 4) batch of plane bases gives each plane's lines, in key order,
    as the lines of the full enumeration inside that plane."""
    lines = enumerate_lines(g3)
    planes = random.Random(12).sample(g3.points, 4)
    batch = g3.line_ids(dual_basis(g3.field, planes))
    assert batch.shape == (4, 91, 10)
    for plane, ids in zip(planes, batch.tolist()):
        on = set(g3.plane_point_ids(plane).tolist())
        assert [Line(tuple(row)) for row in ids] == [l for l in lines if set(l.point_ids) <= on]


def test_rref_matrices_are_cached_read_only_and_back_the_points():
    m = _rref_matrices(9, 2, 3)
    assert m is _rref_matrices(9, 2, 3) and not m.flags.writeable
    g = Geometry(build_field(3))
    assert np.shares_memory(g.arr, _rref_matrices(9, 1, 4)) and not g.arr.flags.writeable


@pytest.mark.parametrize("coords", [
    (5, 0, 0, 0),
    (1, -1, 0, 0),
    (0, 0, 0, 9),
    (1, 0, 0),
    (1, 0, 0, 0, 0),
    (1.0, 0, 0, 0),
    (True, 0, 0, 0),
])
def test_coordinates_are_checked(g2, coords):
    """Entries must be element indices 0..q^2-1 and a point has four."""
    s2 = canonical_surface(2)
    with pytest.raises(GeometryError):
        g2.point_id(coords)
    with pytest.raises(GeometryError):
        s2.contains(coords)
    with pytest.raises(GeometryError):
        tangent_plane(s2, coords)
    with pytest.raises(GeometryError):
        g2.line_through(coords, (0, 1, 0, 0))
    for plane, point in ((coords, (0, 1, 0, 0)), ((0, 1, 0, 0), coords)):
        with pytest.raises(GeometryError):
            incident(g2, plane, point)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), data=st.data())
def test_join_basis_matches_rref(q, data):
    """Independent rows, scaled by nonzero constants, sharing their leads or
    not, in either order, give rref's basis of their span."""
    f = build_field(q)
    element = st.integers(0, f.order - 1)
    a, b = (data.draw(st.lists(element, min_size=4, max_size=4)) for _ in range(2))
    assume(any(a))
    if data.draw(st.booleans(), label="equal leads"):
        lead = next(c for c, x in enumerate(a) if x)
        b[:lead], b[lead] = [0] * lead, data.draw(st.integers(1, f.order - 1))
    assume(matrix_rank(f, [a, b]) == 2)
    want = rref(f, [a, b])[0]
    for x, y in ((a, b), (b, a)):
        scale = data.draw(st.integers(1, f.order - 1))
        assert join_basis(f, [[f.mul(scale, c) for c in x]], [y]).tolist() == [want]


def test_join_basis_refuses_zero_and_dependent_rows():
    f = build_field(3)
    w = f.gen_index
    zero, row = (0, 0, 0, 0), (0, 1, w, 0)
    for a, b in ((zero, row), (row, zero), (zero, zero), (row, row),
                 (row, [f.mul(w, c) for c in row]), ((1, 0, 0, 0), (w, 0, 0, 0))):
        with pytest.raises(GeometryError):
            join_basis(f, [a], [b])
    with pytest.raises(GeometryError):  # one bad pair fails the batch
        join_basis(f, [(1, 0, 0, 0), row], [(0, 1, 0, 0), row])
