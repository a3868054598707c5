import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermsurf import finite_field, hermitian
from hermsurf.finite_field import build_field, matrix_rank, nullspace
from hermsurf.forms import surface_form
from hermsurf.hermitian import (
    BookClassification,
    HermitianError,
    HermitianSurface,
    InternalConsistencyError,
    LineKind,
    TangentPlaneCensus,
    canonical_surface,
    canonicalize,
    congruence,
    is_hermitian,
)
from hermsurf.proj_geometry import Geometry, dual_basis, normalize
from helpers import (
    conj_transpose,
    enumerate_lines,
    incident,
    lines_in_plane,
    random_hermitian,
    surface_describe,
    surface_points,
    tangent_plane,
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


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), seed=st.sampled_from([None, 0, 1, 2]), data=st.data())
def test_contains_is_the_surface_equation(q, seed, data):
    """Oracle: x^T A x^(q) evaluated term by term, at any nonzero multiple
    of a random point and of a surface point, on canonical and random
    rank-4 surfaces."""
    s = canonical_surface(q) if seed is None else random_surface(q, seed)
    f, h = s.field, surface_form(s)
    scale = data.draw(st.integers(1, f.order - 1))
    point = data.draw(st.lists(st.integers(0, f.order - 1), min_size=4, max_size=4)
                      .filter(any))
    on = surface_points(s)[data.draw(st.integers(0, s.n_surface_points() - 1))]
    for p in (point, on):
        p = [f.mul(scale, x) for x in p]
        assert s.contains(p) == (h.evaluate(p) == 0)
    assert s.contains(on)


def test_points_match_brute_force(s2):
    oracle = brute_force_points(s2.field, s2.matrix, s2.geometry)
    assert surface_points(s2) == oracle


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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_congruence_matches_the_scalar_sum(q):
    """Oracle: entry (i, j) of T^T A T^(q) is sum_(r,c) t_ri a_rc t_cj^q,
    added one term at a time, for random Hermitian A of any rank and any T."""
    f = build_field(q)
    rng = random.Random(q)
    for _ in range(20):
        a = random_hermitian(f, rng)
        t = [[rng.randrange(f.order) for _ in range(4)] for _ in range(4)]
        want = [[0] * 4 for _ in range(4)]
        for i, j, r, c in itertools.product(range(4), repeat=4):
            term = f.mul(f.mul(t[r][i], a[r][c]), f.conj(t[c][j]))
            want[i][j] = f.add(want[i][j], term)
        assert congruence(f, a, t) == tuple(map(tuple, want))


def test_non_tangent_sections_have_no_generator(s2):
    """A non-tangent plane cuts a Hermitian curve: q^3+1 points, no line."""
    tangent = set(s2.tangent_planes())
    gen_keys = {g.key for g in s2.generators()}
    checked = 0
    for plane in s2.geometry.points:
        if plane in tangent:
            continue
        lines = lines_in_plane(s2.geometry, plane)
        assert all(line.key not in gen_keys for line in lines)
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_surface_describe(s2):
    data = surface_describe(s2)
    assert data["q"] == 2
    assert len(data["matrix"]) == 16
    assert data["matrix"] == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]


def test_tangent_plane_examples(s2):
    assert tangent_plane(s2, (1, 1, 0, 0)) == (1, 1, 0, 0)
    section = [
        pt for pt in surface_points(s2) if incident(s2.geometry, (1, 1, 0, 0), pt)
    ]
    assert len(section) == 13  # q^3 + q^2 + 1
    non_tangent = [pt for pt in surface_points(s2) if pt[0] == 0]
    assert len(non_tangent) == 9  # q^3 + 1
    with pytest.raises(HermitianError):
        tangent_plane(s2, (1, 0, 0, 0))


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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_line_counts_match_scalar_count(q):
    """Every line of PG(3, 4) at q = 2, 200 random lines at q = 3 and 4,
    against a count of the points for which x^T A x^(q) = 0."""
    s = canonical_surface(q)
    g = s.geometry
    if q == 2:
        lines = enumerate_lines(g)
    else:
        rng = random.Random(q)
        lines = [g.line_between_ids(*rng.sample(range(g.n_points), 2)) for _ in range(200)]
    want = [sum(s.contains(g.points[i]) for i in line.point_ids) for line in lines]
    ids = np.array([line.point_ids for line in lines])
    assert s.line_counts(ids).tolist() == want
    assert [s.line_counts(row) for row in ids] == want


def test_line_counts_refuse_impossible_counts(s3):
    """Two surface points on a row of q^2+1 ids is neither 1, q+1 nor q^2+1."""
    off = np.flatnonzero(s3.position_of < 0)[:8]
    row = np.concatenate([s3.point_ids[:2], off])
    with pytest.raises(InternalConsistencyError):
        s3.line_counts(row)
    generator = np.array(s3.generators()[0].point_ids)
    with pytest.raises(InternalConsistencyError):
        s3.line_counts(np.stack([generator, row]))


def test_trichotomy_exhaustive_q2(s2):
    counts = {LineKind.TANGENT: 0, LineKind.SECANT: 0, LineKind.GENERATOR: 0}
    for line in enumerate_lines(s2.geometry):
        cls = s2.classify_line(line)
        assert len(cls.point_ids) in (1, 3, 5)
        counts[cls.kind] += 1
    assert counts[LineKind.GENERATOR] == 27
    assert counts[LineKind.TANGENT] == 45 * 2  # (q^2 - q) tangents per point
    assert counts[LineKind.SECANT] == 357 - 27 - 90


def test_generator_counts(s2, s3):
    assert len(s2.generators()) == 27
    assert len(s3.generators()) == 112


@pytest.mark.parametrize("q,seed", [(2, None), (2, 5), (2, 6), (3, None), (3, 5)],
                         ids=["canonical", "random5", "random6", "q3-canonical", "q3-random5"])
def test_generators_match_all_line_classification(q, seed):
    """Oracle: classify every line of PG(3, q^2) and compare the sets."""
    s = canonical_surface(q) if seed is None else random_surface(q, seed)
    via_classification = {
        line.key
        for line in enumerate_lines(s.geometry)
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
        pos = s.position_of[geom.plane_point_ids(tangent_plane(s, geom.points[pid]))]
        assert section.dtype == np.int64
        assert np.array_equal(section, pos[pos >= 0])


def test_generators_make_no_line_through_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("generators() built a line by line_through")

    monkeypatch.setattr(Geometry, "line_through", refuse)
    s = HermitianSurface.canonical(build_field(3))
    assert len(s.generators()) == 112


def test_generator_points_lie_on_surface():
    for q in (3, 4):
        positions = canonical_surface(q).generator_positions()
        assert positions.shape == ((q**3 + 1) * (q + 1), q * q + 1)
        assert (positions >= 0).all()


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
        s.line_counts(np.array(line.point_ids))
    with pytest.raises(HermitianError):
        s.generators()
    with pytest.raises(HermitianError):
        tangent_plane(s, (1, 1, 0, 0))
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
        for line in enumerate_lines(s.geometry)
        if s.classify_line(line).kind is LineKind.SECANT
    )
    assert s.classify_book(secant).tangent_plane_count == 3


def on_plane_scan(field, plane, pts):
    """Reference: mask of the rows of an (N, 4) point array on the plane,
    by the pairing with its dual coordinates."""
    acc = np.zeros(len(pts), dtype=np.int16)
    for i, c in enumerate(plane):
        if c:
            acc = field.add_np[acc, field.mul_np[c, pts[:, i]]]
    return acc == 0


@pytest.mark.parametrize("seed", [None, 7], ids=["canonical", "random7"])
@pytest.mark.parametrize("q", [2, 3])
def test_plane_section_sizes_match_plane_scan(q, seed):
    """Oracle: scan the surface's points once per plane of PG(3, q^2)."""
    s = canonical_surface(q) if seed is None else random_surface(q, seed)
    sizes = s.plane_section_sizes()
    scan = [int(on_plane_scan(s.field, plane, s.arr).sum()) for plane in s.geometry.points]
    assert sizes.tolist() == scan
    small, big = q**3 + 1, q**3 + q**2 + 1
    tangent = np.isin(np.arange(len(sizes)), s.tangent_plane_ids())
    assert np.array_equal(sizes, np.where(tangent, big, small))


@pytest.mark.parametrize("seed", [None, 7], ids=["canonical", "random7"])
@pytest.mark.parametrize("q", [2, 3])
def test_tangent_plane_line_census_matches_brute_force(q, seed):
    """Oracle: the plane's points by a pairing scan, its lines by a walk
    over point pairs with rank-2 membership, each line's surface points
    by x^T A x^(q) = 0."""
    s = canonical_surface(q) if seed is None else random_surface(q, seed)
    f, g = s.field, s.geometry
    on_surface = {tuple(pt) for pt in brute_force_points(f, s.matrix, g)}
    for pid in random.Random(q).sample(s.point_ids.tolist(), 3):
        point = g.points[pid]
        plane = tangent_plane(s, point)
        pts = [pt for pt in g.points if incident(g, plane, pt)]
        covered, lines = set(), []
        for a, b in itertools.combinations(pts, 2):
            if (a, b) in covered:
                continue
            line = [pt for pt in pts if matrix_rank(f, [list(a), list(b), list(pt)]) == 2]
            covered.update(itertools.combinations(line, 2))
            lines.append(line)
        gens = tangents = secants = 0
        for line in lines:
            meet = sum(pt in on_surface for pt in line)
            gens += meet == q * q + 1 and point in line
            tangents += meet == 1 and point in line
            secants += meet == q + 1 and point not in line
        census = s.tangent_plane_line_census(point)
        assert gens + tangents + secants == len(lines)
        assert (census.generators, census.tangents_through_point, census.secants,
                census.total_lines) == (gens, tangents, secants, len(lines))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("seed", [None, 5], ids=["canonical", "random5"])
def test_batched_tangent_plane_census_matches_one_point_calls(q, seed, monkeypatch):
    """A batch of points gives, in its order, the census of each point alone,
    whose lines come from the 3-row basis of its tangent plane; so does a
    batch split over several line_ids calls."""
    s = canonical_surface(q) if seed is None else random_surface(q, seed)
    pts = s.arr[random.Random(q).sample(range(s.n_surface_points()), 7)]
    alone = []
    for p in pts.tolist():
        ids = s.geometry.line_ids(dual_basis(s.field, [tangent_plane(s, p)])[0])
        counts, pid = s.line_counts(ids), s.geometry.point_id(p)
        assert (counts == q + 1).tolist() == (ids != pid).all(axis=1).tolist()
        alone.append(TangentPlaneCensus(*((counts == c).sum() for c in (q * q + 1, 1, q + 1)),
                                        len(ids)))
        assert s.tangent_plane_line_census(p) == alone[-1]
    assert s.tangent_plane_line_census(pts) == alone
    monkeypatch.setattr(hermitian, "_CENSUS_IDS", 2 * (q**4 + q**2 + 1) * (q**2 + 1))
    assert s.tangent_plane_line_census(pts) == alone
    off = s.geometry.arr[np.flatnonzero(s.position_of < 0)[0]]
    with pytest.raises(HermitianError):
        s.tangent_plane_line_census(np.vstack([pts, off]))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind", ["canonical", "random"])
def test_books_match_a_nullspace_oracle(q, kind):
    """Each book is the q^2+1 planes u + c v and v, for a nullspace basis u, v
    of two points of the line; book_tangency and classify_book read their
    tangent planes off it."""
    s = canonical_surface(q) if kind == "canonical" else random_surface(q, q)
    f, g, tangent = s.field, s.geometry, s.tangent_planes()
    rng = random.Random(q)
    pairs = [rng.sample(range(g.n_points), 2) for _ in range(30)]
    pairs += [gen.key for gen in rng.sample(s.generators(), 10)]
    tangency = s.book_tangency(*g.arr[np.array(pairs).T])
    assert tangency.shape == (len(pairs), q * q + 1)
    for (i, j), row in zip(pairs, tangency.tolist()):
        u, v = nullspace(f, g.arr[[i, j]].tolist())
        book = {normalize(f, v)} | {normalize(f, [f.add(x, f.mul(c, y)) for x, y in zip(u, v)])
                                    for c in range(f.order)}
        line = g.line_between_ids(i, j)
        assert g.book_of_planes(line) == sorted(book)
        touched = sorted(tangent[p] for p in book if p in tangent)
        assert sorted(t for t in row if t >= 0) == touched
        assert s.classify_book(line) == BookClassification(len(touched), tuple(touched))


@pytest.mark.parametrize("q", [3, 4])
def test_tangent_plane_ids_skip_rref(monkeypatch, q):
    """Polar rows are scaled by the log rule, not row-reduced one by one."""
    def refuse(*args):
        raise AssertionError("a polar row was row-reduced")

    s = random_surface(q, 5)
    f, g, a = s.field, s.geometry, s.matrix
    monkeypatch.setattr(finite_field, "rref", refuse)
    got = s.tangent_plane_ids()
    for pos, point in enumerate(surface_points(s)):
        polar = [0] * 4
        for i in range(4):
            for j in range(4):
                polar[i] = f.add(polar[i], f.mul(a[i][j], f.conj(point[j])))
        assert got[pos] == g.point_id(polar)
