"""Acceptance suite: exact integer checks, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Every comparison is exact; each criterion also asserts its runtime budget.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hermsurf.finite_field import build_field, matrix_rank, nullspace
from hermsurf.forms import (
    form_from_vector,
    incidence_double_count,
    intersection_stats,
    monomial_count,
    plane_contained,
    hermitian_divides,
)
from hermsurf.hermitian import (
    HermitianSurface,
    LineKind,
    canonical_surface,
    canonicalize,
    congruence,
)
from hermsurf.codes import build_code, min_distance_enumerate, min_distance_geometric
from hermsurf.theorems import (
    build_extremal_pencil,
    build_grid_example,
    evaluate_bounds,
    exhaustive_search,
    sorensen_bound,
    tangent_plane_factors,
)
from helpers import enumerate_lines, random_hermitian, tangent_plane, violations
from symbolic import planes_inside


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"


def test_criterion_01_census():
    expected = {2: (45, 27), 3: (280, 112), 4: (1105, 325)}
    for q, (n_points, n_gens) in expected.items():
        with criterion(1, f"census q={q}: {n_points} points, {n_gens} generators", 5.0):
            surface = HermitianSurface.canonical(build_field(q))  # fresh, untimed caches
            assert surface.n_surface_points() == n_points == (q**3 + 1) * (q**2 + 1)
            assert len(surface.generators()) == n_gens == (q**3 + 1) * (q + 1)


def test_criterion_02_planar_sections():
    with criterion(2, "planar sections split q^3+1 / q^3+q^2+1 with the dual criterion", 10.0):
        for q in (2, 3):
            surface = canonical_surface(q)
            f = surface.field
            geom = surface.geometry
            tangent = set(surface.tangent_planes())
            small, big = q**3 + 1, q**3 + q**2 + 1
            for plane in geom.points:  # dual tuples enumerate like points
                ids = geom.plane_point_ids(plane)
                size = int((surface.position_of[ids] >= 0).sum())
                is_tangent = plane in tangent
                assert size == (big if is_tangent else small)
                dual_sum = 0
                for c in plane:
                    dual_sum = f.add(dual_sum, f.norm(c))
                assert (dual_sum == 0) == is_tangent


def test_criterion_03_line_trichotomy():
    with criterion(3, "all 357 lines of PG(3,4) classify 1/3/5 with 27 generators", 5.0):
        surface = canonical_surface(2)
        lines = enumerate_lines(surface.geometry)
        assert len(lines) == 357
        generators = 0
        for line in lines:
            cls = surface.classify_line(line)
            assert len(cls.point_ids) in (1, 3, 5)
            generators += cls.kind is LineKind.GENERATOR
        assert generators == 27


def test_criterion_04_books():
    with criterion(4, "books: q^2+1 / 1 / q+1 tangent planes per line class", 10.0):
        for q in (2, 3):
            surface = canonical_surface(q)
            geom = surface.geometry
            rng = random.Random(100 + q)
            want = {
                LineKind.GENERATOR: q**2 + 1,
                LineKind.TANGENT: 1,
                LineKind.SECANT: q + 1,
            }
            gens = surface.generators()
            for line in rng.sample(gens, min(50, len(gens))):
                assert surface.classify_book(line).tangent_plane_count == want[LineKind.GENERATOR]
            seen = {LineKind.TANGENT: 0, LineKind.SECANT: 0}
            while min(seen.values()) < 50:
                i, j = rng.sample(range(geom.n_points), 2)
                line = geom.line_between_ids(i, j)
                kind = surface.classify_line(line).kind
                if kind is LineKind.GENERATOR or seen.get(kind, 50) >= 50:
                    continue
                assert surface.classify_book(line).tangent_plane_count == want[kind]
                seen[kind] += 1


def test_criterion_05_tangent_plane_census():
    with criterion(5, "tangent-plane census: q+1 generators, q^2-q tangents, rest secant", 10.0):
        for q in (2, 3):
            surface = canonical_surface(q)
            rng = random.Random(200 + q)
            ids = [int(i) for i in surface.point_ids]
            for pid in rng.sample(ids, 10):
                census = surface.tangent_plane_line_census(surface.geometry.points[pid])
                assert census.generators == q + 1
                assert census.tangents_through_point == q**2 - q
                assert census.secants == census.total_lines - (q**2 + 1)


def test_criterion_06_extremal_pencils():
    with criterion(6, "pencils of d tangent planes give d(q^3+q^2-q)+q+1 exactly", 30.0):
        for q in (2, 3, 4):
            surface = canonical_surface(q)
            for d in range(1, q + 2):
                form = build_extremal_pencil(surface, d)
                rep = intersection_stats(form, surface)
                assert rep.x_count == d * (q**3 + q**2 - q) + q + 1


def test_criterion_07_exhaustive_maxima():
    with criterion(7, "exhaustive maxima q=2: d=1 -> 13, d=2 -> 23 with factoring argmaxes", 300.0):
        surface = canonical_surface(2)
        res1 = exhaustive_search(surface, 1)
        assert res1.examined == 85
        assert res1.max_count == 13
        res2 = exhaustive_search(surface, 2)
        assert res2.examined == 349_525
        assert res2.max_count == 23 == sorensen_bound(2, 2)
        assert res2.argmax_total == len(res2.argmax_forms)  # cap not hit
        for form in res2.argmax_forms:
            factors = tangent_plane_factors(intersection_stats(form, surface), surface)
            assert factors is not None and len(factors) == 2
            assert factors[0] != factors[1]
            basis = nullspace(surface.field, [list(factors[0]), list(factors[1])])
            line = surface.geometry.line_through(basis[0], basis[1])
            assert surface.classify_line(line).kind is LineKind.SECANT


def test_criterion_08_grid_example():
    with criterion(8, "grid example: q=3 -> 136 on 16 generators, q=4 -> 385", 60.0):
        s3 = canonical_surface(3)
        alpha3 = next(a for a in s3.field.subfield_indices() if a not in (0, 1))
        form3 = build_grid_example(s3, alpha3)
        rep3 = intersection_stats(form3, s3)
        assert rep3.x_count == 136 == (3 + 1) * (27 + 9 - 3) + 3 + 1
        assert rep3.jf_count == 16
        assert planes_inside(form3, s3.geometry) == []
        assert not rep3.hermitian_multiple

        s4 = canonical_surface(4)
        alpha4 = next(a for a in s4.field.subfield_indices() if a not in (0, 1))
        rep4 = intersection_stats(build_grid_example(s4, alpha4), s4)
        assert rep4.x_count == 385 == (4 + 1) * (64 + 16 - 4) + 4 + 1


def test_criterion_09_falsification_harness():
    with criterion(9, "1000 random forms per (q,d): all bounds and identities hold", 300.0):
        for q in (2, 3):
            surface = canonical_surface(q)
            f = surface.field
            gens = surface.generators()
            geom = surface.geometry
            for d in range(1, q + 2):
                rng = random.Random(9000 + 10 * q + d)
                m = monomial_count(d)
                checked = 0
                while checked < 1000:
                    vec = [rng.randrange(f.order) for _ in range(m)]
                    if not any(vec):
                        continue
                    form = form_from_vector(f, d, vec)
                    if d == q + 1 and hermitian_divides(form, surface):
                        continue  # excluded by the modified question
                    checked += 1
                    rep = intersection_stats(form, surface)
                    bounds = evaluate_bounds(rep)
                    assert bounds.ok, (q, d, vec, violations(bounds))
                    assert 0 <= rep.jf_count <= d * (q + 1)  # delta >= 0
                    if d <= q:
                        assert rep.x_count <= sorensen_bound(q, d)
                    lhs, rhs = incidence_double_count(form, surface)
                    assert lhs == rhs
                    if rep.residual_ids:
                        assert rep.delta >= q + 1
                    books = rep.book_counts(surface)
                    for k, i in enumerate(rep.jf_indices):
                        counts = books[i]
                        assert sum(counts.values()) == rep.meeting_sizes[k]
                        for plane, a in counts.items():
                            assert a >= 0
                            if a > d - 1:
                                assert plane_contained(form, geom, plane)
                    for pid, r in rep.multiplicities.items():
                        plane = tangent_plane(surface, geom.points[pid])
                        for i in rep.jf_indices:
                            if pid in gens[i].point_ids:
                                assert r == books[i][plane] + 1


def test_criterion_10_codes():
    with criterion(10, "codes: [45,4,32], [45,10,22], [280,4,243] with matching distances", 300.0):
        cases = [(2, 1, 45, 4, 32), (2, 2, 45, 10, 22), (3, 1, 280, 4, 243)]
        for q, d, n, k, dist in cases:
            surface = canonical_surface(q)
            code = build_code(surface, d)
            assert (code.n, code.k) == (n, k)
            enumerated = min_distance_enumerate(code)[0]
            assert enumerated == dist == min_distance_geometric(q, d)


def test_criterion_11_canonicalization():
    with criterion(11, "100 random Hermitian matrices per q: rank and point count agree", 30.0):
        for q in (2, 3):
            f = build_field(q)
            rng = random.Random(1100 + q)
            for _ in range(100):
                a = random_hermitian(f, rng)
                transform, rank = canonicalize(f, a)
                assert rank == matrix_rank(f, [list(r) for r in a])
                diag = congruence(f, a, transform)
                expected = tuple(
                    tuple(1 if (i == j and i < rank) else 0 for j in range(4)) for i in range(4)
                )
                assert diag == expected
                before = HermitianSurface(f, a).n_surface_points()
                after = HermitianSurface(f, diag).n_surface_points()
                assert before == after
