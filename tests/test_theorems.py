import random
from fractions import Fraction

import numpy as np
import pytest

from hermsurf.finite_field import build_field, nullspace
from hermsurf.forms import (
    Form,
    FormError,
    combination_values,
    form_from_vector,
    intersection_stats,
    linear_form,
    monomial_count,
    surface_form,
)
from hermsurf.hermitian import LineKind, canonical_surface
from hermsurf.theorems import (
    BudgetExceededError,
    FalsificationError,
    _SearchContext,
    book_bound,
    build_extremal_pencil,
    build_grid_example,
    canonical_secant,
    check_theorems,
    evaluate_bounds,
    exhaustive_search,
    incidence_bound,
    multiplicity_bound,
    no_tangent_plane_bound,
    random_search,
    residual_point_bound,
    sorensen_bound,
    tangent_plane_factors,
    tangent_planes_through,
)


@pytest.fixture(scope="module")
def s2():
    return canonical_surface(2)


@pytest.fixture(scope="module")
def s3():
    return canonical_surface(3)


# ----------------------------------------------------------------------
# formulas
# ----------------------------------------------------------------------

def test_bound_values():
    assert sorensen_bound(2, 1) == 13
    assert sorensen_bound(2, 2) == 23
    assert sorensen_bound(2, 3) == 33
    assert sorensen_bound(3, 2) == 70
    assert sorensen_bound(3, 3) == 103
    assert sorensen_bound(3, 4) == 136
    assert sorensen_bound(4, 5) == 385
    assert incidence_bound(2, 2, 0) == 24
    assert incidence_bound(2, 2, 6) == 18
    assert residual_point_bound(2, 2) == 21
    assert no_tangent_plane_bound(2, 2) == 21
    assert no_tangent_plane_bound(3, 4) == 136
    assert book_bound(2, 2, 3) == 21
    assert book_bound(3, 4, 6) == 136
    assert multiplicity_bound(3, 4, 0, 6) == 136
    assert multiplicity_bound(2, 2, 0, 3) == Fraction(6 * 7, 2)  # 6 * (5 - 3/2)


def test_book_bound_boundary_identity():
    """book_bound(X = q+d-1) equals the no-tangent-plane bound exactly."""
    for q in (2, 3, 4):
        for d in range(1, q + 2):
            assert book_bound(q, d, q + d - 1) == no_tangent_plane_bound(q, d)


def test_bound_crossover():
    """Whichever side of X = q+d-1 applies pushes below the cor2 value."""
    for q in (2, 3):
        for d in range(1, q + 2):
            top = no_tangent_plane_bound(q, d)
            for x_min in range(0, d * (q + 1)):
                if x_min <= q + d - 1:
                    assert book_bound(q, d, x_min) <= top
                for delta in range(0, d * (q + 1) + 1):
                    if x_min >= q + d - 1:
                        assert multiplicity_bound(q, d, delta, x_min) <= top
                    assert min(
                        Fraction(book_bound(q, d, x_min)),
                        multiplicity_bound(q, d, delta, x_min),
                    ) <= top


def test_residual_bound_is_incidence_bound_at_delta_q_plus_1():
    for q in (2, 3, 4):
        for d in range(1, q + 2):
            assert incidence_bound(q, d, q + 1) == residual_point_bound(q, d)


# ----------------------------------------------------------------------
# evaluate_bounds applicability
# ----------------------------------------------------------------------

def pencil2(s2):
    f = s2.field
    return linear_form(f, (0, 0, 1, 1)) * linear_form(f, (0, 0, 1, f.gen_index))


def test_bounds_non_tangent_plane(s2):
    rep = intersection_stats(linear_form(s2.field, (1, 0, 0, 0)), s2)
    br = evaluate_bounds(rep)
    checks = br.checks
    assert checks["incidence_bound"].applicable and checks["incidence_bound"].satisfied
    assert checks["residual_point_bound"].applicable  # 9 points off no lines
    assert not checks["book_bound"].applicable  # J_F empty
    assert not checks["multiplicity_bound"].applicable
    assert checks["no_tangent_plane_bound"].applicable
    assert checks["sorensen_bound"].satisfied
    assert br.ok


def test_bounds_pencil_equality(s2):
    rep = intersection_stats(pencil2(s2), s2)
    br = evaluate_bounds(rep)
    assert br.x_count == 23 == sorensen_bound(2, 2)
    assert br.checks["sorensen_bound"].satisfied
    assert not br.checks["no_tangent_plane_bound"].applicable  # tangent planes inside
    assert not br.checks["book_bound"].applicable
    assert br.checks["incidence_bound"].value == 24
    assert br.ok


def test_bounds_reject_hermitian_multiple(s2):
    rep = intersection_stats(surface_form(s2), s2)
    with pytest.raises(FormError):
        evaluate_bounds(rep)


def test_check_theorems_pencil(s2):
    br = check_theorems(intersection_stats(pencil2(s2), s2), s2)
    assert br.tangent_plane_union is True
    assert not br.checks["plane_union_bound"].applicable
    assert br.ok


def test_check_theorems_two_non_tangent_planes(s2):
    f = s2.field
    form = linear_form(f, (1, 0, 0, 0)) * linear_form(f, (0, 1, 0, 0))
    br = check_theorems(intersection_stats(form, s2), s2)
    assert br.x_count == 15  # 9 + 9 - 3 through a common secant
    assert br.tangent_plane_union is False
    assert br.checks["no_tangent_plane_bound"].applicable
    assert br.checks["no_tangent_plane_bound"].value == 21
    assert br.checks["plane_union_bound"].applicable
    assert br.ok


def test_check_theorems_hermitian_multiple(s2):
    br = check_theorems(intersection_stats(surface_form(s2), s2), s2)
    assert br.hermitian_multiple
    assert br.x_count == 45
    assert br.checks == {}
    assert br.ok


def test_residual_delta_shadow(s2):
    br = check_theorems(intersection_stats(linear_form(s2.field, (1, 0, 0, 0)), s2), s2)
    assert br.checks["residual_delta"].satisfied  # delta = 3 >= q+1


# ----------------------------------------------------------------------
# structural factorization
# ----------------------------------------------------------------------

def test_tangent_plane_factors(s2):
    f = s2.field
    form = pencil2(s2)
    factors = tangent_plane_factors(intersection_stats(form, s2), s2)
    assert factors == [(0, 0, 1, 1), (0, 0, 1, f.gen_index)]
    tangent = intersection_stats(linear_form(f, (0, 0, 1, 1)), s2)
    assert tangent_plane_factors(tangent, s2) == [(0, 0, 1, 1)]
    assert tangent_plane_factors(intersection_stats(linear_form(f, (1, 0, 0, 0)), s2), s2) is None
    mixed = linear_form(f, (0, 0, 1, 1)) * linear_form(f, (1, 0, 0, 0))
    assert tangent_plane_factors(intersection_stats(mixed, s2), s2) is None
    square = linear_form(f, (0, 0, 1, 1)) * linear_form(f, (0, 0, 1, 1))
    assert tangent_plane_factors(intersection_stats(square, s2), s2) == [(0, 0, 1, 1), (0, 0, 1, 1)]
    assert tangent_plane_factors(intersection_stats(surface_form(s2), s2), s2) is None


# ----------------------------------------------------------------------
# extremal constructions
# ----------------------------------------------------------------------

def test_canonical_secant(s2, s3):
    for s in (s2, s3):
        line = canonical_secant(s)
        assert s.classify_line(line).kind is LineKind.SECANT
        assert len(tangent_planes_through(s, line)) == s.q + 1


@pytest.mark.parametrize("q", [2, 3])
def test_extremal_pencil_counts(q):
    s = canonical_surface(q)
    for d in range(1, q + 2):
        form = build_extremal_pencil(s, d)
        rep = intersection_stats(form, s)
        assert rep.x_count == sorensen_bound(q, d)
        factors = tangent_plane_factors(rep, s)
        assert factors is not None and len(factors) == d


def test_extremal_pencil_q2_d2_form(s2):
    form = build_extremal_pencil(s2, 2).normalized()
    assert form == pencil2(s2).normalized()


def test_extremal_pencil_range(s2):
    with pytest.raises(FormError):
        build_extremal_pencil(s2, 0)
    with pytest.raises(FormError):
        build_extremal_pencil(s2, 4)  # only q+1 tangent planes in the book


def test_grid_example_q3(s3):
    f = s3.field
    alpha = next(a for a in f.subfield_indices() if a not in (0, 1))
    form = build_grid_example(s3, alpha)
    rep = intersection_stats(form, s3)
    assert rep.x_count == 136 == sorensen_bound(3, 4)
    assert rep.jf_count == 16  # (q+1)^2 grid lines
    assert rep.x_min == 6  # q + d - 1, the crossover boundary
    assert not rep.contains_tangent_plane
    assert not rep.hermitian_multiple
    assert rep.residual_ids == ()
    br = check_theorems(rep, s3)
    assert br.ok
    assert br.tangent_plane_union is False
    assert br.checks["book_bound"].value == 136
    assert br.checks["multiplicity_bound"].value == 136


def test_grid_example_validation(s2, s3):
    with pytest.raises(FormError):
        build_grid_example(s2, 1)  # q = 2 unsupported
    with pytest.raises(FormError):
        build_grid_example(s3, 0)
    with pytest.raises(FormError):
        build_grid_example(s3, 1)
    with pytest.raises(FormError):
        build_grid_example(s3, 2)  # index 2 is the generator, not in the subfield


def test_grid_lines_are_the_two_rulings(s3):
    f = s3.field
    alpha = next(a for a in f.subfield_indices() if a not in (0, 1))
    form = build_grid_example(s3, alpha)
    rep = intersection_stats(form, s3)
    gens = s3.generators()
    zetas = [z for z in range(f.order) if f.norm(z) == f.neg(1)]
    assert len(zetas) == 4
    expected = set()
    for z1 in zetas:
        for z2 in zetas:
            line = s3.geometry.line_through((z1, 1, 0, 0), (0, 0, z2, 1))
            expected.add(line.key)
    assert {gens[i].key for i in rep.jf_indices} == expected


# ----------------------------------------------------------------------
# searches
# ----------------------------------------------------------------------

def test_exhaustive_d1_matches_scalar_oracle(s2):
    """Independent route: enumerate all 85 planes with scalar evaluation."""
    f = s2.field
    surf_pts = [s2.geometry.points[int(i)] for i in s2.point_ids]
    best, argmax = -1, set()
    for plane in s2.geometry.points:  # dual tuples enumerate all linear forms
        form = linear_form(f, plane)
        count = sum(1 for pt in surf_pts if form.evaluate(pt) == 0)
        if count > best:
            best, argmax = count, {form.normalized().coefficient_vector()}
        elif count == best:
            argmax.add(form.normalized().coefficient_vector())
    res = exhaustive_search(s2, 1, progress=False)
    assert res.max_count == best
    assert {g.coefficient_vector() for g in res.argmax_forms} == argmax


def test_exhaustive_d1(s2):
    res = exhaustive_search(s2, 1, progress=False)
    assert res.examined == 85
    assert res.max_count == 13
    assert res.argmax_total == 45
    # the maximizers are exactly the tangent planes
    argmax = {f.coefficient_vector() for f in res.argmax_forms}
    tangent = {
        linear_form(s2.field, plane).normalized().coefficient_vector()
        for plane in s2.tangent_planes()
    }
    assert argmax == tangent


def test_exhaustive_budget_guard(s2):
    with pytest.raises(BudgetExceededError):
        exhaustive_search(s2, 3, budget=1000, progress=False)


def test_exhaustive_workers_match_serial(s2):
    serial = exhaustive_search(s2, 1, progress=False)
    parallel = exhaustive_search(s2, 1, workers=2, progress=False)
    assert serial.to_json() == parallel.to_json()


def test_argmax_cap_keeps_the_first_maximizers(s2):
    full = exhaustive_search(s2, 2, progress=False)
    capped = exhaustive_search(s2, 2, argmax_cap=5, progress=False)
    assert capped.argmax_total == full.argmax_total == 720
    assert capped.max_count == full.max_count
    assert capped.argmax_forms == full.argmax_forms[:5]


@pytest.mark.parametrize("q", [2, 3])
def test_jf_from_d_plus_1_points_matches_full_generators(q):
    """The scan decides generator containment from d+1 points per
    generator; pinned to all q^2+1 points on blocks that mix random forms
    with products of tangent planes, which contain generators."""
    surface = canonical_surface(q)
    f = surface.field
    rng = random.Random(q)
    planes = sorted(surface.tangent_planes())
    for d in (1, 2, 3):
        ctx = _SearchContext(surface, d)
        rows = []
        for i in range(200):
            if i % 2:
                form = linear_form(f, rng.choice(planes))
                for _ in range(d - 1):
                    form = form * linear_form(f, rng.choice(planes))
                rows.append(form.coefficient_vector())
            else:
                rows.append([rng.randrange(f.order) for _ in range(ctx.m)])
        coeffs = np.array(rows, dtype=np.int16)
        _, jf_counts = ctx.scan(coeffs)
        zero = combination_values(f, ctx.rows, coeffs) == 0
        full = zero[:, surface.generator_positions()].all(axis=2).sum(axis=1)
        assert full.any()
        assert jf_counts.tolist() == full.tolist()


def test_random_search_deterministic(s3):
    a = random_search(s3, 2, 500, seed=42)
    b = random_search(s3, 2, 500, seed=42)
    assert a.to_json() == b.to_json()
    c = random_search(s3, 2, 500, seed=43)
    assert c.seed == 43


def test_random_search_finds_pencil_value(s2, s3):
    res = random_search(s2, 2, 400, seed=1)
    assert res.max_count == 23  # structured draws reach it; bounds cap it
    res3 = random_search(s3, 2, 400, seed=1)
    assert res3.max_count == 70


def test_random_search_skips_hermitian_multiples(s2):
    res = random_search(s2, 3, 200, seed=5)
    assert res.max_count <= sorensen_bound(2, 3)
    herm_vec = surface_form(s2).normalized().coefficient_vector()
    assert all(f.coefficient_vector() != herm_vec for f in res.argmax_forms)


def test_falsification_machinery(s2):
    """Feed the block checker an impossible count; it must raise with a witness."""
    ctx = _SearchContext(s2, 1)
    coeffs = np.array([[1, 0, 0, 0]], dtype=np.int16)
    x_counts = np.array([44], dtype=np.int64)  # absurd for a plane
    jf_counts = np.array([0], dtype=np.int64)
    with pytest.raises(FalsificationError) as err:
        ctx.check_block(coeffs, x_counts, jf_counts, np.array([True]))
    assert "form" in err.value.witness


def test_search_result_serialization(s2):
    res = exhaustive_search(s2, 1, progress=False)
    data = res.to_json()
    assert data["max_count"] == 13
    assert data["mode"] == "exhaustive"
    assert len(data["argmax_forms"]) == 45


# ----------------------------------------------------------------------
# uniqueness clause machinery (full run lives in the acceptance suite)
# ----------------------------------------------------------------------

def test_pencil_argmax_share_secant(s2):
    form = build_extremal_pencil(s2, 2)
    factors = tangent_plane_factors(intersection_stats(form, s2), s2)
    basis = nullspace(s2.field, [list(factors[0]), list(factors[1])])
    line = s2.geometry.line_through(basis[0], basis[1])
    assert s2.classify_line(line).kind is LineKind.SECANT


def test_property_sampling_q4():
    """Beyond the exhaustive scales, the bounds are checked by sampling."""
    surface = canonical_surface(4)
    f = surface.field
    rng = random.Random(29)
    m = monomial_count(2)
    for _ in range(100):
        vec = [rng.randrange(f.order) for _ in range(m)]
        if not any(vec):
            continue
        form = form_from_vector(f, 2, vec)
        rep = intersection_stats(form, surface)
        br = evaluate_bounds(rep)
        assert br.ok, (vec, br.violations())
        assert rep.x_count <= sorensen_bound(4, 2)
