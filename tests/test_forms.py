import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermsurf.finite_field import build_field, nullspace
from hermsurf.forms import (
    Form,
    FormError,
    _digit_lanes,
    class_count,
    class_vectors,
    combination_values,
    contained_planes,
    contains_tangent_plane,
    divide,
    divides,
    exact_quotient,
    form_from_json,
    form_from_vector,
    form_to_json,
    hermitian_divides,
    incidence_double_count,
    intersection_stats,
    line_contained,
    linear_form,
    monomial_count,
    monomial_matrix,
    monomials,
    plane_contained,
    restrict,
    surface_form,
    vanishing_tangent_planes,
)
from hermsurf.hermitian import canonical_surface
from hermsurf.proj_geometry import geometry_for, projective_points


@pytest.fixture(scope="module")
def s2():
    return canonical_surface(2)


@pytest.fixture(scope="module")
def s3():
    return canonical_surface(3)


def random_form(field, degree, rng):
    vec = [0] * monomial_count(degree)
    while not any(vec):
        vec = [rng.randrange(field.order) for _ in range(len(vec))]
    return form_from_vector(field, degree, vec)


def pencil_form(s2):
    f = s2.field
    return linear_form(f, (0, 0, 1, 1)) * linear_form(f, (0, 0, 1, f.gen_index))


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------

def test_monomial_order():
    ms = monomials(2)
    assert ms[0] == (2, 0, 0, 0)
    assert ms[1] == (1, 1, 0, 0)
    assert ms[-1] == (0, 0, 0, 2)
    assert len(ms) == monomial_count(2) == 10
    assert list(ms) == sorted(ms, reverse=True)
    assert monomial_count(3) == 20


def test_form_validation():
    f = build_field(2)
    with pytest.raises(FormError):
        Form(f, 2, {})
    with pytest.raises(FormError):
        Form(f, 2, {(1, 0, 0, 0): 1})  # degree mismatch
    with pytest.raises(FormError):
        Form(f, 0, {(0, 0, 0, 0): 1})
    form = Form(f, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 0})
    assert form.coeffs == {(2, 0, 0, 0): 1}
    # element indices are checked at the boundary: numpy gathers would
    # silently wrap -1, and an index >= q^2 would fail deep inside
    for c in (-1, 4):
        with pytest.raises(FormError):
            Form(f, 1, {(1, 0, 0, 0): c})
        with pytest.raises(FormError):
            form_from_json(f, {"q": 2, "d": 1, "terms": [[[1, 0, 0, 0], c]]})
        with pytest.raises(FormError):
            linear_form(f, (1, 0, c, 0))
        with pytest.raises(FormError):
            form_from_vector(f, 1, (1, 0, 0, c))


def test_normalization_scaling_invariance():
    f = build_field(2)
    rng = random.Random(19)
    for _ in range(50):
        form = random_form(f, 2, rng)
        base = form.normalized()
        assert base.coeffs[base.leading_monomial()] == 1
        assert base.normalized() == base
        for lam in range(2, f.order):
            assert form.scale(lam).normalized() == base


def test_evaluate_examples(s2):
    f = s2.field
    x0 = linear_form(f, (1, 0, 0, 0))
    assert x0.evaluate((0, 1, 0, 0)) == 0
    herm = surface_form(s2)
    vals = herm.values_at(s2.geometry.arr)
    assert int((vals == 0).sum()) == 45
    rng = random.Random(20)
    for _ in range(30):
        form = random_form(f, 2, rng)
        pt = s2.geometry.points[rng.randrange(85)]
        lam = rng.randrange(1, f.order)
        assert form.scale(lam).evaluate(pt) == f.mul(lam, form.evaluate(pt))


def test_values_at_matches_scalar_evaluate(s3):
    f = s3.field
    rng = random.Random(21)
    pts = s3.geometry.arr[:50]
    for d in (1, 2, 4):
        form = random_form(f, d, rng)
        vec = form.values_at(pts)
        for i in range(50):
            assert int(vec[i]) == form.evaluate(tuple(int(x) for x in pts[i]))


# ----------------------------------------------------------------------
# restriction and containment
# ----------------------------------------------------------------------

def evaluate_restriction(field, coeffs, params) -> int:
    """Value of a restriction {exponent tuple: coefficient} at parameters."""
    total = 0
    for m, c in coeffs.items():
        term = c
        for t, e in zip(params, m):
            term = field.mul(term, field.pow(t, e))
        total = field.add(total, term)
    return total


def span_point(field, frame, params) -> tuple[int, ...]:
    """sum_i params_i * frame_i, not normalized."""
    pt = [0, 0, 0, 0]
    for t, frame_pt in zip(params, frame):
        pt = [field.add(x, field.mul(t, y)) for x, y in zip(pt, frame_pt)]
    return tuple(pt)


def test_restriction_examples(s2):
    f = s2.field
    x2x3 = Form(f, 2, {(0, 0, 1, 1): 1})
    assert restrict(x2x3, ((1, 0, 0, 0), (0, 1, 0, 0))) == {}
    herm = surface_form(s2)
    assert restrict(herm, ((1, 1, 0, 0), (0, 0, 1, 1))) == {}
    x0 = linear_form(f, (1, 0, 0, 0))
    assert restrict(x0, ((1, 0, 0, 0), (0, 1, 0, 0))) == {(1, 0): 1}


def test_restriction_agrees_with_pointwise_evaluation(s2):
    """The restricted binary and ternary forms evaluate like the original
    on the span of the frame."""
    f = s2.field
    rng = random.Random(22)
    g = s2.geometry
    for k in (2, 3):
        for _ in range(20):
            form = random_form(f, 2, rng)
            frame = [g.points[i] for i in rng.sample(range(g.n_points), k)]
            coeffs = restrict(form, frame)
            assert all(sum(m) == form.degree and len(m) == k for m in coeffs)
            for params in itertools.product(range(f.order), repeat=k):
                if not any(params):
                    continue
                assert evaluate_restriction(f, coeffs, params) == form.evaluate(
                    span_point(f, frame, params)
                )


def test_restriction_characteristic_3(s3):
    """Binomial coefficients vanish mod p: (a+b)^3 = a^3 + b^3 over GF(9)."""
    f = s3.field
    cube = Form(f, 3, {(3, 0, 0, 0): 1})
    # x0 -> a + b along the line spanned by e0+e1 and e1
    coeffs = restrict(cube, ((1, 1, 0, 0), (0, 1, 0, 0)))
    assert coeffs == {(3, 0): 1}  # x0 = a on this parametrization
    sum_cube = Form(f, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1})
    coeffs = restrict(sum_cube, ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert coeffs == {(3, 0): 1, (0, 3): 1}  # freshman's dream: middle terms vanish


def test_restriction_pointwise_char3(s3):
    f = s3.field
    rng = random.Random(28)
    g = s3.geometry
    for _ in range(5):
        form = random_form(f, 4, rng)
        i, j = rng.sample(range(g.n_points), 2)
        frame = (g.points[i], g.points[j])
        coeffs = restrict(form, frame)
        for a in range(f.order):
            for b in (0, 1, 5):
                if a == 0 and b == 0:
                    continue
                assert evaluate_restriction(f, coeffs, (a, b)) == form.evaluate(
                    span_point(f, frame, (a, b))
                )


def test_restriction_above_q_squared_is_not_rational():
    """For d > q^2 a form can vanish at every rational point of a line
    without containing it: x0^4 x1 + x0 x1^4 at q = 2."""
    f = build_field(2)
    form = Form(f, 5, {(4, 1, 0, 0): 1, (1, 4, 0, 0): 1})
    frame = ((1, 0, 0, 0), (0, 1, 0, 0))
    assert all(
        form.evaluate(span_point(f, frame, params)) == 0
        for params in itertools.product(range(f.order), repeat=2)
    )
    assert restrict(form, frame) == {(4, 1): 1, (1, 4): 1}


@st.composite
def restriction_cases(draw):
    """(form, frame): a random form, half the time times a linear form
    whose plane contains the frame, so that the restriction vanishes."""
    q = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.integers(1, {2: q * q + 1, 3: 3, 4: 2}[q]))
    field = build_field(q)
    geom = geometry_for(field)
    k = draw(st.sampled_from((2, 3)))
    frame = [geom.points[i] for i in draw(st.lists(
        st.integers(0, geom.n_points - 1), min_size=k, max_size=k))]
    through = draw(st.booleans())
    rest = d - 1 if through else d
    vec = draw(st.lists(st.integers(0, field.order - 1),
                        min_size=monomial_count(rest), max_size=monomial_count(rest))) if rest else []
    form = None
    if any(vec):
        form = form_from_vector(field, rest, vec)
    if through or form is None:
        plane = linear_form(field, nullspace(field, frame)[0])
        form = plane if form is None else form * plane
    return form, frame


@settings(max_examples=60, deadline=None)
@given(restriction_cases())
def test_restriction_property(case):
    """(a) the restriction evaluates like F at every rational point of the
    span (one parameter vector per point suffices, both sides being
    homogeneous of degree d); (b) for d <= q^2 it is empty exactly when F
    vanishes at every rational point of the span."""
    form, frame = case
    f = form.field
    coeffs = restrict(form, frame)
    vanishes = True
    for params in projective_points(f, len(frame) - 1):
        value = form.evaluate(span_point(f, frame, params))
        assert evaluate_restriction(f, coeffs, params) == value
        vanishes = vanishes and value == 0
    if form.degree <= f.q**2:
        assert (not coeffs) == vanishes


def test_line_contained(s2):
    f = s2.field
    g = s2.geometry
    herm = surface_form(s2)
    gen = g.line_through((1, 1, 0, 0), (0, 0, 1, 1))
    assert line_contained(herm, g, gen)
    sec = g.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    assert not line_contained(herm, g, sec)
    x2x3 = Form(f, 2, {(0, 0, 1, 1): 1})
    assert line_contained(x2x3, g, sec)


def test_plane_contained(s2):
    f = s2.field
    g = s2.geometry
    prod = linear_form(f, (0, 0, 1, 1)) * linear_form(f, (1, 0, 0, 0))
    assert plane_contained(prod, g, (0, 0, 1, 1))
    assert plane_contained(prod, g, (1, 0, 0, 0))
    assert not plane_contained(prod, g, (0, 1, 0, 0))
    assert not plane_contained(surface_form(s2), g, (0, 0, 1, 1))
    # V(L) contains a plane exactly when L cuts out that plane, so the
    # frame must span the whole plane, not a line of it
    for plane in g.points:  # dual coordinates enumerate like points
        for coeffs in g.points:
            assert plane_contained(linear_form(f, coeffs), g, plane) == (coeffs == plane)


# ----------------------------------------------------------------------
# division
# ----------------------------------------------------------------------

def test_division_reconstruction(s2):
    f = s2.field
    rng = random.Random(23)
    for _ in range(40):
        a = random_form(f, rng.choice([1, 2]), rng)
        b = random_form(f, rng.choice([1, 2]), rng)
        prod = a * b
        quo, rem = divide(prod, a)
        assert not rem
        assert Form(f, b.degree, quo) == b
        # division identity on a non-multiple
        c = random_form(f, 3, rng)
        quo, rem = divide(c, a)
        recon = dict(rem)
        for qm, qc in quo.items():
            for am, ac in a.coeffs.items():
                m = tuple(x + y for x, y in zip(qm, am))
                recon[m] = f.add(recon.get(m, 0), f.mul(qc, ac))
        recon = {m: v for m, v in recon.items() if v}
        assert recon == c.coeffs
        lead = a.leading_monomial()
        assert all(any(x < y for x, y in zip(m, lead)) for m in rem)


def test_divides_and_quotient():
    f = build_field(2)
    x0 = linear_form(f, (1, 0, 0, 0))
    x1 = linear_form(f, (0, 1, 0, 0))
    prod = x0 * x1
    assert divides(x0, prod)
    assert divides(x1, prod)
    assert not divides(linear_form(f, (0, 0, 1, 0)), prod)
    assert exact_quotient(prod, x0) == x1


def test_hermitian_divides(s2):
    f = s2.field
    herm = surface_form(s2)
    assert hermitian_divides(herm, s2)
    assert hermitian_divides(herm * linear_form(f, (1, 2, 3, 0)), s2)
    assert not hermitian_divides(pencil_form(s2), s2)
    assert not hermitian_divides(linear_form(f, (1, 0, 0, 0)), s2)  # d <= q
    cubic = Form(f, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1})
    assert not hermitian_divides(cubic, s2)


def test_surface_form_is_canonical(s2):
    herm = surface_form(s2)
    assert herm.coeffs == {
        (3, 0, 0, 0): 1,
        (0, 3, 0, 0): 1,
        (0, 0, 3, 0): 1,
        (0, 0, 0, 3): 1,
    }


# ----------------------------------------------------------------------
# intersection statistics
# ----------------------------------------------------------------------

def test_stats_extremal_pencil(s2):
    rep = intersection_stats(pencil_form(s2), s2)
    assert rep.x_count == 23
    assert rep.jf_count == 6
    assert rep.delta == 0
    assert rep.x_min == 3
    assert rep.residual_ids == ()
    assert rep.contains_tangent_plane
    assert not rep.hermitian_multiple
    assert sorted(rep.multiplicities.values()).count(3) >= 2  # the two vertices


def test_stats_non_tangent_plane(s2):
    rep = intersection_stats(linear_form(s2.field, (1, 0, 0, 0)), s2)
    assert rep.x_count == 9
    assert rep.jf_count == 0
    assert rep.delta == 3
    assert rep.x_min is None
    assert len(rep.residual_ids) == 9
    assert not rep.contains_tangent_plane


def test_stats_tangent_plane(s2):
    rep = intersection_stats(linear_form(s2.field, (0, 0, 1, 1)), s2)
    assert rep.x_count == 13
    assert rep.jf_count == 3
    assert rep.delta == 0
    assert rep.residual_ids == ()
    tangency = s2.geometry.point_id((0, 0, 1, 1))
    assert rep.multiplicities[tangency] == 3
    assert rep.contains_tangent_plane


def test_stats_hermitian_multiple(s2):
    rep = intersection_stats(surface_form(s2), s2)
    assert rep.hermitian_multiple
    assert rep.v2_component
    assert rep.x_count == 45
    assert rep.jf_indices is None and rep.delta is None and rep.x_min is None


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_plane_in_surface_multiples(q):
    """For multiples of the surface equation H, the quotient F/H decides
    tangent-plane containment; pinned to the symbolic scan of every
    tangent plane."""
    surface = canonical_surface(q)
    f = surface.field
    h = surface_form(surface)
    tangent = linear_form(f, next(iter(surface.tangent_planes())))
    x0, x1 = linear_form(f, (1, 0, 0, 0)), linear_form(f, (0, 1, 0, 0))
    cases = [
        (h.scale(f.gen_index), False),
        (h * tangent, True),
        (h * x0, False),
        (h * linear_form(f, (1, 1, 0, 0)), q == 2),  # x0+x1 is tangent in characteristic 2
        (h * x0 * x1, False),
    ]
    for form, expected in cases:
        rep = intersection_stats(form, surface)
        assert rep.hermitian_multiple
        full = any(plane_contained(form, surface.geometry, plane)
                   for plane in surface.tangent_planes())
        assert rep.contains_tangent_plane == full == expected, form


def test_stats_refuses_degenerate():
    from hermsurf.hermitian import HermitianSurface, HermitianError

    f = build_field(2)
    cone = tuple(tuple(int(i == j and i < 3) for j in range(4)) for i in range(4))
    s = HermitianSurface(f, cone)
    with pytest.raises(HermitianError):
        intersection_stats(linear_form(f, (1, 0, 0, 0)), s)


def test_sum_of_book_counts_equals_meeting_size(s2, s3):
    """|T(l)| splits across the book of l, and the book table is complete."""
    tangent3 = sorted(s3.tangent_planes())[0]
    for s, form in [(s2, pencil_form(s2)), (s3, linear_form(s3.field, tangent3))]:
        rep = intersection_stats(form, s)
        assert rep.jf_count > 0
        for k, i in enumerate(rep.jf_indices):
            counts = rep.book_counts[i]
            assert len(counts) == s.q**2 + 1
            assert sum(counts.values()) == rep.meeting_sizes[k]


def test_book_count_range_and_containment_exception(s2):
    """a <= d-1 can only fail on planes inside V(F)."""
    rep = intersection_stats(pencil_form(s2), s2)
    g = s2.geometry
    overfull = []
    for i in rep.jf_indices:
        for plane, a in rep.book_counts[i].items():
            assert a >= 0
            if a > rep.d - 1:
                overfull.append(plane)
                assert plane_contained(rep.form, g, plane)
    assert overfull  # the pencil's two planes are inside V(F)


def test_multiplicity_equals_book_count_plus_one(s2):
    """r_P = a_{Pi_P, l} + 1 for every P on the union and l through P."""
    gens = s2.generators()
    for form in [pencil_form(s2), linear_form(s2.field, (0, 0, 1, 1))]:
        rep = intersection_stats(form, s2)
        for pid, r in rep.multiplicities.items():
            plane = s2.tangent_plane(s2.geometry.points[pid])
            for i in rep.jf_indices:
                if pid in gens[i].point_ids:
                    assert r == rep.book_counts[i][plane] + 1


def test_two_tangent_planes_through_generator(s2):
    """Product of two book planes of a generator: J_F = 5, all identities."""
    g = s2.geometry
    gen = g.line_through((1, 1, 0, 0), (0, 0, 1, 1))
    book = g.book_of_planes(gen)
    form = linear_form(s2.field, book[0]) * linear_form(s2.field, book[1])
    rep = intersection_stats(form, s2)
    assert rep.jf_count == 5  # 3 + 3 sharing the generator
    assert rep.delta == 1
    assert rep.residual_ids == ()
    lhs, rhs = incidence_double_count(form, s2)
    assert lhs == rhs == rep.x_count * 3


def test_incidence_double_count_examples(s2):
    f = s2.field
    assert incidence_double_count(linear_form(f, (1, 0, 0, 0)), s2) == (27, 27)
    assert incidence_double_count(pencil_form(s2), s2) == (69, 69)


def test_incidence_double_count_random(s3):
    rng = random.Random(24)
    for d in (1, 2, 3):
        for _ in range(20):
            form = random_form(s3.field, d, rng)
            lhs, rhs = incidence_double_count(form, s3)
            assert lhs == rhs


def test_residual_points_certify_delta(s2, s3):
    rng = random.Random(25)
    for s in (s2, s3):
        for _ in range(100):
            form = random_form(s.field, 2, rng)
            rep = intersection_stats(form, s)
            if rep.residual_ids:
                assert rep.delta >= s.q + 1


def test_contains_tangent_plane_prefilter_and_confirm(s2):
    f = s2.field
    assert contains_tangent_plane(pencil_form(s2), s2)
    assert not contains_tangent_plane(linear_form(f, (1, 0, 0, 0)), s2)
    assert contains_tangent_plane(linear_form(f, (0, 0, 1, 1)), s2)


@pytest.mark.parametrize("q", [2, 3])
def test_contains_tangent_plane_matches_symbolic_scan(q):
    """The r_P = q+1 prefilter plus symbolic confirmation against the
    symbolic test of every tangent plane: seeded random forms, products
    of tangent planes, tangent planes times random forms and, at q=2,
    degree 5 > q^2, where rational vanishing does not imply containment."""
    surface = canonical_surface(q)
    f = surface.field
    geom = surface.geometry
    planes = list(surface.tangent_planes())
    rng = random.Random(40 + q)
    forms = []
    for d in (1, 2, 3) if q == 2 else (1, 2):
        for _ in range(6 if q == 2 else 3):
            forms.append(random_form(f, d, rng))
            product = linear_form(f, rng.choice(planes))
            for _ in range(d - 1):
                product = product * linear_form(f, rng.choice(planes))
            forms.append(product)
            if d > 1:
                forms.append(linear_form(f, rng.choice(planes)) * random_form(f, d - 1, rng))
    if q == 2:
        # x_i^4 x_j - x_i x_j^4 vanishes at every rational point of PG(3, 4)
        vanishing = [Form(f, 5, {(4, 1, 0, 0): 1, (1, 4, 0, 0): 1, (0, 0, 4, 1): 1, (0, 0, 1, 4): 1}),
                     Form(f, 5, {(4, 0, 1, 0): 1, (1, 0, 4, 0): 1, (0, 4, 0, 1): 1, (0, 1, 0, 4): 1})]
        forms += vanishing + [random_form(f, 5, rng) for _ in range(4)]
        forms += [linear_form(f, rng.choice(planes)) * random_form(f, 4, rng) for _ in range(2)]
    outcomes = set()
    for form in forms:
        contained = {plane for plane in planes if plane_contained(form, geom, plane)}
        assert contains_tangent_plane(form, surface) == bool(contained), form
        zero_positions = np.flatnonzero(form.values_at(surface.arr) == 0)
        candidates = set(vanishing_tangent_planes(surface, zero_positions))
        assert candidates >= contained
        outcomes.add((bool(candidates), bool(contained)))
    assert outcomes >= {(False, False), (True, True)}
    if q == 2:
        assert (True, False) in outcomes  # candidates the symbolic test refutes


def test_contained_planes(s2):
    f = s2.field
    prod = linear_form(f, (1, 0, 0, 0)) * linear_form(f, (0, 0, 1, 1))
    found = contained_planes(prod, s2.geometry)
    assert found == [(0, 0, 1, 1), (1, 0, 0, 0)]
    assert contained_planes(surface_form(s2), s2.geometry) == []


# ----------------------------------------------------------------------
# batch helpers
# ----------------------------------------------------------------------

def test_class_vectors_enumerate_all_classes():
    f = build_field(2)
    total = class_count(f.order, 4)
    assert total == 85
    vecs = class_vectors(f, 4, 0, total)
    seen = {tuple(int(x) for x in row) for row in vecs}
    assert len(seen) == 85
    for row in seen:
        lead = next(i for i, x in enumerate(row) if x)
        assert row[lead] == 1
    # block splits agree with the full decode
    import numpy as np

    again = np.concatenate([class_vectors(f, 4, lo, min(lo + 7, total)) for lo in range(0, total, 7)])
    assert (again == vecs).all()


def test_class_vectors_long_tails():
    """Digits whose place value exceeds every tail in the block stay 0
    instead of overflowing the int64 division."""
    vecs = class_vectors(build_field(3), 35, 0, 2)
    assert vecs.tolist() == [[1] + [0] * 34, [1] + [0] * 33 + [1]]


def test_combination_values_matches_forms(s2):
    f = s2.field
    pts = s2.geometry.arr[s2.point_ids]
    rows = monomial_matrix(f, 2, pts)
    rng = random.Random(26)
    coeffs = np.array(
        [[rng.randrange(f.order) for _ in range(rows.shape[0])] for _ in range(20)],
        dtype=np.int16,
    )
    values = combination_values(f, rows, coeffs)
    for i in range(20):
        if not coeffs[i].any():
            continue
        form = form_from_vector(f, 2, coeffs[i])
        assert (values[i] == form.values_at(pts)).all()


@st.composite
def kernel_cases(draw):
    """(field, degree, points, coeffs): the number of monomials M lies
    below or above the kernel's group size K, so that above it groups of
    packed terms are decoded and merged."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    field = build_field(q)
    group = _digit_lanes(field)[0]
    if draw(st.booleans()):
        degree = next(d for d in itertools.count(1) if monomial_count(d) > group)
    else:
        degree = draw(st.sampled_from([d for d in (1, 2, 3) if monomial_count(d) <= group]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, b = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    points = rng.integers(0, field.order, (n, 4)).astype(np.int16)
    coeffs = rng.integers(0, field.order, (b, monomial_count(degree))).astype(np.int16)
    coeffs[rng.random(coeffs.shape) < draw(st.sampled_from((0.0, 0.5, 0.95)))] = 0
    return field, degree, points, coeffs


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_combination_values_matches_scalar_evaluation(case):
    field, degree, points, coeffs = case
    values = combination_values(field, monomial_matrix(field, degree, points), coeffs)
    for row, vec in zip(values, coeffs):
        if not vec.any():
            assert not row.any()
            continue
        form = form_from_vector(field, degree, vec)
        assert row.tolist() == [form.evaluate(tuple(int(x) for x in pt)) for pt in points]


def test_form_json_roundtrip(s2):
    form = pencil_form(s2).normalized()
    data = form_to_json(form, 2)
    back = form_from_json(s2.field, data)
    assert back == form
    with pytest.raises(FormError):
        form_from_json(build_field(3), data)
