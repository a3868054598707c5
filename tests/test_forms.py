import itertools
import random
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hermsurf import forms as forms_module
from hermsurf.codes import build_code
from hermsurf.finite_field import build_field, nullspace
from hermsurf.forms import (
    SCAN_BLOCK,
    _BLOCK_WORDS,
    _SLICE_ELEMENTS,
    _SLICE_ROWS,
    Form,
    FormError,
    _digit_lanes,
    _lanes,
    class_count,
    class_vectors,
    class_zero_blocks,
    combination_values,
    contains_tangent_plane,
    divide,
    exact_quotient,
    form_from_json,
    form_from_vector,
    form_to_json,
    intersection_stats,
    line_contained,
    linear_form,
    monomial_count,
    monomial_matrix,
    monomials,
    pack_bits,
    unpack_bits,
    plane_contained,
    surface_form,
    vector_to_json,
    zero_counts,
)
from hermsurf.hermitian import InternalConsistencyError, canonical_surface
from hermsurf.proj_geometry import geometry_for
from hermsurf.theorems import _SearchContext
from helpers import incidence_double_count, projective_points, tangent_plane
from symbolic import (
    class_zero_masks,
    divides,
    hermitian_multiple_by_division,
    line_inside,
    plane_inside,
    restrict,
    vanishing_tangent_planes,
)


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


def test_term_order_needs_no_monomial_table(monkeypatch):
    """Terms, the leading monomial, repr, normalization and serialization
    order the form's own terms; none of them walks monomials(d)."""
    f = build_field(3)
    rng = random.Random(27)
    cases = [random_form(f, d, rng) for d in (1, 2, 5)]
    cases.append(Form(f, 9, {(0, 9, 0, 0): 2, (1, 0, 8, 0): 5, (0, 0, 0, 9): 7}))
    want = [[(m, form.coeffs[m]) for m in monomials(form.degree) if m in form.coeffs]
            for form in cases]
    docs = [vector_to_json(3, form.degree, form.coefficient_vector()) for form in cases]
    texts = [repr(form) for form in cases]

    def refuse(degree):
        raise AssertionError(f"monomials({degree}) walked")

    monkeypatch.setattr(forms_module, "monomials", refuse)
    for form, terms, doc, text in zip(cases, want, docs, texts):
        assert form.terms() == terms
        assert form.leading_monomial() == terms[0][0]
        assert form_to_json(form, 3) == doc
        assert repr(form) == text
        assert form.normalized().coeffs[terms[0][0]] == 1


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


@st.composite
def evaluation_cases(draw):
    """(form, points) at q in {2, 3, 4, 5, 7, 8}: a form of degree 1..q^2
    with up to three ``_digit_lanes`` groups of random terms, often fewer
    than one group, and points whose coordinates are often 0."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8)))
    field = build_field(q)
    d = draw(st.integers(1, q * q))
    count = draw(st.integers(1, min(monomial_count(d), 3 * _digit_lanes(field)[0], 40)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    coeffs = {}
    for _ in range(count):
        a, b, c = sorted(rng.randint(0, d) for _ in range(3))
        coeffs[(a, b - a, c - b, d - c)] = rng.randrange(1, field.order)
    pts = [[rng.choice((0, rng.randrange(field.order))) for _ in range(4)] for _ in range(30)]
    return Form(field, d, coeffs), np.array(pts, dtype=np.int16)


@settings(max_examples=100, deadline=None)
@given(evaluation_cases())
@example((Form(build_field(8), 64, {(64, 0, 0, 0): 1, (0, 63, 1, 0): 9, (1, 0, 0, 63): 63}),
          np.array([[1, 0, 5, 2], [7, 3, 0, 0], [0, 0, 0, 0], [2, 40, 63, 9]], dtype=np.int16)))
def test_values_at_matches_evaluate_property(case):
    """The log-domain, lane-packed evaluation equals scalar evaluation."""
    form, pts = case
    assert form.values_at(pts).tolist() == [form.evaluate(pt) for pt in pts.tolist()]


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


def rescan_divide(form, divisor):
    """Reference division: each step rescans the whole remainder for its
    largest monomial divisible by the divisor's leading monomial."""
    f = form.field
    lead = divisor.leading_monomial()
    lead_inv = f.inv(divisor.coeffs[lead])
    rem = dict(form.coeffs)
    quo: dict = {}
    while True:
        target = None
        for m in rem:
            if all(a >= b for a, b in zip(m, lead)):
                if target is None or m > target:
                    target = m
        if target is None:
            return quo, rem
        shift = tuple(a - b for a, b in zip(target, lead))
        factor = f.mul(rem[target], lead_inv)
        quo[shift] = f.add(quo.get(shift, 0), factor)
        for dm, dc in divisor.coeffs.items():
            m = tuple(a + b for a, b in zip(shift, dm))
            val = f.sub(rem.get(m, 0), f.mul(factor, dc))
            if val:
                rem[m] = val
            else:
                rem.pop(m, None)


@st.composite
def division_cases(draw):
    """(form, divisor): the divisor is the surface equation, a linear form
    or a random form; the form is random, half the time a multiple of it."""
    q = draw(st.sampled_from((2, 3, 4)))
    field = build_field(q)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("surface", "linear", "random")))
    if kind == "surface":
        divisor = surface_form(canonical_surface(q))
    else:
        divisor = random_form(field, 1 if kind == "linear" else draw(st.integers(1, 3)), rng)
    extra = draw(st.integers(0, 3))
    if extra and draw(st.booleans()):
        return random_form(field, extra, rng) * divisor, divisor
    return random_form(field, divisor.degree + extra, rng), divisor


@settings(max_examples=60, deadline=None)
@given(division_cases())
def test_divide_matches_rescan_division(case):
    """Same quotient and remainder, with their terms found in the same order."""
    form, divisor = case
    one_pass = [list(part.items()) for part in divide(form, divisor)]
    assert one_pass == [list(part.items()) for part in rescan_divide(form, divisor)]


def test_high_degree_division_tabulates_no_monomials(s2):
    """x0^200 is divided by H without caching the 1.37M degree-200 monomials."""
    monomials.cache_clear()
    divide(Form(s2.field, 200, {(200, 0, 0, 0): 1}), surface_form(s2))
    # no degree is tabulated: H's leading monomial is the largest of its terms
    assert monomials.cache_info().currsize == 0


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
    """Division by the surface equation answers whether H divides F at any
    degree, as the tests' division oracle does; above q+1, exact_quotient
    gives the quotient."""
    f = s2.field
    herm = surface_form(s2)
    g = linear_form(f, (1, 2, 3, 0))
    assert exact_quotient(herm * g, herm) == g
    cubic = Form(f, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1})
    for form, multiple in [(herm, True), (herm * g, True), (pencil_form(s2), False),
                           (linear_form(f, (1, 0, 0, 0)), False), (cubic, False)]:
        assert (not divide(form, herm)[1]) == multiple
        assert hermitian_multiple_by_division(form, s2) == multiple


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
    assert rep.to_json(s2)["v2_component"]
    assert rep.x_count == 45
    assert rep.jf_indices is None and rep.delta is None and rep.x_min is None
    assert rep.book_counts(s2) is None


@pytest.mark.parametrize("q", [2, 3])
def test_tangent_plane_in_surface_multiples(q):
    """For multiples of the surface equation H, the quotient F/H decides
    tangent-plane containment; pinned to the symbolic test of every
    tangent plane.  H x0 x1 has degree q+3, at most q^2 only for q > 2."""
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
    ]
    if q + 3 <= q * q:
        cases.append((h * x0 * x1, False))
    for form, expected in cases:
        rep = intersection_stats(form, surface)
        assert rep.hermitian_multiple
        full = [plane for plane in sorted(surface.tangent_planes()) if plane_inside(form, plane)]
        assert rep.contained_tangent_planes == tuple(full), form
        assert rep.contains_tangent_plane == expected, form


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
        books = rep.book_counts(s)
        for k, i in enumerate(rep.jf_indices):
            counts = books[i]
            assert len(counts) == s.q**2 + 1
            assert set(counts) == set(s.geometry.book_of_planes(s.generators()[i]))
            assert sum(counts.values()) == rep.meeting_sizes[k]


def test_book_count_range_and_containment_exception(s2):
    """a <= d-1 can only fail on planes inside V(F)."""
    rep = intersection_stats(pencil_form(s2), s2)
    g = s2.geometry
    books = rep.book_counts(s2)
    overfull = []
    for i in rep.jf_indices:
        for plane, a in books[i].items():
            assert a >= 0
            if a > rep.d - 1:
                overfull.append(plane)
                assert plane_contained(rep.form, g, plane)
                assert plane in rep.contained_tangent_planes
    assert overfull  # the pencil's two planes are inside V(F)


def test_multiplicity_equals_book_count_plus_one(s2):
    """r_P = a_{Pi_P, l} + 1 for every P on the union and l through P."""
    gens = s2.generators()
    for form in [pencil_form(s2), linear_form(s2.field, (0, 0, 1, 1))]:
        rep = intersection_stats(form, s2)
        books = rep.book_counts(s2)
        for pid, r in rep.multiplicities.items():
            plane = tangent_plane(s2, s2.geometry.points[pid])
            for i in rep.jf_indices:
                if pid in gens[i].point_ids:
                    assert r == books[i][plane] + 1


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


def slow_generator_stats(form, surface):
    """J_F and its statistics by per-line symbolic confirmation and sets:
    (jf, delta, meeting_sizes, x_min, residual_ids, multiplicities)."""
    gens, geom = surface.generators(), surface.geometry
    zero = form.values_at(surface.arr) == 0
    vanishing = [i for i, pos in enumerate(surface.generator_positions()) if zero[pos].all()]
    jf = [i for i in vanishing if line_inside(form, geom, gens[i])]
    through: dict = {}  # point id -> the J_F lines through it
    for i in jf:
        for pid in gens[i].point_ids:
            through.setdefault(pid, set()).add(i)
    meeting = [len(set().union(*(through[pid] for pid in gens[i].point_ids)) - {i}) for i in jf]
    x_ids = surface.point_ids[np.flatnonzero(zero)].tolist()
    return (
        tuple(jf),
        form.degree * (surface.q + 1) - len(jf),
        tuple(meeting),
        min(meeting) if meeting else None,
        tuple(pid for pid in x_ids if pid not in through),
        {pid: len(lines) for pid, lines in through.items()},
    )


@st.composite
def generator_stats_cases(draw):
    """(surface, form) at q in {2, 3} and d <= q^2: a product of k plane
    factors, tangent or arbitrary, times a random form of degree d - k,
    so that J_F ranges from empty to the pencils' d(q+1) lines."""
    q = draw(st.sampled_from((2, 3)))
    surface = canonical_surface(q)
    f, geom = surface.field, surface.geometry
    tangent = sorted(surface.tangent_planes())
    d = draw(st.integers(1, q * q))
    k = draw(st.integers(0, d))
    form = None
    for _ in range(k):
        if draw(st.booleans()):
            plane = tangent[draw(st.integers(0, len(tangent) - 1))]
        else:
            plane = geom.points[draw(st.integers(0, geom.n_points - 1))]
        form = linear_form(f, plane) if form is None else form * linear_form(f, plane)
    if k < d:
        rest = random_form(f, d - k, random.Random(draw(st.integers(0, 2**32 - 1))))
        form = rest if form is None else form * rest
    return surface, form


_S2 = canonical_surface(2)


@settings(max_examples=60, deadline=None)
@given(generator_stats_cases())
@example((_S2, linear_form(_S2.field, (0, 0, 1, 1)) * random_form(_S2.field, 3, random.Random(7))))
def test_generator_stats_match_symbolic_confirmation(case):
    """For d <= q^2, J_F from rational zeros and the array statistics
    equal per-line symbolic confirmation and set-based counting; the
    explicit example, a tangent plane times a cubic at d = q^2, has a
    nonempty J_F."""
    surface, form = case
    rep = intersection_stats(form, surface)
    if rep.hermitian_multiple:
        return
    fast = (rep.jf_indices, rep.delta, rep.meeting_sizes, rep.x_min,
            rep.residual_ids, rep.multiplicities)
    assert fast == slow_generator_stats(form, surface)


def test_stats_refuse_degree_above_q_squared(s2):
    """Above q^2 rational points no longer decide containment (see
    test_restriction_above_q_squared_is_not_rational), so intersection
    statistics and the containment tests refuse d = q^2+1 at once."""
    form = Form(s2.field, 5, {(4, 1, 0, 0): 1, (1, 4, 0, 0): 1})
    g = s2.geometry
    start = time.monotonic()
    with pytest.raises(FormError):
        intersection_stats(form, s2)
    with pytest.raises(FormError):
        line_contained(form, g, g.line_through((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(FormError):
        plane_contained(form, g, (0, 0, 1, 0))
    with pytest.raises(FormError):
        contains_tangent_plane(form, s2)
    assert time.monotonic() - start < 0.5


def test_stats_skip_symbolic_lines_and_books_below_q_squared(s2, monkeypatch):
    """For d <= q^2 with a nonempty J_F, neither intersection_stats nor
    book_counts confirms a line one at a time or builds a book."""
    import hermsurf.forms as forms_module
    from hermsurf.proj_geometry import Geometry

    calls = []
    line_contained_real, book_real = forms_module.line_contained, Geometry.book_of_planes

    def spy_line(*args):
        calls.append("line_contained")
        return line_contained_real(*args)

    def spy_book(self, line):
        calls.append("book_of_planes")
        return book_real(self, line)

    monkeypatch.setattr(forms_module, "line_contained", spy_line)
    monkeypatch.setattr(Geometry, "book_of_planes", spy_book)
    rep = intersection_stats(pencil_form(s2), s2)
    assert rep.jf_count > 0
    assert calls == []
    rep.book_counts(s2)
    assert calls == []


def test_contains_tangent_plane_prefilter_and_confirm(s2):
    f = s2.field
    assert contains_tangent_plane(pencil_form(s2), s2) == ((0, 0, 1, 1), (0, 0, 1, f.gen_index))
    assert contains_tangent_plane(linear_form(f, (1, 0, 0, 0)), s2) == ()
    assert contains_tangent_plane(linear_form(f, (0, 0, 1, 1)), s2) == ((0, 0, 1, 1),)


def test_consistency_guards_refuse_a_doctored_zero_set(s2, monkeypatch):
    """Zero sets that (a) and (c) of the forms docstring rule out raise,
    never return: more than d tangent planes whose sections vanish at
    d <= q, a form of degree d <= q that vanishes on the surface, and one
    above q+1 that vanishes there but that H does not divide."""
    f = s2.field
    sections = s2.tangent_section_positions()

    def doctor(positions):  # F vanishes at these surface positions only
        def values_at(self, pts):
            values = np.ones(len(pts), dtype=np.int16)
            values[positions] = 0
            return values
        monkeypatch.setattr(Form, "values_at", values_at)

    doctor(np.unique(np.concatenate(sections[:2])))
    assert len(contains_tangent_plane(pencil_form(s2), s2)) == 2
    doctor(np.unique(np.concatenate(sections[:3])))
    with pytest.raises(InternalConsistencyError, match=r"tangent planes lie in V\(F\), d=2"):
        contains_tangent_plane(pencil_form(s2), s2)
    doctor(np.arange(45))
    with pytest.raises(InternalConsistencyError, match=r"45 tangent planes lie in V\(F\), d=1"):
        contains_tangent_plane(linear_form(f, (1, 0, 0, 0)), s2)
    for form in (linear_form(f, (1, 0, 0, 0)), pencil_form(s2), Form(f, 4, {(4, 0, 0, 0): 1})):
        with pytest.raises(InternalConsistencyError, match="vanishes on the surface"):
            intersection_stats(form, s2)


def refuted_candidate_form(surface):
    """The product of T_Q over one point Q != P on each of the q+1
    generators through the first surface point P: V(F) contains those
    generators, so T_P passes the prefilter, but T_P is none of the
    factors."""
    geom, gens = surface.geometry, surface.generators()
    p = int(surface.point_ids[0])
    form = None
    for i in surface.generators_through()[0].tolist():
        other = next(pid for pid in gens[i].point_ids if pid != p)
        factor = linear_form(surface.field, tangent_plane(surface, geom.points[other]))
        form = factor if form is None else form * factor
    return form, tangent_plane(surface, geom.points[p])


@pytest.mark.parametrize("q", [2, 3])
def test_contains_tangent_plane_matches_symbolic_scan(q):
    """The r_P = q+1 prefilter plus evaluation against the symbolic test
    of every tangent plane: seeded random forms, products of tangent
    planes, tangent planes times random forms, and a form whose
    candidate T_P the confirmation refutes."""
    surface = canonical_surface(q)
    f = surface.field
    planes = sorted(surface.tangent_planes())
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
    refuted, tangent = refuted_candidate_form(surface)
    forms.append(refuted)
    outcomes, rejected = set(), set()
    for form in forms:
        contained = tuple(plane for plane in planes if plane_inside(form, plane))
        assert contains_tangent_plane(form, surface) == contained, form
        zero_positions = np.flatnonzero(form.values_at(surface.arr) == 0)
        candidates = set(vanishing_tangent_planes(surface, zero_positions))
        assert candidates >= set(contained)
        outcomes.add((bool(candidates), bool(contained)))
        rejected |= candidates - set(contained)
    assert outcomes >= {(False, False), (True, True)}
    assert tangent in rejected  # a candidate that the evaluation refutes


def _degree_q_squared_case(q, seed):
    surface = canonical_surface(q)
    plane = sorted(surface.tangent_planes())[seed]
    rest = random_form(surface.field, q * q - 1, random.Random(seed))
    return surface, linear_form(surface.field, plane) * rest


@settings(max_examples=30, deadline=None)
@given(generator_stats_cases(), st.integers(0, 2**16))
@example(_degree_q_squared_case(2, 3), 5)
@example(_degree_q_squared_case(3, 7), 11)
@example((canonical_surface(3), refuted_candidate_form(canonical_surface(3))[0]), 0)
def test_containment_matches_symbolic_restriction(case, pick):
    """line_contained on generators, and plane_contained and
    contains_tangent_plane on tangent planes, equal the symbolic test at
    1 <= d <= q^2.  Every line or plane whose rational points F could
    leave nonzero is checked: the rationally vanishing generators and
    prefilter candidates, plus one generator and one tangent plane
    picked at random."""
    surface, form = case
    if hermitian_multiple_by_division(form, surface):
        return  # every generator and tangent plane passes the prefilter
    geom, gens = surface.geometry, surface.generators()
    planes = sorted(surface.tangent_planes())
    zero = form.values_at(surface.arr) == 0
    vanishing = np.flatnonzero(zero[surface.generator_positions()].all(axis=1)).tolist()
    for i in vanishing + [pick % len(gens)]:
        assert line_contained(form, geom, gens[i]) == line_inside(form, geom, gens[i])
    candidates = sorted(vanishing_tangent_planes(surface, np.flatnonzero(zero)))
    contained = tuple(plane for plane in candidates if plane_inside(form, plane))
    assert contains_tangent_plane(form, surface) == contained
    for plane in candidates + [planes[pick % len(planes)]]:
        assert plane_contained(form, geom, plane) == plane_inside(form, plane)


# ----------------------------------------------------------------------
# batch helpers
# ----------------------------------------------------------------------

def test_class_vectors_enumerate_all_classes():
    f = build_field(2)
    total = class_count(f.order, 4)
    assert total == 85
    vecs = class_vectors(f, 4, np.arange(total))
    seen = {tuple(int(x) for x in row) for row in vecs}
    assert len(seen) == 85
    for row in seen:
        lead = next(i for i, x in enumerate(row) if x)
        assert row[lead] == 1
    # block splits agree with the full decode
    again = np.concatenate([class_vectors(f, 4, np.arange(lo, min(lo + 7, total)))
                            for lo in range(0, total, 7)])
    assert (again == vecs).all()


def test_class_vectors_long_tails():
    """Digits whose place value exceeds every tail in the block stay 0
    instead of overflowing the int64 division."""
    vecs = class_vectors(build_field(3), 35, np.arange(2))
    assert vecs.tolist() == [[1] + [0] * 34, [1] + [0] * 33 + [1]]


def _class_vectors_by_range(field, m, start, stop):
    """The per-range decoder that the array decoder replaced."""
    order = field.order
    out = np.zeros((stop - start, m), dtype=np.int16)
    row = 0
    offset = 0
    for j in range(m):
        size = order ** (m - 1 - j)
        lo, hi = max(start, offset), min(stop, offset + size)
        if lo < hi:
            tails = np.arange(lo - offset, hi - offset, dtype=np.int64)
            block = slice(row, row + hi - lo)
            out[block, j] = 1
            for t in range(m - 1 - j):
                div = order ** (m - 2 - j - t)
                if div < hi - offset:  # larger divisors leave the digit 0
                    out[block, j + 1 + t] = (tails // div) % order
            row += hi - lo
        offset += size
    return out


@st.composite
def class_index_arrays(draw):
    """Unsorted class indices, repeats allowed, crowded round the first
    class of each leading position."""
    q, d = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 2), (5, 1)]))
    field = build_field(q)
    m = monomial_count(d)
    total = class_count(field.order, m)
    firsts = [total - class_count(field.order, m - j) for j in range(m)]
    near = st.sampled_from(firsts).flatmap(
        lambda e: st.integers(max(0, e - 2), min(total - 1, e + 2)))
    return field, m, draw(st.lists(st.integers(0, total - 1) | near, max_size=40))


@settings(max_examples=200, deadline=None)
@given(class_index_arrays())
def test_class_vectors_match_the_range_decoder(case):
    field, m, indices = case
    got = class_vectors(field, m, np.array(indices, dtype=np.int64))
    assert got.shape == (len(indices), m) and got.dtype == np.int16
    for i, row in zip(indices, got.tolist()):
        assert row == _class_vectors_by_range(field, m, i, i + 1)[0].tolist()


def test_class_vectors_refuse_indices_outside_the_classes():
    f = build_field(2)
    for bad in ([-1], [0, 85]):
        with pytest.raises(ValueError):
            class_vectors(f, 4, bad)


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 32])
def test_digit_lanes_pack_and_unpack(q):
    """unpack[pack[x]] == x for every x, and a sum of K packed elements
    unpacks to their field sum."""
    field = build_field(q)
    group, pack, unpack = _digit_lanes(field)
    assert (unpack[pack] == np.arange(field.order)).all()
    terms = np.random.default_rng(q).integers(0, field.order, (group, 500))
    total = terms[0]
    for t in terms[1:]:
        total = field.add_np[total, t]
    assert (unpack[pack[terms].sum(axis=0, dtype=np.uint16)] == total).all()


@st.composite
def kernel_cases(draw):
    """(field, degree, points, coeffs): the number of monomials M lies
    below or above the kernel's group size K, so that above it groups of
    packed terms are decoded and merged.  Either a few vectors at a few
    points, or more than one slice of _SLICE_ROWS vectors at over
    _SLICE_ELEMENTS / _SLICE_ROWS points; coefficients come from a small
    pool of elements, so that they repeat."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    field = build_field(q)
    group = _digit_lanes(field)[0]
    if draw(st.booleans()):
        degree = next(d for d in itertools.count(1) if monomial_count(d) > group)
    else:
        degree = draw(st.sampled_from([d for d in (1, 2, 3) if monomial_count(d) <= group]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n, b = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    else:
        n = draw(st.integers(_SLICE_ELEMENTS // _SLICE_ROWS + 1, 1100))
        b = draw(st.integers(_SLICE_ROWS + 1, 2 * _SLICE_ROWS + 2))
    points = rng.integers(0, field.order, (n, 4)).astype(np.int16)
    pool = rng.integers(0, field.order, draw(st.sampled_from((2, 3, field.order))))
    coeffs = rng.choice(pool, (b, monomial_count(degree))).astype(np.int16)
    coeffs[rng.random(coeffs.shape) < draw(st.sampled_from((0.0, 0.5, 0.95)))] = 0
    return field, degree, points, coeffs


@settings(max_examples=40, deadline=None)
@given(kernel_cases())
def test_combination_values_matches_scalar_evaluation(case):
    """Every row equals the form's values_at, and scalar evaluation at
    (up to) its first six points."""
    field, degree, points, coeffs = case
    values = combination_values(field, monomial_matrix(field, degree, points), coeffs)
    head = points[:6].tolist()
    for row, vec in zip(values, coeffs):
        if not vec.any():
            assert not row.any()
            continue
        form = form_from_vector(field, degree, vec)
        assert row.tolist() == form.values_at(points).tolist()
        assert row[:6].tolist() == [form.evaluate(pt) for pt in head]


@pytest.mark.parametrize("q", (2, 3, 4))
def test_monomial_matrix_matches_evaluate(q):
    """x^e at points with zero coordinates, up to degree q^2, where an
    exponent passes Q-1: 0^e = 0 for e >= 1 and 0^0 = 1."""
    field = build_field(q)
    rng = random.Random(q)
    pts = [[rng.choice((0, rng.randrange(1, field.order))) for _ in range(4)] for _ in range(12)]
    for d in (1, 2, q * q):
        rows = monomial_matrix(field, d, np.array(pts, dtype=np.int16))
        for m, row in zip(monomials(d), rows.tolist()):
            assert row == [Form(field, d, {m: 1}).evaluate(pt) for pt in pts]


@lru_cache(maxsize=None)
def _scan_rows(q: int, d: int | None):
    """(field, rows): the monomial rows of the search at (q, d), or for
    d None the q=2 degree-3 code basis, whose k = 19 rows are fewer than
    its M = 20 monomials."""
    surface = canonical_surface(q)
    if d is None:
        return surface.field, build_code(surface, 3).basis
    return surface.field, monomial_matrix(surface.field, d, surface.arr)


@st.composite
def class_ranges(draw):
    """(d, field, rows, start, stop): a window of at most 1200 classes around a
    multiple of q^(2l) inside one leading-position segment, so that it
    crosses span boundaries, the boundaries of the higher digits (where
    class_zero_blocks builds its prefixes again) and the segment's end."""
    q, d = draw(st.sampled_from(
        ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (2, None))))
    field, rows = _scan_rows(q, d)
    m, order = rows.shape[0], field.order
    total = class_count(order, m)
    j = draw(st.integers(0, m - 1))
    offset = total - class_count(order, m - j)  # the first class led by position j
    place = order ** draw(st.integers(0, m - 1 - j))
    center = offset + place * draw(st.integers(0, order ** (m - 1 - j) // place))
    start = max(0, min(total - 1, center - draw(st.integers(0, 600))))
    stop = min(total, max(start + 1, center + draw(st.integers(0, 600))))
    return _window(q, d, start, stop)


def _window(q, d, start, stop):
    """A ``class_ranges`` case: (d, field, rows, start, stop)."""
    return d or 3, *_scan_rows(q, d), start, stop


def _blocks(field, rows, start, stop):
    """The concatenated words of class_zero_blocks over [start, stop), after
    checking that its blocks tile the window in order, each within the word
    cap _BLOCK_WORDS or one span of at most SCAN_BLOCK classes."""
    blocks = list(class_zero_blocks(field, rows, start, stop))
    bounds = [start] + [hi for _, hi, _ in blocks]
    width = -(-rows.shape[1] // 64)
    assert [lo for lo, _, _ in blocks] == bounds[:-1] and bounds[-1] == stop
    assert all(0 < hi - lo and ((hi - lo) * width <= _BLOCK_WORDS or hi - lo <= SCAN_BLOCK)
               for lo, hi, _ in blocks)
    assert all(w.dtype == np.dtype("<u8") and w.shape == (hi - lo, width) for lo, hi, w in blocks)
    return np.concatenate([w for _, _, w in blocks])


@settings(max_examples=60, deadline=None)
@given(class_ranges())
def test_class_zero_blocks_match_combination_values(case):
    _, field, rows, start, stop = case
    words = _blocks(field, rows, start, stop)
    want = combination_values(field, rows, class_vectors(field, rows.shape[0], np.arange(start, stop))) == 0
    assert (unpack_bits(words, rows.shape[1]) == want).all()


@lru_cache(maxsize=None)
def _scan_context(q: int, d: int) -> _SearchContext:
    return _SearchContext(canonical_surface(q), d)


@settings(max_examples=60, deadline=None)
@given(class_ranges())
# (2,2) and the (2,3) code basis: spans of 4,096 classes, blocks of four spans
@example(_window(2, 2, 100, 5_000))  # from mid-span, across a span, inside a block
@example(_window(2, 2, 16_384 - 700, 16_384 + 4_096 + 300))  # across a block and a span
@example(_window(2, 2, 4**9 - 700, 4**9 + 500))  # from leading position 0 to 1
@example(_window(2, 2, 349_184 - 1_324, 349_184 + 100))  # positions 3 to 5, a span each
@example(_window(2, None, 6 * 16_384 - 500, 6 * 16_384 + 4_096 + 200))
@example(_window(2, None, 4**18 - 400, 4**18 + 400))
# (3,2): spans of 6,561 classes, blocks of three spans
@example(_window(3, 2, 6_561 - 500, 6_561 + 700))  # across a span, inside a block
@example(_window(3, 2, 3 * 6_561 - 500, 3 * 6_561 + 700))  # across a block
@example(_window(3, 2, 9**9 - 300, 9**9 + 300))  # from leading position 0 to 1
def test_bit_sliced_blocks_match_the_int16_compare(case):
    """The word counts, the unpacked masks and the search's scan of the
    words (which unpacks the rows at or above the J_F floor) equal the
    int16 compare path of tests/symbolic.py on the same window, with every
    padding bit 0."""
    d, field, rows, start, stop = case
    n = rows.shape[1]
    words = _blocks(field, rows, start, stop)
    zero = np.concatenate([z for _, _, z in class_zero_masks(field, rows, start, stop)])
    assert zero_counts(words).tolist() == np.count_nonzero(zero, axis=1).tolist()
    assert not unpack_bits(words, 64 * words.shape[1])[:, n:].any()
    assert (unpack_bits(words, n) == zero).all()
    ctx = _scan_context(field.q, d)
    above = zero.sum(axis=1) >= ctx.floor
    jf = np.where(above, zero[:, ctx.surface.generator_positions()].all(axis=2).sum(axis=1), 0)
    x_counts, jf_counts = ctx.scan(words)
    assert (x_counts.tolist(), jf_counts.tolist()) == (zero.sum(axis=1).tolist(), jf.tolist())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3)), st.sampled_from((63, 64, 65, 128)), st.integers(2, 5),
       st.integers(0, 2**32 - 1), st.data())
def test_bit_sliced_blocks_on_synthetic_rows(q, n, m, seed, data):
    """Rows of width 63, 64, 65 and 128, with and without a partial last
    word, over random windows: the same masks and counts as the int16
    compare path, and every padding bit 0."""
    field = build_field(q)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, field.order, (m, n)).astype(np.int16)
    rows[rng.random((m, n)) < 0.3] = 0  # zero entries give combinations many zeros
    total = class_count(field.order, m)
    start = data.draw(st.integers(0, total - 1))
    stop = data.draw(st.integers(start + 1, min(total, start + 3000)))
    words = _blocks(field, rows, start, stop)
    zero = np.concatenate([z for _, _, z in class_zero_masks(field, rows, start, stop)])
    assert not unpack_bits(words, 64 * words.shape[1])[:, n:].any()
    assert (unpack_bits(words, n) == zero).all()
    assert zero_counts(words).tolist() == np.count_nonzero(zero, axis=1).tolist()


def test_full_q4_d1_range_matches_the_int16_compare():
    """All 4,369 classes at (4,1), whose table spans L = 3 digits, 4,096 rows
    in four top-digit slices: the hypothesis windows, of at most 1,200
    classes, never read all of it."""
    field, rows = _scan_rows(4, 1)
    stop = class_count(field.order, rows.shape[0])
    words = _blocks(field, rows, 0, stop)
    zero = np.concatenate([z for _, _, z in class_zero_masks(field, rows, 0, stop)])
    assert stop == 4369 and len(words) == stop
    assert (unpack_bits(words, rows.shape[1]) == zero).all()
    assert zero_counts(words).tolist() == np.count_nonzero(zero, axis=1).tolist()


@pytest.mark.parametrize("q, d, stop, span, per, blocks", [
    (2, 2, None, 4_096, 4, 28),  # 4,096 words a span
    (3, 2, 2 * 3 * 6_561 + 100, 6_561, 3, 3),  # 32,805 words a span
    (5, 1, None, 625, 1, 28),  # 32,500 words a span: five, the next divisor of 25, overflow
    (4, 2, 3 * 4_096 + 100, 4_096, 1, 4),  # 73,728 words a span: two overflow
])
def test_a_block_holds_the_spans_that_fit_the_word_cap(monkeypatch, q, d, stop, span, per, blocks):
    """A block holds gcd(q^2, the spans that fit _BLOCK_WORDS) spans, one at
    least.  With a cap of one word every block is one span, and the words
    are the same."""
    field, rows = _scan_rows(q, d)
    stop = stop or class_count(field.order, rows.shape[0])
    words = _blocks(field, rows, 0, stop)
    sizes = [hi - lo for lo, hi, _ in class_zero_blocks(field, rows, 0, stop)]
    assert (len(sizes), max(sizes)) == (blocks, per * span)
    monkeypatch.setattr(forms_module, "_BLOCK_WORDS", 1)
    spans = list(class_zero_blocks(field, rows, 0, stop))
    assert max(hi - lo for lo, hi, _ in spans) == span
    assert (np.concatenate([w for _, _, w in spans]) == words).all()
    if (q, d) == (2, 2):
        assert len(spans) == 91


def test_first_block_builds_no_full_int16_table():
    """Taking the first (5,1) block allocates under three times the (5,
    625, 52) uint64 bit table, 1.3 MB: the (625, 3,276) int16 table of every
    combination, 4.1 MB, is never built whole."""
    field, rows = _scan_rows(5, 1)
    table_bytes = 5 * field.order**2 * -(-rows.shape[1] // 64) * 8
    tracemalloc.start()
    try:
        blocks = class_zero_blocks(field, rows, 0, class_count(field.order, rows.shape[0]))
        next(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * table_bytes


@pytest.mark.parametrize("width", [1, 45, 64, 255, 256, 65_535, 65_536, 70_000])
def test_row_counts_match_count_nonzero(width):
    """The zeros per row of packed words: exact at the width (an all-true
    row, with and without a partial last word), as int64, with the padding
    bits of pack_bits 0."""
    rng = np.random.default_rng(width)
    for mask in (rng.random((3, width)) < 0.5, np.ones((3, width), dtype=bool),
                 np.zeros((3, width), dtype=bool)):
        words = pack_bits(mask)
        counts = zero_counts(words)
        assert counts.dtype == np.int64 and words.shape == (3, -(-width // 64))
        assert counts.tolist() == np.count_nonzero(mask, axis=1).tolist()
        assert (unpack_bits(words, width) == mask).all()
        assert not unpack_bits(words, 64 * words.shape[1])[:, width:].any()
    assert zero_counts(pack_bits(np.ones((2, width), dtype=bool))).tolist() == [width, width]


def test_form_to_json_is_the_vector_serializer(s2):
    form = pencil_form(s2)
    vec = form.coefficient_vector()
    assert form_to_json(form, 2) == vector_to_json(2, 2, vec) == {
        "q": 2, "d": 2, "terms": [[list(m), c] for m, c in form.terms()]}


def test_form_json_roundtrip(s2):
    form = pencil_form(s2).normalized()
    data = form_to_json(form, 2)
    back = form_from_json(s2.field, data)
    assert back == form
    with pytest.raises(FormError):
        form_from_json(build_field(3), data)


@pytest.mark.parametrize("d, terms", [
    (1, [[[1.0, 0, 0, 0], 1]]),  # a non-int exponent
    (1, [[[1, 0, 0, True], 1]]),  # a bool exponent
    (1, [[[1, 0, 0, 0], 1.0]]),  # a non-int coefficient
    (1, [[[1, 0, 0, 0], True]]),  # a bool coefficient
    (1, [[[1, 0, 0], 1]]),  # three exponents
    (1, [[[1, 0, 0, 0, 0], 1]]),  # five exponents
    (1, [[[2, -1, 0, 0], 1]]),  # a negative exponent
    (1, [[[2, 0, 0, 0], 1]]),  # exponents summing to 2, not d
    (1, [[[1, 0, 0, 0], -1]]),  # coefficients outside 0..q^2-1
    (1, [[[1, 0, 0, 0], 4]]),
    (1, [[[1, 0, 0, 0], 1], [[1, 0, 0, 0], 0]]),  # a repeated monomial
    (1, [[[1, 0, 0, 0], 0]]),  # the zero form
    (1, []),
    (0, [[[0, 0, 0, 0], 1]]),  # d < 1
])
def test_form_from_json_refusals(d, terms):
    with pytest.raises(FormError):
        form_from_json(build_field(2), {"q": 2, "d": d, "terms": terms})


def test_form_from_json_checks_each_term_once(monkeypatch):
    """Documents build the Form that Form(...) builds from the same terms,
    zero coefficients dropped; a term of plain ints takes no _json_int call,
    which only q and d then make."""
    f = build_field(3)
    rng = random.Random(3)
    cases = []
    for d in (1, 2, 4):
        vec = [rng.choice([0, 0, rng.randrange(f.order)]) for _ in monomials(d)]
        vec[rng.randrange(len(vec))] = 1
        terms = [[list(m), c] for m, c in zip(monomials(d), vec)]
        cases.append((d, terms, Form(f, d, {tuple(m): c for m, c in terms})))
    calls = []
    json_int = forms_module._json_int
    monkeypatch.setattr(forms_module, "_json_int", lambda *a: calls.append(a) or json_int(*a))
    for d, terms, want in cases:
        calls.clear()
        got = form_from_json(f, {"q": 3, "d": d, "terms": terms})
        assert got == want and 0 not in got.coeffs.values()
        assert calls == [(3, "q"), (d, "d")]


def test_lanes_are_cached_and_read_only():
    f = build_field(4)
    lanes = _lanes(f, 100)
    assert lanes is _lanes(f, 100) and not lanes.flags.writeable
