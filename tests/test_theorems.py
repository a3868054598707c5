import ast
import concurrent.futures
import copy
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermsurf import theorems
from hermsurf.finite_field import build_field, matrix_rank, nullspace
from hermsurf.forms import (
    Form,
    FormError,
    class_count,
    class_vectors,
    combination_values,
    divide,
    form_from_vector,
    form_to_json,
    intersection_stats,
    linear_form,
    monomial_count,
    monomials,
    pack_bits,
    surface_form,
)
from hermsurf.hermitian import (
    HermitianSurface,
    InternalConsistencyError,
    LineKind,
    canonical_surface,
)
from hermsurf.proj_geometry import _normalized
from hermsurf.theorems import (
    BudgetExceededError,
    FalsificationError,
    _scan_range,
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
)
from helpers import random_hermitian, violations
from symbolic import (
    factors_by_division,
    hermitian_multiple_by_division,
    tangent_planes_by_evaluation,
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
        for d in range(1, 2 * q**2 + 2):
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


def test_residual_bound_needs_d_at_most_q_squared_plus_1(s2):
    """x0^20 at q=2 has residual points, but past d = q^2+1 the incidence
    bound grows with delta, so its value at delta = q+1 (here -105) bounds
    nothing.  intersection_stats refuses d > q^2, so the report is x0's,
    whose zero set and empty J_F x0^20 shares, at d = 20."""
    x0 = intersection_stats(linear_form(s2.field, (1, 0, 0, 0)), s2)
    rep = replace(x0, form=Form(s2.field, 20, {(20, 0, 0, 0): 1}), d=20, delta=20 * 3)
    br = evaluate_bounds(rep)
    assert rep.residual_ids
    assert br.checks["residual_point_bound"].value == -105
    assert not br.checks["residual_point_bound"].applicable
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


def _uniform(field, d, rng):
    vec = [0] * monomial_count(d)
    while not any(vec):
        vec = [rng.randrange(field.order) for _ in vec]
    return form_from_vector(field, d, vec)


def _product(field, planes):
    form = linear_form(field, planes[0])
    for plane in planes[1:]:
        form = form * linear_form(field, plane)
    return form


def _check_path_form(surface, kind, rng):
    """A form of one kind at degree d <= q+1, or q+1 < d <= q^2 for a multiple of H."""
    q, f = surface.q, surface.field
    tangent = sorted(surface.tangent_planes())
    d = rng.randint(1 if kind in ("uniform", "pencil") else 2, q + 1)
    if kind == "uniform":
        return _uniform(f, d, rng)
    if kind == "pencil":  # d tangent planes through a random secant
        while True:
            a, b = rng.sample(range(surface.n_surface_points()), 2)
            line = surface.geometry.line_between_ids(*surface.point_ids[[a, b]].tolist())
            if surface.classify_line(line).kind is LineKind.SECANT:
                return _product(f, rng.sample(tangent_planes_through(surface, line), d))
    if kind == "repeated":  # tangent planes from a pool of two, so that most repeat
        pool = rng.sample(tangent, 2)
        return _product(f, [rng.choice(pool) for _ in range(d)])
    if kind == "tangent_times_form":
        return linear_form(f, rng.choice(tangent)) * _uniform(f, d - 1, rng)
    rest = rng.randint(0, min(2, q * q - q - 1))  # H G, deg G <= 2 and d <= q^2
    h = surface_form(surface)
    return h.scale(rng.randrange(1, f.order)) if rest == 0 else h * _uniform(f, rest, rng)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind", ["uniform", "pencil", "repeated", "tangent_times_form", "H*G"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_check_path_matches_division_and_plane_evaluation(q, kind, seed):
    """intersection_stats and tangent_plane_factors decide from the zero set
    by (a)-(c) of the forms docstring; the slow paths they replace (division
    by H, evaluation of every candidate plane, the division loop) agree."""
    surface = canonical_surface(q)
    form = _check_path_form(surface, kind, random.Random(seed))
    rep = intersection_stats(form, surface)
    assert rep.hermitian_multiple == hermitian_multiple_by_division(form, surface)
    assert rep.hermitian_multiple == (kind == "H*G")
    planes = rep.contained_tangent_planes
    assert planes == tangent_planes_by_evaluation(form, surface)
    assert tangent_plane_factors(rep, surface) == factors_by_division(form, planes)
    if kind in ("pencil", "repeated"):
        assert tangent_plane_factors(rep, surface) is not None


# ----------------------------------------------------------------------
# extremal constructions
# ----------------------------------------------------------------------

def test_canonical_secant():
    """The pencil's planes, read from the generators through two points of
    the secant, are the tangent planes of the secant's book in PG(3, q^2)."""
    for q in (2, 3, 4, 5):
        s = canonical_surface(q)
        line = canonical_secant(s)
        assert s.classify_line(line).kind is LineKind.SECANT
        planes = tangent_planes_through(s, line)
        assert len(planes) == q + 1
        assert build_extremal_pencil(s, q + 1) == _product(s.field, planes)


@pytest.mark.parametrize("q, seed", [(2, 1), (2, 2), (3, 0)])
def test_canonical_secant_off_the_coordinate_line(q, seed):
    """Surfaces on which {x2 = x3 = 0} is a tangent or a generator: the
    secant comes from the first surface point."""
    f = build_field(q)
    rng = random.Random(seed)
    while True:
        a = random_hermitian(f, rng)
        if matrix_rank(f, [list(r) for r in a]) == 4:
            break
    s = HermitianSurface(f, a)
    coordinate = s.geometry.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    assert s.classify_line(coordinate).kind is not LineKind.SECANT
    line = canonical_secant(s)
    assert s.classify_line(line).kind is LineKind.SECANT
    assert int(s.point_ids[0]) in line.point_ids
    planes = tangent_planes_through(s, line)
    assert len(planes) == q + 1
    assert build_extremal_pencil(s, q + 1) == _product(f, planes)


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
    res = exhaustive_search(s2, 1)
    assert res.max_count == best
    assert {g.coefficient_vector() for g in res.argmax_forms} == argmax


def test_exhaustive_d1(s2):
    res = exhaustive_search(s2, 1)
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
        exhaustive_search(s2, 3, budget=1000)


@pytest.mark.parametrize("workers", [0, -3])
def test_exhaustive_refuses_fewer_than_one_worker(s2, workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        exhaustive_search(s2, 1, workers=workers)


def test_exhaustive_workers_match_serial(s2):
    serial = exhaustive_search(s2, 1)
    parallel = exhaustive_search(s2, 1, workers=2)
    assert serial.to_json() == parallel.to_json()


def test_pool_never_exceeds_the_cpus_or_the_ranges(s2, monkeypatch):
    """A huge --workers asks a fork pool, which starts every worker at
    once, for no more processes than the CPUs and the ranges allow, and
    a search of one range starts no pool."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # imported lazily
    serial = exhaustive_search(s2, 2)
    assert exhaustive_search(s2, 2, workers=10_000).to_json() == serial.to_json()
    assert all(n <= (os.cpu_count() or 1) for n in sizes)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 16)
    sizes.clear()
    assert exhaustive_search(s2, 2, workers=10_000).to_json() == serial.to_json()
    assert exhaustive_search(s2, 1, workers=10_000).to_json() == exhaustive_search(s2, 1).to_json()
    assert sizes == [16]  # 43 ranges of 8192 classes at d=2; d=1's one range is scanned in process


@pytest.mark.parametrize("q, d, mode", [(2, 2, "exhaustive"), (3, 2, "random")])
def test_argmax_forms_serialize_from_their_vectors(q, d, mode):
    surface = canonical_surface(q)
    if mode == "exhaustive":
        res = exhaustive_search(surface, d)
    else:
        res = random_search(surface, d, 3000, 7)
    forms = res.argmax_forms
    assert len(forms) == len(res.argmax_vectors) > 0
    assert res.to_json()["argmax_forms"] == [form_to_json(f, q) for f in forms]
    assert [list(f.coefficient_vector()) for f in forms] == res.argmax_vectors
    assert all(f.field is surface.field and f.degree == d and f.normalized() == f for f in forms)
    if mode == "exhaustive":
        assert len(forms) == 720


def test_falsification_error_pickles():
    witness = {"form": {"q": 2, "d": 1, "terms": [[[1, 0, 0, 0], 1]]}}
    back = pickle.loads(pickle.dumps(FalsificationError("bound violated", witness)))
    assert type(back) is FalsificationError
    assert str(back) == "bound violated"
    assert back.witness == witness


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched bound only through fork")
def test_worker_violation_reaches_the_caller(s2, monkeypatch):
    """A bound that a plane section beats: workers raise the same
    FalsificationError as the serial scan."""
    monkeypatch.setattr(theorems, "sorensen_bound", lambda q, d: 12)
    with pytest.raises(FalsificationError) as serial:
        exhaustive_search(s2, 1)
    with pytest.raises(FalsificationError) as parallel:
        exhaustive_search(s2, 1, workers=2)
    assert str(parallel.value) == str(serial.value)
    assert parallel.value.witness == serial.value.witness


def test_serial_witness_is_the_first_violating_class(s2, monkeypatch):
    """The witness is decoded from the first class, in scan order, that
    beats the patched bound."""
    monkeypatch.setattr(theorems, "sorensen_bound", lambda q, d: 12)
    f = s2.field
    vecs = class_vectors(f, 4, np.arange(class_count(f.order, 4)))
    x_counts = (combination_values(f, _SearchContext(s2, 1).rows, vecs) == 0).sum(axis=1)
    first = int(np.flatnonzero(x_counts > 12)[0])
    with pytest.raises(FalsificationError) as err:
        exhaustive_search(s2, 1)
    witness = form_from_vector(f, 1, class_vectors(f, 4, np.arange(first, first + 1))[0])
    assert err.value.witness["form"] == form_to_json(witness, 2)


@pytest.mark.parametrize("split", [1, 4095, 4096, 4097, 5000, 262143, 262144, 262161, 349524])
def test_scan_range_splits_merge_to_the_full_scan(s2, split):
    """Worker chunks end anywhere, also inside a span of the table."""
    ctx = _SearchContext(s2, 2)
    total = class_count(s2.field.order, ctx.m)
    merged = _scan_range(ctx, 0, split)
    merged.merge(_scan_range(ctx, split, total))
    assert merged == _scan_range(ctx, 0, total)


def test_scan_range_decodes_the_surface_equation_lazily(s2, capsys):
    """At (2,3) the scan runs over the 19 standard monomials: the surface
    equation, whose leading monomial x0^3 is not one of them, is no class,
    and no class is skipped; scanning 1,000,100 classes writes one progress
    line."""
    ctx = _SearchContext(s2, 3)
    f = s2.field
    herm = np.array(surface_form(s2).normalized().coefficient_vector())
    assert (ctx.m, len(ctx.standard)) == (20, 19) and herm[np.setdiff1d(np.arange(ctx.m), ctx.standard)].any()
    total = class_count(f.order, len(ctx.standard))
    for lo in (0, total // 2, total - 10_000):
        tally = _scan_range(ctx, lo, lo + 10_000)
        assert (tally.skipped, tally.examined) == (0, 10_000)
        assert tally.max_count < ctx.n
    capsys.readouterr()
    _scan_range(ctx, 0, 1_000_100)
    assert capsys.readouterr().err.splitlines() == ["scanned 1000100 of 1000100 classes"]


@pytest.mark.parametrize("q, d", [(2, 3), (2, 4), (3, 4)])
def test_a_form_and_its_remainder_mod_h_meet_the_surface_alike(q, d):
    """F and its remainder mod H have the same |X|, the same J_F over all
    q^2+1 points of each generator and the same check_block verdict, and the
    remainder uses only standard monomials.  Half the forms are uniform; half
    are d tangent planes plus G H for a random G, so they contain generators."""
    surface, ctx, planes = _floor_context(q, d)
    f, herm = surface.field, surface_form(surface)
    standard = {monomials(d)[i] for i in ctx.standard}
    rng = random.Random(10 * q + d)
    forms, remainders = [], []
    while len(forms) < 24:
        if len(forms) % 2:
            form = linear_form(f, rng.choice(planes))
            for _ in range(d - 1):
                form = form * linear_form(f, rng.choice(planes))
            g = [rng.randrange(f.order) for _ in range(monomial_count(d - q - 1))]
            if any(g):
                gh = herm.scale(g[0]) if d == q + 1 else form_from_vector(f, d - q - 1, g) * herm
                coeffs = dict(gh.coeffs)
                for mono, c in form.coeffs.items():
                    coeffs[mono] = f.add(coeffs.get(mono, 0), c)
                form = Form(f, d, coeffs)
        else:
            vec = [rng.randrange(f.order) for _ in range(ctx.m)]
            if not any(vec):
                continue
            form = form_from_vector(f, d, vec)
        rest = divide(form, herm)[1]
        assert set(rest) <= standard
        forms.append(form)
        remainders.append(Form(f, d, rest))
    gens = surface.generator_positions()
    out = []
    for group in (forms, remainders):
        coeffs = np.array([g.coefficient_vector() for g in group], dtype=np.int16)
        zero = np.array([g.values_at(surface.arr) == 0 for g in group])
        x_counts, jf_counts = ctx.scan(pack_bits(zero))
        full = zero[:, gens].all(axis=2).sum(axis=1)
        out.append((x_counts.tolist(), full.tolist(), _verdicts(ctx, x_counts, jf_counts, coeffs)))
    assert out[0] == out[1]
    assert any(out[0][1])


@pytest.mark.parametrize("q, d", [(2, 3), (3, 4)])
def test_scan_range_over_code_classes_matches_lifted_brute_force(q, d):
    """A window of code classes scans like a brute force over the lifted
    vectors on the full monomial rows: same max, total and argmax; the
    lifted vectors are normalized, and no row is a multiple of H (|X| = n)."""
    surface, ctx, _ = _floor_context(q, d)
    f = surface.field
    top = min(class_count(f.order, len(ctx.standard)), 2**62)  # class_vectors decodes int64 indices
    for lo in (0, top // 3, top - 6000):
        hi = lo + 6000
        vecs = ctx.lift(class_vectors(f, len(ctx.standard), np.arange(lo, hi)))
        assert not vecs[:, np.setdiff1d(np.arange(ctx.m), ctx.standard)].any()
        assert (vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)] == 1).all()
        x = (combination_values(f, ctx.rows, vecs) == 0).sum(axis=1)
        assert x.max() < ctx.n
        hits = np.flatnonzero(x == x.max())
        tally = _scan_range(ctx, lo, hi)
        assert (tally.max_count, tally.total, tally.examined) == (x.max(), len(hits), hi - lo)
        assert tally.argmax == (lo + hits[: theorems._ARGMAX_CAP]).tolist()


def test_exhaustive_counters_follow_the_class_count_identity(s2, monkeypatch):
    """At (2,3), k = M - 1: the default budget refuses the 91,625,968,981 code
    classes; a scan cut to its first 5,000 classes reports each as Q = 4
    examined classes, the one multiple of H as skipped, and standard-monomial
    argmax forms."""
    with pytest.raises(BudgetExceededError, match="^91625968981 scalar classes exceed"):
        exhaustive_search(s2, 3)
    real = theorems._scan_range
    monkeypatch.setattr(theorems, "_scan_range", lambda ctx, start, stop: real(ctx, 0, 5000))
    res = exhaustive_search(s2, 3, budget=10**12)
    tally = real(_SearchContext(s2, 3), 0, 5000)
    assert (res.examined, res.skipped_hermitian_multiples) == (4 * 5000, 1)
    assert (res.max_count, res.argmax_total) == (tally.max_count, 4 * tally.total)
    assert all(vec[0] == 0 for vec in res.argmax_vectors)  # x0^3 = LM(H) is not standard
    assert len(res.argmax_vectors) == min(tally.total, theorems._ARGMAX_CAP)


def test_no_search_divides_by_the_surface_equation():
    """Nothing in the theorems module names hermitian_divides, not even an
    import: the exhaustive scan runs over the code classes and random search
    decides multiples of H from the zero set, so no per-form division comes
    back into either."""
    tree = ast.parse(Path(theorems.__file__).read_text())
    named = [node.lineno for node in ast.walk(tree) if "hermitian_divides" in (
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))]
    assert named == []


def test_each_surface_rule_has_one_routine():
    """The theorems module reads secants and their tangent planes from the
    generator rows, so it names neither incidence (a pass of polar pairings
    over the points) nor book_of_planes (a pencil built in PG(3, q^2)).  One
    function in the package raises for a form of degree d <= q that vanishes
    on the surface: the multiple-of-H test that check and random search share."""
    tree = ast.parse(Path(theorems.__file__).read_text())
    named = [node.lineno for node in ast.walk(tree) if {"incidence", "book_of_planes"} & {
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}]
    assert named == []

    def raises_it(node):
        return isinstance(node, ast.Raise) and any(
            "<= q vanishes on the surface" in str(getattr(part, "value", "")) for part in ast.walk(node))

    raisers = [(path.name, func.name)
               for path in sorted(Path(theorems.__file__).parent.glob("*.py"))
               for func in ast.walk(ast.parse(path.read_text())) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if raises_it(node)]
    assert raisers == [("forms.py", "multiples_of_h")]


def test_exhaustive_search_refuses_class_indices_past_int64(s3, monkeypatch):
    """class_vectors decodes int64 class indices only, so a class range of
    2^63 or more is refused before any scan, whatever the budget: (3,4) has
    about 3.5e31 code classes."""
    def unreachable(*args):
        raise AssertionError("scanned a range past 2^63")

    monkeypatch.setattr(theorems, "_scan_range", unreachable)
    with pytest.raises(BudgetExceededError, match=f"exceed the budget {2**63 - 1};"):
        exhaustive_search(s3, 4, budget=10**40)


def test_argmax_cap_keeps_the_first_maximizers(s2, monkeypatch):
    full = exhaustive_search(s2, 2)
    monkeypatch.setattr(theorems, "_ARGMAX_CAP", 5)
    capped = exhaustive_search(s2, 2)
    assert capped.argmax_total == full.argmax_total == 720
    assert capped.max_count == full.max_count
    assert capped.argmax_forms == full.argmax_forms[:5]


@pytest.mark.parametrize("q", [2, 3])
def test_jf_from_d_plus_1_points_matches_full_generators(q):
    """The scan decides generator containment from d+1 points per
    generator, and only on rows with |X| at or above its floor.  There it
    is pinned to all q^2+1 points, on blocks that mix random forms with
    products of tangent planes, which contain generators (and, at
    d = q+1, the surface equation, which contains all of them).  Below the
    floor the full J_F is at most d(q+1), and the row passes the incidence
    check at it.  ``check`` follows the same rule: intersection_stats finds
    the full J_F of every form but the multiple of H."""
    surface = canonical_surface(q)
    f = surface.field
    rng = random.Random(q)
    planes = sorted(surface.tangent_planes())
    for d in sorted({1, 2, 3, q + 1, min(q * q, 4)}):
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
        if d == q + 1:
            rows.append(surface_form(surface).coefficient_vector())
        coeffs = np.array(rows, dtype=np.int16)
        zero = combination_values(f, ctx.rows, coeffs) == 0
        x_counts, jf_counts = ctx.scan(pack_bits(zero))
        jf = zero[:, surface.generator_positions()].all(axis=2)  # all q^2+1 points
        full = jf.sum(axis=1)
        above = x_counts >= ctx.floor
        assert full[above].any() and (~above).any()
        assert jf_counts[above].tolist() == full[above].tolist()
        assert not jf_counts[~above].any()
        assert (full[~above] <= d * (q + 1)).all()
        assert ((q + 1) * x_counts[~above] <= ctx.incidence_rhs[full[~above]]).all()
        if d == q + 1:
            assert jf_counts[-1] == len(surface.generator_positions())
        for row, mask in zip(coeffs.tolist(), jf):
            if any(row):  # a uniform draw may be the zero vector, which is no form
                rep = intersection_stats(form_from_vector(f, d, row), surface)
                assert rep.hermitian_multiple or rep.jf_indices == tuple(np.flatnonzero(mask).tolist())


@lru_cache(maxsize=None)
def _floor_context(q, d):
    surface = canonical_surface(q)
    return surface, _SearchContext(surface, d), sorted(surface.tangent_planes())


def _verdicts(ctx, x_counts, jf_counts, coeffs):
    """check_block's verdict on each row alone: True where it raises."""
    out = []
    for i in range(len(x_counts)):
        try:
            ctx.check_block(x_counts[i : i + 1], jf_counts[i : i + 1], coeffs[i:].__getitem__)
        except FalsificationError:
            out.append(True)
        else:
            out.append(False)
    return out


@st.composite
def floor_blocks(draw):
    """A block at one of the scan scales that mixes random coefficient
    vectors, products of d tangent planes, and products of d-1 tangent
    planes with a random linear form (rows near the floor)."""
    q, d = draw(st.sampled_from([(2, 2), (3, 2), (4, 1), (5, 1), (2, 3)]))
    surface, ctx, planes = _floor_context(q, d)
    f = surface.field
    rows = []
    for kind, seed in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1)),
                                    min_size=1, max_size=24)):
        rng = random.Random(seed)
        if kind == 0:
            rows.append([rng.randrange(f.order) for _ in range(ctx.m)])
            continue
        factors = [linear_form(f, rng.choice(planes)) for _ in range(d - (kind == 2))]
        if kind == 2:
            factors.append(linear_form(f, [rng.randrange(1, f.order) for _ in range(4)]))
        form = factors[0]
        for g in factors[1:]:
            form = form * g
        rows.append(form.coefficient_vector())
    return surface, ctx, np.array(rows, dtype=np.int16)


@settings(max_examples=40, deadline=None)
@given(floor_blocks())
def test_jf_floor_changes_no_count_or_verdict(case):
    """With and without the floor, the scan gives the same x_counts and
    the same J_F at or above the floor, and check_block the same verdict
    on every row."""
    surface, ctx, coeffs = case
    unfloored = copy.copy(ctx)
    unfloored.floor = 0
    zero = combination_values(surface.field, ctx.rows, coeffs) == 0
    x_counts, jf_counts = ctx.scan(pack_bits(zero))
    x_all, jf_all = unfloored.scan(pack_bits(zero))
    assert x_counts.tolist() == x_all.tolist()
    above = x_counts >= ctx.floor
    assert jf_counts[above].tolist() == jf_all[above].tolist()
    assert _verdicts(ctx, x_counts, jf_counts, coeffs) == _verdicts(ctx, x_all, jf_all, coeffs)


def test_rows_just_below_the_floor_pass_both_checks(monkeypatch):
    """For every prime power q <= 8 and 1 <= d <= q^2, a row with
    |X| = floor-1 passes the incidence check at every J_F <= d(q+1), and
    d(q+1)+1 generators cannot fit in floor-1 points, so ``over`` cannot
    trip either.  Pure arithmetic: no monomial matrix is built."""

    def refuse(*args):
        raise AssertionError("a monomial matrix was built")

    def witness(i):
        raise AssertionError(f"row {i} failed a check")

    monkeypatch.setattr(theorems, "monomial_matrix", refuse)
    for q in (2, 3, 4, 5, 7, 8):
        n = q * q + 1
        for d in range(1, q * q + 1):
            top = d * (q + 1)
            rhs, floor = theorems._incidence_floor(q, d)
            assert rhs.tolist() == [(q + 1) * incidence_bound(q, d, top - jf) for jf in range(top + 1)]
            assert rhs.min() // (q + 1) + 1 == d * (q**3 + 1) + 1
            assert 0 < floor <= d * (q**3 + 1) + 1
            sorensen = sorensen_bound(q, d) if d <= q + 1 else None
            plain = SimpleNamespace(q=q, incidence_rhs=rhs, sorensen=sorensen)
            _SearchContext.check_block(plain, np.full(top + 1, floor - 1), np.arange(top + 1),
                                       witness)
            # j generators with r_P through P cover jn - sum(r_P - 1) points; one
            # generator through each P joined to the other r_P - 1 is a graph with
            # that many edges and, in a generalized quadrangle, no triangle, so at
            # most as many as the largest complete bipartite graph on j vertices
            # (Mantel); and each point lies on q+1 generators
            j = top + 1
            cover = max(j * n - max(a * (j - a) for a in range(j + 1)), -(-j * n // (q + 1)))
            assert floor - 1 < cover


@pytest.mark.parametrize("q", [2, 3, 4])
def test_generators_form_a_generalized_quadrangle(q):
    """What the floor's generator term uses: each surface point lies on q+1
    generators, two generators share at most one point, and three that
    meet pairwise meet in one point.  The triangles of the "meet" graph
    are then exactly the triples through a common point, C(q+1, 3) at each
    of the n surface points."""
    surface = canonical_surface(q)
    gens = surface.generator_positions()
    incidence = np.zeros((len(gens), surface.n_surface_points()), dtype=np.int64)
    np.put_along_axis(incidence, gens, 1, axis=1)
    assert (incidence.sum(axis=0) == q + 1).all()
    shared = incidence @ incidence.T
    np.fill_diagonal(shared, 0)
    assert shared.max() == 1
    triangles = np.trace(shared @ shared @ shared) // 6
    assert triangles == surface.n_surface_points() * (q + 1) * q * (q - 1) // 6


def test_seven_generators_at_q2_cover_the_floor_term():
    """Exhaustively, every 7 = d(q+1)+1 of the 27 generators at (q, d) =
    (2, 2) cover at least 24 surface points, so at least the generator
    term B = 35 - 12 = 23 of the floor (888,030 subsets)."""
    surface = canonical_surface(2)
    gens = surface.generator_positions()
    masks = np.bitwise_or.reduce(np.left_shift(np.uint64(1), gens.astype(np.uint64)), axis=1)
    unions, last = masks, np.arange(len(gens))  # unions of i-subsets, by their largest index
    for _ in range(6):
        parts = [(unions[last < g] | masks[g], np.full(np.count_nonzero(last < g), g))
                 for g in range(len(gens))]
        unions, last = map(np.concatenate, zip(*parts))
    j, n = 7, 5
    assert len(unions) == 888_030
    assert np.bitwise_count(unions).min() == 24
    assert 24 >= j * n - j * j // 4 == 23


@pytest.mark.parametrize("q, d", [(2, 1), (2, 2), (3, 1)])
def test_full_scan_without_the_floor_is_unchanged(monkeypatch, q, d):
    """A full scan with the J_F floor at 0, where every row's J_F is found,
    reports what the scan with the proved floor reports."""
    surface = canonical_surface(q)
    want = exhaustive_search(surface, d)
    real = theorems._incidence_floor
    monkeypatch.setattr(theorems, "_incidence_floor", lambda q, d: (real(q, d)[0], 0))
    assert _SearchContext(surface, d).floor == 0
    got = exhaustive_search(surface, d)
    assert got.to_json() == want.to_json()
    assert got.argmax_vectors == want.argmax_vectors


def _first_violation(surface, d, bound):
    """(class index, |X|, full |J_F|) of the first class in scan order that
    fails the incidence or Sorensen check with incidence bound ``bound``,
    from combination_values, count_nonzero and all q^2+1 points of every
    generator."""
    f, q = surface.field, surface.q
    top = d * (q + 1)
    rhs = np.array([int((q + 1) * bound(q, d, top - jf)) for jf in range(top + 1)])
    rows = _SearchContext(surface, d).rows
    gens = surface.generator_positions()
    total = class_count(f.order, len(rows))
    for lo in range(0, total, 1 << 14):
        vecs = class_vectors(f, len(rows), np.arange(lo, min(total, lo + (1 << 14))))
        zero = combination_values(f, rows, vecs) == 0
        x = np.count_nonzero(zero, axis=1)
        jf = np.count_nonzero(zero[:, gens].all(axis=2), axis=1)
        bad = (jf > top) | ((q + 1) * x > rhs[np.minimum(jf, top)]) | (x > sorensen_bound(q, d))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return lo + i, int(x[i]), int(jf[i])
    return None


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched bound only through fork")
@pytest.mark.parametrize("shift, at_jf", [(6, None), (7, 1)])
def test_lowered_incidence_bound_is_caught_at_the_first_violating_class(s2, monkeypatch,
                                                                        shift, at_jf):
    """An incidence bound lowered (everywhere, or only at |J_F| = 1) lowers
    the floor's term A, which binds at (2,2) below the generator term B 23:
    the floor follows the table, and the serial and the parallel scan raise at the
    first violating class of a brute-force reference.  With the dip at
    |J_F| = 1 that class has |X| = 13, below the unpatched floor of 19, so
    a floor that ignored the table would hide it."""
    q, d = 2, 2
    top = d * (q + 1)
    real_floor = _SearchContext(s2, d).floor

    def lowered(q, d, delta):
        return incidence_bound(q, d, delta) - (shift if at_jf in (None, top - delta) else 0)

    monkeypatch.setattr(theorems, "incidence_bound", lowered)
    theorems._worker_context.cache_clear()
    assert _SearchContext(s2, d).floor < real_floor
    index, x, jf = _first_violation(s2, d, lowered)
    if at_jf is not None:
        assert x < real_floor
    want = form_to_json(form_from_vector(s2.field, d, class_vectors(s2.field, 10, [index])[0]), q)
    for workers in (1, 2):
        with pytest.raises(FalsificationError) as err:
            exhaustive_search(s2, d, workers=workers)
        assert err.value.witness["form"] == want
        report = err.value.witness["report"]
        assert (report["x_count"], report["delta"]) == (x, top - jf)
        assert report["checks"]["incidence_bound"]["satisfied"] is False
    theorems._worker_context.cache_clear()


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


class _ScriptedRandom(random.Random):
    """A Random whose randrange calls return a script's values first."""

    def __init__(self, seed, script=()):
        self.script = list(script)
        super().__init__(seed)

    def randrange(self, *args):
        return self.script.pop(0) if self.script else super().randrange(*args)


@pytest.mark.parametrize("d", [3, 4])
def test_random_search_skips_what_division_by_h_accepts(s2, monkeypatch, d):
    """Scripted uniform draws put multiples of H into a random search: at
    (2,3) H, 2 H and H again (samples 0, 2 and 4; sample 1 is a secant
    pencil, which calls no randrange, and sample 3 is x0^3), at (2,4) H x1.
    The skip count is the number of draws that division by H accepts,
    duplicates included, and the examined count is the number of distinct
    other draws, normalized one Form at a time."""
    f, herm = s2.field, surface_form(s2)
    if d == 3:
        multiples = {0: herm, 2: herm.scale(2), 4: herm}
        script = [*herm.coefficient_vector(), *herm.scale(2).coefficient_vector(),
                  *[1, 0, 0, 0] * 3, *herm.coefficient_vector()]
    else:
        multiples = {0: herm * linear_form(f, (0, 1, 0, 0))}
        script = multiples[0].coefficient_vector()
    monkeypatch.setattr(theorems, "Random", lambda seed: _ScriptedRandom(seed, script))
    drawn = []

    def spy(field, rows):
        drawn.extend(rows.tolist())
        return _normalized(field, rows)

    monkeypatch.setattr(theorems, "_normalized", spy)
    res = random_search(s2, d, 400, seed=5)
    assert all(drawn[i] == list(g.coefficient_vector()) for i, g in multiples.items())
    skipped, kept = 0, set()
    for vec in drawn:
        form = form_from_vector(f, d, vec).normalized()
        if hermitian_multiple_by_division(form, s2):
            skipped += 1
        else:
            kept.add(form.coefficient_vector())
    assert res.skipped_hermitian_multiples == skipped >= len(multiples)
    assert res.examined == len(kept)
    assert len(drawn) == 400
    lone = random_search(s2, d, 1, seed=5)  # one multiple of H leaves nothing to scan
    assert (lone.skipped_hermitian_multiples, lone.examined, lone.max_count) == (1, 0, -1)


def test_random_search_refuses_a_low_degree_form_that_vanishes_on_the_surface(s2, monkeypatch):
    """By (a) of the forms docstring no form of degree d <= q vanishes at
    every surface point, so a doctored all-zero evaluation at (2,2) raises."""
    monkeypatch.setattr(theorems, "combination_values",
                        lambda field, rows, coeffs: np.zeros((len(coeffs), rows.shape[1]), np.int16))
    with pytest.raises(InternalConsistencyError, match="vanishes on the surface"):
        random_search(s2, 2, 10, 0)


def test_random_search_refuses_a_matrix_over_its_limit(monkeypatch):
    """q=8, d=64 asks for a 47,905 x 33,345 monomial matrix (3.2 GB): refused
    before the matrix or the generators are built."""
    surface = canonical_surface(8)

    def refuse(*args):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(theorems, "monomial_matrix", refuse)
    monkeypatch.setattr(surface, "generator_positions", refuse)
    start = time.monotonic()
    with pytest.raises(BudgetExceededError):
        random_search(surface, 64, 1, 0)
    assert time.monotonic() - start < 1.0


def test_falsification_machinery(s2):
    """Feed the block checker an impossible count; it must raise with a witness."""
    ctx = _SearchContext(s2, 1)
    coeffs = np.array([[1, 0, 0, 0]], dtype=np.int16)
    x_counts = np.array([44], dtype=np.int64)  # absurd for a plane
    jf_counts = np.array([0], dtype=np.int64)
    with pytest.raises(FalsificationError) as err:
        ctx.check_block(x_counts, jf_counts, coeffs.__getitem__)
    assert "form" in err.value.witness


def test_search_result_serialization(s2):
    res = exhaustive_search(s2, 1)
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
        assert br.ok, (vec, violations(br))
        assert rep.x_count <= sorensen_bound(4, 2)


def test_random_search_at_q8_reads_sections_from_generator_rows():
    """search --q 8 --d 2 --mode random --samples 200 peaks below 200 MB in a
    fresh interpreter (a table of every tangent section took 647 MB).  A
    wrapper runs it, so RUSAGE_CHILDREN holds its peak alone."""
    wrapper = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True,"
               " stdout=subprocess.DEVNULL); print(resource.getrusage(resource.RUSAGE_CHILDREN)"
               ".ru_maxrss)")
    argv = ["search", "--q", "8", "--d", "2", "--mode", "random", "--samples", "200"]
    env = dict(os.environ, PYTHONPATH=str(Path(theorems.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", wrapper, sys.executable, "-m", "hermsurf.cli",
                          *argv], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 200 * 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.parametrize("q, seed", [(2, 1), (3, 0), (4, 3)])
def test_secant_pencil_factors_match_a_line_oracle(q, seed):
    """Drawing from tangent sections gives the factors, and leaves the rng
    state, of drawing secants by line_between_ids and their books."""
    f = build_field(q)
    rng = random.Random(seed)
    while True:
        a = random_hermitian(f, rng)
        if matrix_rank(f, [list(r) for r in a]) == 4:
            break
    for s in (canonical_surface(q), HermitianSurface(f, a)):
        ids = s.point_ids.tolist()
        for draw in range(20):
            fast, slow = random.Random(draw), random.Random(draw)
            got = theorems._random_secant_pencil_factors(s, fast, 3)
            while True:
                line = s.geometry.line_between_ids(*slow.sample(ids, 2))
                if s.classify_line(line).kind is LineKind.SECANT:
                    break
            planes = tangent_planes_through(s, line)
            assert got == [linear_form(f, slow.choice(planes)) for _ in range(3)]
            assert fast.getstate() == slow.getstate()
