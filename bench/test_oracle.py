"""Tests of the benchmark's own calculators against hand-worked small cases.

    python3 -m pytest bench

The cases are worked by hand from the field convention and the geometry
of the Hermitian surface; none of them calls hermsurf.
"""

import math
from random import Random

import numpy as np
import pytest

import oracle


def test_gf4_tables():
    # q = 2: modulus 1 + t + t^2, g = t, so 1, t, t^2 = 1 + t are indices 1, 2, 3
    f = oracle.GF(2)
    assert f.modulus == (1, 1, 1)
    assert f.vecs == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert f.add(2, 3) == 1  # t + (1 + t) = 1
    assert f.add(1, 1) == 0
    assert f.mul(3, 3) == 2  # t^4 = t
    assert f.conj(2) == 3  # t^2
    assert f.subfield() == [0, 1]


def test_gf9_tables():
    # q = 3: 1 + t^2 is the first irreducible; t has order 4, 2t too, 1 + t has order 8
    f = oracle.GF(3)
    assert f.modulus == (1, 0, 1)
    assert f.gen == (1, 1)
    assert f.vecs[2] == (1, 1)
    assert f.vecs[3] == (0, 2)  # (1 + t)^2 = 2t
    assert f.vecs[5] == (2, 0)  # (1 + t)^4 = -1
    assert f.subfield() == [0, 1, 5]  # GF(3) = {0, 1, -1}


def test_gf16_generator_is_first_in_coefficient_order():
    # q = 4: 1 + x^4 = (1 + x)^4 is reducible, 1 + x^3 + x^4 is irreducible and
    # primitive; t^3 (coefficients 0, 0, 0, 1) has order 5, t^2 has order 15
    f = oracle.GF(4)
    assert f.modulus == (1, 0, 0, 1, 1)
    assert f.gen == (0, 0, 1, 0)
    assert len(f.subfield()) == 4


def test_evaluate_by_hand():
    f = oracle.GF(2)
    pts = np.array([[1, 2, 3, 0], [2, 0, 0, 1]])
    # x0*x1 + x2^2 at (1, t, 1+t, 0): t + (1+t)^2 = t + t = 0
    terms = [((1, 1, 0, 0), 1), ((0, 0, 2, 0), 1)]
    assert f.evaluate(terms, pts)[0] == 0
    # at (t, 0, 0, 1): 0 + 0 = 0; and x0^3 = 1 for every nonzero x0
    assert f.evaluate(terms, pts)[1] == 0
    assert list(f.evaluate([((3, 0, 0, 0), 1)], pts)) == [1, 1]
    # t * x3^2 at (t, 0, 0, 1) is t
    assert f.evaluate([((0, 0, 0, 2), 2)], pts)[1] == 2


def test_surface_point_counts():
    for q, n in ((2, 45), (3, 280)):
        f = oracle.GF(q)
        assert len(oracle.projective_points(f)) == oracle.n_planes(q)
        assert len(oracle.surface_points(f)) == n == oracle.n_surface_points(q)
    # (1, 1, 0, 0) lies on the surface in characteristic 2 only
    on = oracle.surface_points(oracle.GF(2)).tolist()
    assert [1, 1, 0, 0] in on
    assert [1, 1, 0, 0] not in oracle.surface_points(oracle.GF(3)).tolist()


def test_plane_sections_at_q2():
    f = oracle.GF(2)
    surface = oracle.surface_points(f)
    # x0 = 0 is no tangent plane (norm sum 1): a Hermitian curve, q^3 + 1 points
    assert oracle.x_count(f, surface, [((1, 0, 0, 0), 1)]) == 9
    # the tangent plane at (1, 1, 0, 0) is x0 + x1: q + 1 generators, q^3 + q^2 + 1 points
    plane = oracle.tangent_plane(f, (1, 1, 0, 0))
    assert plane == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}
    assert oracle.x_count(f, surface, list(plane.items())) == 13


def test_closed_forms():
    assert oracle.n_generators(2) == 27
    assert oracle.n_lines(2) == 357
    assert oracle.n_lines(3) == 7462
    assert oracle.n_tangent_lines(2) == 90  # 357 = 27 + 90 + 240 secants
    assert oracle.n_planes(4) == 4369
    assert oracle.sorensen(2, 2) == 23
    assert oracle.sorensen(3, 3) == 103
    assert oracle.sorensen(3, 4) == 136  # the grid example at q = 3
    assert oracle.class_count(4, 10) == 349525
    assert oracle.monomial_count(2) == 10
    # 240 secants, 3 tangent planes through each, one pair per choice of 2
    assert oracle.secant_tangent_pairs(2) == 240 * math.comb(3, 2) == 720


def test_multiply():
    f = oracle.GF(2)
    # (x0 + x1)^2 = x0^2 + x1^2 in characteristic 2
    square = oracle.multiply(f, oracle.linear([1, 1, 0, 0]), oracle.linear([1, 1, 0, 0]))
    assert square == {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1}


@pytest.mark.parametrize("q", [2, 3])
def test_secant_polar_and_pencils(q):
    f = oracle.GF(q)
    surface = oracle.surface_points(f)
    polar = oracle.secant_polar_points(f, surface, Random(5))
    assert len(polar) == q + 1
    assert (f.evaluate(oracle.hermitian_terms(q), polar) == 0).all()
    for d in range(1, q + 2):
        pencil = oracle.product(f, [oracle.tangent_plane(f, p) for p in polar[:d]])
        assert oracle.x_count(f, surface, list(pencil.items())) == oracle.sorensen(q, d)


def test_corpus_expectations_hold_at_q3():
    f = oracle.GF(3)
    surface = oracle.surface_points(f)
    corpus = oracle.check_corpus(f, surface, seed=7, per_degree=1)
    kinds = {entry["kind"] for entry in corpus}
    assert kinds == {"uniform", "pencil", "grid", "tangent_product", "tangent_times_form",
                     "hermitian_multiple"}
    for entry in corpus:
        assert entry["d"] == sum(next(iter(entry["form"])))
        want = entry["expect"].get("x_count")
        if want is not None:
            assert oracle.x_count(f, surface, list(entry["form"].items())) == want
    assert oracle.check_corpus(f, surface, seed=7, per_degree=1) == corpus
