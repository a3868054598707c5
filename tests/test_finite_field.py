import itertools
import random

import pytest

from hermsurf.finite_field import (
    Field,
    FieldError,
    build_field,
    matrix_rank,
    nullspace,
    rref,
    _poly_rem,
)


def poly_mul_mod(field, a, b):
    """Independent product: multiply vector representations mod modulus."""
    p = field.p
    va, vb = field.vector_of(a), field.vector_of(b)
    prod = [0] * (len(va) + len(vb) - 1)
    for i, x in enumerate(va):
        for j, y in enumerate(vb):
            prod[i + j] = (prod[i + j] + x * y) % p
    rem = _poly_rem(prod, list(field.modulus), p)
    return field.index_of_vector(tuple(rem))


def test_moduli_are_deterministic_and_minimal():
    assert build_field(2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert build_field(3).modulus == (1, 0, 1)  # x^2 + 1
    assert build_field(2) is build_field(2)


def test_bad_parameters():
    with pytest.raises(FieldError):
        build_field(6)
    with pytest.raises(FieldError):
        build_field(12)
    with pytest.raises(FieldError):
        Field(37)  # prime, but 37^2 > 1024
    with pytest.raises(FieldError):
        build_field(1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_field_axioms_exhaustive(q):
    f = build_field(q)
    elems = range(f.order)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    if f.order <= 16:
        triples = itertools.product(elems, repeat=3)
    else:
        rng = random.Random(1)
        triples = [tuple(rng.randrange(f.order) for _ in range(3)) for _ in range(2000)]
    for a, b, c in triples:
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_mul_matches_polynomial_arithmetic(q):
    f = build_field(q)
    if f.order <= 81:
        pairs = itertools.product(range(f.order), repeat=2)
    else:
        rng = random.Random(2)
        pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(100_000)]
    for a, b in pairs:
        assert f.mul(a, b) == poly_mul_mod(f, a, b)


def test_sampled_poly_agreement_large_field():
    f = build_field(16)
    rng = random.Random(3)
    for _ in range(100_000):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.mul(a, b) == poly_mul_mod(f, a, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_frobenius_fixed_points_and_orders(q):
    f = build_field(q)
    for a in range(f.order):
        assert f.pow(a, f.order) == a  # a^(q^2) = a
    fixed = [a for a in range(f.order) if f.pow(a, q) == a]
    assert fixed == list(f.subfield_indices())
    assert len(fixed) == q


def test_f4_generator_relations():
    f = build_field(2)
    w = f.gen_index
    w2 = f.mul(w, w)
    assert f.mul(w, w2) == 1  # w^3 = 1
    assert f.conj(w) == w2
    assert f.norm(w) == 1


def test_f9_multiplicative_group():
    f = build_field(3)
    for a in range(1, 9):
        assert f.pow(a, 8) == 1
    # norm is onto the subfield, each nonzero value hit q+1 = 4 times
    sub = f.subfield_indices()
    hits = {v: 0 for v in sub if v != 0}
    for a in range(1, 9):
        assert f.norm(a) in hits
        hits[f.norm(a)] += 1
    assert all(n == 4 for n in hits.values())


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_conjugation_norm_trace(q):
    f = build_field(q)
    sub = set(f.subfield_indices())
    for a in range(f.order):
        assert f.conj(f.conj(a)) == a
        assert f.conj(a) == f.pow(a, q)
        assert f.norm(a) == f.pow(a, q + 1)
        assert f.trace(a) == f.add(a, f.conj(a))
        assert f.norm(a) in sub
        assert f.trace(a) in sub


@pytest.mark.parametrize("q", [2, 3, 4])
def test_subfield_is_closed(q):
    f = build_field(q)
    sub = f.subfield_indices()
    assert 0 in sub and 1 in sub
    assert len(sub) == q
    subset = set(sub)
    for a in sub:
        for b in sub:
            assert f.add(a, b) in subset
            assert f.mul(a, b) in subset


def test_pow_square_and_multiply():
    f = build_field(3)
    for a in range(1, f.order):
        acc = 1
        for e in range(12):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
        assert f.pow(a, -1) == f.inv(a)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0


def test_division_errors():
    f = build_field(2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)


def test_describe_serialization():
    f = build_field(3)
    assert f.describe() == {"p": 3, "k": 1, "q": 3, "modulus": [1, 0, 1]}


def test_vector_index_roundtrip():
    for q in (2, 3, 4):
        f = build_field(q)
        for a in range(f.order):
            assert f.index_of_vector(f.vector_of(a)) == a


def test_numpy_tables_match_scalar_ops():
    f = build_field(3)
    for a in range(f.order):
        for b in range(f.order):
            assert int(f.add_np[a, b]) == f.add(a, b)
            assert int(f.mul_np[a, b]) == f.mul(a, b)
        assert int(f.conj_np[a]) == f.conj(a)
        assert int(f.norm_np[a]) == f.norm(a)
        assert int(f.neg_np[a]) == f.neg(a)


# ----------------------------------------------------------------------
# linear algebra helpers
# ----------------------------------------------------------------------

def test_rref_and_rank():
    f = build_field(2)
    ident = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert matrix_rank(f, ident) == 4
    assert rref(f, ident)[0] == ident
    rows = [[1, 2, 0, 0], [2, 3, 0, 0]]
    r = matrix_rank(f, rows)
    assert r in (1, 2)


def test_nullspace_orthogonality():
    f = build_field(3)
    rng = random.Random(4)
    for _ in range(50):
        rows = [[rng.randrange(f.order) for _ in range(4)] for _ in range(2)]
        if not any(any(r) for r in rows):
            continue
        ns = nullspace(f, rows)
        assert len(ns) == 4 - matrix_rank(f, rows)
        for v in ns:
            for row in rows:
                s = 0
                for x, y in zip(row, v):
                    s = f.add(s, f.mul(x, y))
                assert s == 0
