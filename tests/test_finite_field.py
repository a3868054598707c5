import ast
import hashlib
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

from hermsurf import finite_field
from hermsurf.finite_field import (
    Field,
    FieldError,
    build_field,
    matrix_rank,
    nullspace,
    rref,
    _poly_rem,
    _prime_power,
)
from helpers import field_describe, index_of_vector, vector_of

# Beyond q = 5 the definitions are checked on these q, sampled where the
# field is large.
LARGE_QS = [7, 8, 9, 16, 27, 32]


def sample(field, n, seed):
    """Every element of a field of at most n elements, else n random ones."""
    if field.order <= n:
        return range(field.order)
    rng = random.Random(seed)
    return [rng.randrange(field.order) for _ in range(n)]


def poly_mul_mod(field, a, b):
    """Independent product: multiply vector representations mod modulus."""
    p = field.p
    va, vb = vector_of(field, a), vector_of(field, b)
    prod = [0] * (len(va) + len(vb) - 1)
    for i, x in enumerate(va):
        for j, y in enumerate(vb):
            prod[i + j] = (prod[i + j] + x * y) % p
    rem = _poly_rem(prod, list(field.modulus), p)
    return index_of_vector(field, tuple(rem))


# (q, gen_index, modulus, sha256 of the bytes of add_np, mul_np, neg_np,
# conj_np and norm_np and of the trace as int16, in that order) for every
# supported q.  Every report is written in these indices, so any drift in
# the modulus, the generator or a table shows here.
GOLDEN = [
    (2, 2, (1, 1, 1), "a8328b148f5f3a345d2928b7daabe7d76f3b82a4b077576cf173211f352c55b3"),
    (3, 2, (1, 0, 1), "9345a52e10236155c6b71e8acccc36af2203cb2621457bef7a33d6a0e8977189"),
    (4, 2, (1, 0, 0, 1, 1), "0a56d01f468fe3645c13a01cd1677db2ece1b8a7eaf1b23168985fb2afbb182c"),
    (5, 2, (1, 1, 1), "caf22e6774bcc63b68ae10f336e21d852ab4fc8ccf51a3e71de08232c447285a"),
    (7, 2, (1, 0, 1), "d2fc94ac473c95fdd2b91422e53f122dd65dcdd5bff8539307fbc1367c79583d"),
    (8, 2, (1, 0, 0, 0, 0, 1, 1), "49ee5bb382f388376c268a7099ac319d8c8d6b543fd6c218b37905e530727411"),
    (9, 2, (1, 0, 1, 1, 1), "2f5b104c71cdddac9e84ea40bfb22a88849b54321050d5400dd8c4701beaf16f"),
    (11, 2, (1, 0, 1), "2557a5ab093fed2f5b3ddd0960e3df573a6b1b3c004ce4dc098796c75bfb0c70"),
    (13, 2, (1, 3, 1), "0f1c6a55b6743b4f478e1eeae246499fe96c28bfc99907199c7d75cfabab2bc1"),
    (16, 2, (1, 0, 0, 0, 1, 1, 0, 1, 1), "8295f48b9b0367e6f32a9560c275aeef3e00050bd8a7afebf0e33507cb6e9cea"),
    (17, 2, (1, 1, 1), "1c5c51e0fb4fb59b4409e440e53108ea155cd0decc30823886d23f15687f483e"),
    (19, 2, (1, 0, 1), "c556fb130e64a3a8d6f1b4b5dd8e79c41611156d918625552c977c828defbae7"),
    (23, 2, (1, 0, 1), "e29a51cfce4e048d75419d2bd3ca91e42963bf692f64d75e3857014a4043f147"),
    (25, 2, (1, 0, 1, 1, 1), "e2ae734cc1ca2c31036ddf1831024b53ca90a646c0e1e7acd467cc7e0e0f979b"),
    (27, 2, (1, 0, 0, 0, 1, 1, 1), "0d92a3c9e735b39397cc8e86a5d3dc7f2099b0c35fba1ef0c233bf509456c864"),
    (29, 2, (1, 1, 1), "8ccd25073d3e5a6a8268d3c20407a4eaa5806a4e735c98b5962540a48ae9d51c"),
    (31, 2, (1, 0, 1), "402da2b176169bde3e05f6d902c9c6309fb4b5ef12675cc77ab84d45659c2df5"),
    (32, 2, (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), "c86cb74625c7ba32e84c770c74360abe4e07c845a7263bfafbc4494059cb9eab"),
]


def test_golden_digests_cover_every_supported_q():
    supported = []
    for q in range(2, 33):
        try:
            _prime_power(q)
        except FieldError:
            continue
        supported.append(q)
    assert [g[0] for g in GOLDEN] == supported


@pytest.mark.parametrize("q,gen_index,modulus,digest", GOLDEN, ids=[str(g[0]) for g in GOLDEN])
def test_tables_match_golden_digests(q, gen_index, modulus, digest):
    f = Field(q)
    trace = np.array([f.trace(a) for a in range(f.order)], dtype=np.int16)
    h = hashlib.sha256()
    for table in (f.add_np, f.mul_np, f.neg_np, f.conj_np, f.norm_np, trace):
        h.update(table.tobytes())
    assert (f.gen_index, f.modulus, h.hexdigest()) == (gen_index, modulus, digest)


@pytest.mark.parametrize("q", [2, 3, 4, 5, *LARGE_QS])
def test_add_neg_match_digit_sums(q):
    f = build_field(q)
    elems = sample(f, 150, q)
    for a in elems:
        va = vector_of(f, a)
        assert vector_of(f, f.neg(a)) == tuple(-x % f.p for x in va)
        for b in elems:
            digit_sum = tuple((x + y) % f.p for x, y in zip(va, vector_of(f, b)))
            assert vector_of(f, f.add(a, b)) == digit_sum


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


@pytest.mark.parametrize("q", [2, 3, 4, 5, *LARGE_QS])
def test_conjugation_norm_trace(q):
    """conj, norm and trace against repeated multiplication."""
    f = build_field(q)
    sub = set(f.subfield_indices())
    for a in sample(f, 200, q):
        conj = 1
        for _ in range(q):
            conj = f.mul(conj, a)
        assert f.conj(a) == conj
        assert f.conj(conj) == a
        assert f.norm(a) == f.mul(conj, a)
        assert f.trace(a) == f.add(a, conj)
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
    """pow against repeated multiplication and inversion, and at zero."""
    for q in (3, *LARGE_QS):
        f = build_field(q)
        for a in sample(f, 40, q):
            if a == 0:
                continue
            acc = 1
            for e in range(12):
                assert f.pow(a, e) == acc
                assert f.pow(a, -e) == f.inv(acc)
                acc = f.mul(acc, a)
            assert f.mul(a, f.inv(a)) == 1
        assert f.pow(0, 0) == 1
        assert f.pow(0, 5) == 0
        assert f.pow(0, f.order) == 0
        with pytest.raises(ZeroDivisionError):
            f.pow(0, -1)


def test_division_errors():
    f = build_field(2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)


def test_describe_serialization():
    f = build_field(3)
    assert field_describe(f) == {"p": 3, "k": 1, "q": 3, "modulus": [1, 0, 1]}


def test_vector_index_roundtrip():
    for q in (2, 3, 4, *LARGE_QS):
        f = build_field(q)
        for a in range(f.order):
            assert index_of_vector(f, vector_of(f, a)) == a


def test_numpy_tables_match_scalar_ops():
    f = build_field(3)
    for a in range(f.order):
        for b in range(f.order):
            assert int(f.add_np[a, b]) == f.add(a, b)
            assert int(f.mul_np[a, b]) == f.mul(a, b)
        assert int(f.conj_np[a]) == f.conj(a)
        assert int(f.norm_np[a]) == f.norm(a)
        assert int(f.neg_np[a]) == f.neg(a)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3, 4, 8, 16, 32]),
       dtypes=st.tuples(*[st.sampled_from([np.int16, np.int32, np.int64])] * 2))
def test_vadd_vmul_match_scalar_ops(data, q, dtypes):
    """vadd and vmul equal the scalar add and mul elementwise on index
    arrays broadcast against each other; at q = 16 and 32, q^4 > 2^15 and
    the flat index a q^2 + b is int32."""
    f = build_field(q)
    shapes = data.draw(mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=5))
    a, b = (data.draw(arrays(dt, shape, elements=st.integers(0, f.order - 1)))
            for dt, shape in zip(dtypes, shapes.input_shapes))
    for got, op in ((f.vadd(a, b), f.add), (f.vmul(a, b), f.mul)):
        assert got.shape == shapes.result_shape
        want = [op(x, y) for x, y in zip(*(np.broadcast_to(v, got.shape).ravel().tolist()
                                            for v in (a, b)))]
        assert got.ravel().tolist() == want
    x, y = (int(v.flat[0]) if v.size else 0 for v in (a, b))
    assert (int(f.vadd(x, y)), int(f.vmul(x, y))) == (f.add(x, y), f.mul(x, y))


@pytest.mark.parametrize("q", [4, 32])
@pytest.mark.parametrize("order", ["C", "F"])
def test_chunked_vadd_vmul_match_the_tables(q, order):
    """Lookups larger than one np.take chunk, on C- and Fortran-ordered
    operands, give the tables' entries in the operands' shape."""
    f = build_field(q)
    rng = np.random.default_rng(q)
    a = np.asarray(rng.integers(0, f.order, (300, 500)), dtype=np.int16, order=order)
    b = rng.integers(0, f.order, 500).astype(np.int16)
    assert a.size > finite_field._TAKE_CHUNK
    assert (f.vadd(a, b) == f.add_np[a, b]).all()
    assert (f.vmul(a, b) == f.mul_np[a, b]).all()
    assert (f.vmul(b, a) == f.mul_np[b, a]).all()


def test_array_arithmetic_has_one_idiom():
    """Outside Field.__init__, no module of the package reads add_np or
    mul_np at two index arguments, or binds either table to a name: array
    sums and products go through vadd and vmul."""
    tables = ("add_np", "mul_np")
    found = []
    for path in sorted(Path(finite_field.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Field":
                allowed |= {id(n) for fn in cls.body if isinstance(fn, ast.FunctionDef)
                            and fn.name == "__init__" for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            lookup = (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                      and node.value.attr in tables and isinstance(node.slice, ast.Tuple)
                      and len(node.slice.elts) >= 2)
            value = getattr(node, "value", None) if isinstance(
                node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) else None
            alias = any(isinstance(n, ast.Attribute) and n.attr in tables
                        for n in (value.elts if isinstance(value, ast.Tuple) else [value]))
            if lookup or alias:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


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
