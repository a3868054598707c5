import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hermsurf.codes import (
    EvaluationCode,
    build_code,
    code_dimension,
    code_report,
    min_distance_enumerate,
    min_distance_geometric,
)
from hermsurf.forms import (
    FormError,
    class_count,
    class_zero_blocks,
    combination_values,
    form_from_vector,
    monomial_count,
    monomial_matrix,
    monomials,
    standard_monomials,
    unpack_bits,
)
from hermsurf.finite_field import build_field, matrix_rank, rref
from hermsurf.hermitian import (
    HermitianError,
    HermitianSurface,
    InternalConsistencyError,
    canonical_surface,
)
from hermsurf.theorems import BudgetExceededError


@pytest.fixture(scope="module")
def s2():
    return canonical_surface(2)


@pytest.fixture(scope="module")
def s3():
    return canonical_surface(3)


def test_dimensions(s2, s3):
    assert build_code(s2, 1).k == 4
    assert build_code(s2, 2).k == 10
    assert build_code(s3, 1).k == 4
    code = build_code(s2, 1)
    assert code.n == 45
    assert code.basis.shape == (4, 45)


# x0 x1^q + x1 x0^q + x2^(q+1) + x3^(q+1): its leading monomial is x0^q x1
_HYPERBOLIC = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@pytest.mark.parametrize("q, top, canonical", [(2, 4, True), (3, 9, True), (2, 4, False)])
def test_dimension_is_the_rank_of_the_monomial_matrix(q, top, canonical):
    """Oracle: rref of every monomial row.  The closed-form k is that rank,
    and at q=2 the standard monomials' rows are k independent rows: stacked
    first above every row, they are the leading pivot columns of the
    transpose, also where LM(H) is not x0^(q+1)."""
    surface = canonical_surface(q) if canonical else HermitianSurface(build_field(q), _HYPERBOLIC)
    f = surface.field
    for d in range(1, top + 1):
        k = math.comb(d + 3, 3) - math.comb(max(d - q + 2, 0), 3)
        rows = monomial_matrix(f, d, surface.arr)
        assert matrix_rank(f, rows.tolist()) == code_dimension(surface, d) == k
        code = build_code(surface, d)
        assert code.k == len(code.basis) == k
        if q == 2:
            pivots = rref(f, np.concatenate([code.basis, rows]).T.tolist())[1]
            assert pivots == list(range(k))


def test_build_code_refuses_degree_and_degenerate_surface(s2):
    with pytest.raises(FormError):
        build_code(s2, 5)
    with pytest.raises(FormError):
        code_report(s2, 0)
    cone = tuple(tuple(int(i == j and i < 3) for j in range(4)) for i in range(4))
    with pytest.raises(HermitianError):
        build_code(HermitianSurface(build_field(2), cone), 1)


def test_columns_follow_point_enumeration(s2):
    code = build_code(s2, 2)
    pts = [s2.geometry.points[int(i)] for i in s2.point_ids]
    f = s2.field
    for j in (0, 7, 44):
        for r, exps in enumerate(monomials(2)):
            val = 1
            for x, e in zip(pts[j], exps):
                val = f.mul(val, f.pow(x, e))
            assert int(code.basis[r, j]) == val


def test_min_distance_small(s2, s3):
    assert min_distance_enumerate(build_code(s2, 1))[0] == 32
    assert min_distance_enumerate(build_code(s3, 1))[0] == 243


def test_geometric_prediction():
    assert min_distance_geometric(2, 1) == 32
    assert min_distance_geometric(2, 2) == 22
    assert min_distance_geometric(3, 2) == 210
    assert min_distance_geometric(3, 1) == 243
    with pytest.raises(ValueError):
        min_distance_geometric(2, 0)
    with pytest.raises(ValueError):
        min_distance_geometric(2, 4)


def test_a_zero_codeword_is_an_internal_inconsistency(s2):
    """A basis that repeats a row has the zero codeword row - row: the
    enumeration raises rather than count it."""
    code = build_code(s2, 1)
    twice = replace(code, k=2, basis=code.basis[[0, 0]])
    with pytest.raises(InternalConsistencyError):
        min_distance_enumerate(twice)


def test_class_count_identity():
    """class_count(Q, M) = Q^(M-k) class_count(Q, k) + class_count(Q, M-k)
    for Q = q^2, M = C(d+3,3) and k from code_dimension, at every prime
    power q <= 8 and 1 <= d <= q^2: the code classes, each lifted to
    Q^(M-k) form classes, and the multiples of H are every form class.
    The standard-monomial mask counts k at q <= 4 (at q = 8 its monomial
    tables would hold about 800,000 exponent tuples)."""
    for q in (2, 3, 4, 5, 7, 8):
        surface, order = canonical_surface(q), q * q
        for d in range(1, q * q + 1):
            m, k = monomial_count(d), code_dimension(surface, d)
            assert 0 < k <= m and (k == m) == (d <= q)
            lifted = order ** (m - k) * class_count(order, k)
            assert class_count(order, m) == lifted + class_count(order, m - k)
            if q <= 4:
                assert int(standard_monomials(surface, d).sum()) == k


def test_budget_guard(s3):
    with pytest.raises(BudgetExceededError):
        min_distance_enumerate(build_code(s3, 2), budget=10_000)


def test_weight_distribution_d1(s2):
    d_min, dist = min_distance_enumerate(build_code(s2, 1))
    assert d_min == 32
    # 45 tangent planes give weight 32, the 40 other planes weight 36,
    # each class counts q^2 - 1 = 3 codewords, plus the zero word
    assert dist == {0: 1, 32: 45 * 3, 36: 40 * 3}
    assert sum(dist.values()) == 4**4


def test_codeword_weight_identity(s2):
    """weight + |X_F| = n for arbitrary coefficient vectors."""
    f = s2.field
    code = build_code(s2, 2)
    rng = random.Random(27)
    surf_pts = s2.geometry.arr[s2.point_ids]
    for _ in range(200):
        vec = [rng.randrange(f.order) for _ in range(monomial_count(2))]
        if not any(vec):
            continue
        coeffs = np.array([vec], dtype=np.int16)
        word = combination_values(f, code.basis, coeffs)[0]
        weight = int((word != 0).sum())
        form = form_from_vector(f, 2, vec)
        x_count = int((form.values_at(surf_pts) == 0).sum())
        assert weight + x_count == code.n


def test_singleton_bound(s2, s3):
    for surface, d in [(s2, 1), (s2, 2), (s3, 1)]:
        code = build_code(surface, d)
        d_min, _ = min_distance_enumerate(code)
        assert code.k + d_min <= code.n + 1


def test_code_report(s2):
    report = code_report(s2, 1)
    assert report == {
        "q": 2,
        "d": 1,
        "n": 45,
        "k": 4,
        "d_min_geometric": 32,
        "d_min_geometric_conditional": False,
        "d_min_enumerated": 32,
        "weight_distribution": {"0": 1, "32": 135, "36": 120},
    }


def test_code_report_budget_fallback(s3):
    report = code_report(s3, 2, budget=1000)
    assert report["d_min_enumerated"] is None
    assert report["d_min_geometric"] == 210


def test_code_report_conditional_at_d_q_plus_1(s2):
    report = code_report(s2, 3, budget=100)
    assert report["d_min_geometric_conditional"] is True
    assert report["d_min_geometric"] == 45 - 33


@pytest.mark.parametrize("q, d", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_search_histogram_is_the_weight_distribution(q, d):
    """With k = M every class of forms is one class of codewords: the
    n - |X| histogram over the search's monomial rows, q^2-1 codewords a
    class plus the zero word, is the enumerated weight distribution."""
    surface = canonical_surface(q)
    code = build_code(surface, d)
    rows = monomial_matrix(surface.field, d, surface.arr)
    m, n = rows.shape
    assert code.k == m
    hist = Counter()
    for _, _, words in class_zero_blocks(surface.field, rows, 0, class_count(q * q, m)):
        hist.update((n - np.count_nonzero(unpack_bits(words, n), axis=1)).tolist())
    weights = Counter({w: c * (q * q - 1) for w, c in hist.items()})
    weights[0] += 1
    assert weights == min_distance_enumerate(code)[1]
