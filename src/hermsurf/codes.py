"""Evaluation codes on the rational points of a Hermitian surface.

The degree-d code has length n = (q^3+1)(q^2+1): a codeword is the value
vector of a degree-d form at the surface points, taken in the surface's
deterministic point enumeration order.  Its weight is n - |X(F)| for
X(F) = V(F) n V2, so the minimum distance is n minus the maximum number
of rational points a degree-d section can have.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from hermsurf.finite_field import Field, rref
from hermsurf.forms import class_count, class_zero_blocks, monomial_matrix
from hermsurf.hermitian import HermitianSurface
from hermsurf.theorems import BudgetExceededError, sorensen_bound


@dataclass
class EvaluationCode:
    field: Field
    q: int
    d: int
    n: int
    matrix: np.ndarray  # (M, n) monomial evaluations
    k: int
    basis: np.ndarray  # (k, n) row-reduced basis of the row space

    def __repr__(self):
        return f"EvaluationCode(q={self.q}, d={self.d}, n={self.n}, k={self.k})"


def build_code(surface: HermitianSurface, d: int) -> EvaluationCode:
    """Generator matrix of monomial evaluations, plus its rank."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    matrix = monomial_matrix(surface.field, d, surface.arr)
    rows, pivots = rref(surface.field, matrix.tolist())
    basis = np.array(rows[: len(pivots)], dtype=np.int16)
    return EvaluationCode(
        field=surface.field,
        q=surface.q,
        d=d,
        n=len(surface.point_ids),
        matrix=matrix,
        k=len(basis),
        basis=basis,
    )


def min_distance_enumerate(code: EvaluationCode, *, budget: int = 10_000_000):
    """(minimum Hamming weight over the nonzero codewords, the code's
    weight distribution as a Counter).

    Enumerates one representative per scalar class ((q^2)^k <= budget
    required); weights are scalar invariant, so each class contributes
    q^2-1 codewords of its weight, plus the zero word.
    """
    order = code.field.order
    if order**code.k > budget:
        raise BudgetExceededError(
            f"{order**code.k} codewords exceed the budget {budget}"
        )
    dist = np.zeros(code.n + 1, dtype=np.int64)
    for _, _, zero in class_zero_blocks(code.field, code.basis, 0, class_count(order, code.k)):
        dist += np.bincount(code.n - np.count_nonzero(zero, axis=1), minlength=code.n + 1)
    if dist[0]:
        raise RuntimeError("independent basis rows produced a zero codeword")
    weights = Counter({0: 1})
    for w in np.flatnonzero(dist):
        weights[int(w)] += int(dist[w]) * (order - 1)
    return min(w for w in weights if w), weights


def min_distance_geometric(q: int, d: int) -> int:
    """n minus the maximum section size d(q^3+q^2-q)+q+1.

    Proved for 1 <= d <= q; at d = q+1 the same value holds conditionally
    on excluding multiples of the surface equation.
    """
    if not 1 <= d <= q + 1:
        raise ValueError(f"d must be in 1..q+1, got {d}")
    n = (q**3 + 1) * (q**2 + 1)
    return n - sorensen_bound(q, d)


def code_report(surface: HermitianSurface, d: int, *, budget: int = 10_000_000) -> dict:
    """JSON-ready record {q, d, n, k, d_min_enumerated, d_min_geometric,
    weight_distribution}; the enumerated entries are None over budget."""
    code = build_code(surface, d)
    report = {
        "q": code.q,
        "d": code.d,
        "n": code.n,
        "k": code.k,
        "d_min_geometric": min_distance_geometric(code.q, d) if d <= code.q + 1 else None,
        "d_min_geometric_conditional": d == code.q + 1,
    }
    try:
        d_min, weights = min_distance_enumerate(code, budget=budget)
        weights = {str(w): c for w, c in sorted(weights.items())}
    except BudgetExceededError:
        d_min = weights = None
    report["d_min_enumerated"] = d_min
    report["weight_distribution"] = weights
    return report
