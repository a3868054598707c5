"""Evaluation codes on the rational points of a Hermitian surface.

The degree-d code has length n = (q^3+1)(q^2+1): a codeword is the value
vector of a degree-d form at the surface points, taken in the surface's
deterministic point enumeration order.  Its weight is n - |X(F)| for
X(F) = V(F) n V2, so the minimum distance is n minus the maximum number
of rational points a degree-d section can have.  For 1 <= d <= q^2 its
dimension is k = C(d+3,3) - C(d-q+2,3), C(m,3) = 0 for m < 3 (``build_code``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from hermsurf.finite_field import Field
from hermsurf.forms import class_count, class_zero_blocks, monomial_count, monomial_matrix
from hermsurf.forms import require_scan_degree, standard_monomials, zero_counts
from hermsurf.hermitian import HermitianError, HermitianSurface, InternalConsistencyError
from hermsurf.theorems import BudgetExceededError, sorensen_bound


@dataclass
class EvaluationCode:
    field: Field
    q: int
    d: int
    n: int
    k: int
    basis: np.ndarray  # (k, n) evaluations of the standard monomials

    def __repr__(self):
        return f"EvaluationCode(q={self.q}, d={self.d}, n={self.n}, k={self.k})"


def code_dimension(surface: HermitianSurface, d: int) -> int:
    """k = C(d+3,3) - C(d-q+2,3); refuses d outside 1..q^2 and degenerate surfaces."""
    require_scan_degree(surface.q, d)
    if not surface.is_nondegenerate:
        raise HermitianError("the code basis needs a non-degenerate surface")
    return monomial_count(d) - (monomial_count(d - surface.q - 1) if d > surface.q else 0)


def build_code(surface: HermitianSurface, d: int) -> EvaluationCode:
    """The code, with the evaluations of the standard monomials as basis: those not
    divisible by LM(H), the leading monomial of the surface equation H.

    For 1 <= d <= q^2, H divides each degree-d F vanishing on every rational point: each
    generator holds q^2+1 > d zeros of F, so lies in V(F); were the irreducible H no factor
    of F, V(F) n V(H) would be a curve of degree d(q+1) < (q+1)(q^3+1), the generators'
    total degree (Bezout).  So the rows span the code (division by H), and a vanishing
    combination of them is some Q H, of non-standard leading monomial LM(Q) LM(H), so 0."""
    return EvaluationCode(
        field=surface.field,
        q=surface.q,
        d=d,
        n=len(surface.point_ids),
        k=code_dimension(surface, d),
        basis=monomial_matrix(surface.field, d, surface.arr)[standard_monomials(surface, d)],
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
    for _, _, words in class_zero_blocks(code.field, code.basis, 0, class_count(order, code.k)):
        dist += np.bincount(code.n - zero_counts(words), minlength=code.n + 1)
    if dist[0]:
        raise InternalConsistencyError("independent basis rows produced a zero codeword")
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
    weight_distribution}; the enumerated entries are None over budget,
    and then no matrix is built."""
    q, k = surface.q, code_dimension(surface, d)
    d_min = weights = None
    if surface.field.order**k <= budget:
        d_min, weights = min_distance_enumerate(build_code(surface, d), budget=budget)
        weights = {str(w): c for w, c in sorted(weights.items())}
    return {
        "q": q,
        "d": d,
        "n": len(surface.point_ids),
        "k": k,
        "d_min_geometric": min_distance_geometric(q, d) if d <= q + 1 else None,
        "d_min_geometric_conditional": d == q + 1,
        "d_min_enumerated": d_min,
        "weight_distribution": weights,
    }
