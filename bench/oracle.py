"""Independent arithmetic and closed forms that the benchmark checks hermsurf against.

Nothing in this module imports hermsurf.  GF(q^2) is rebuilt from the
index convention that ``hermsurf.finite_field`` documents:

    * the modulus is the first monic polynomial of degree 2k over GF(p)
      (q = p^k), in itertools.product order of its coefficients from the
      constant term up, whose quotient ring is a field;
    * g is the first element of that ring, in the same coefficient order,
      of multiplicative order q^2 - 1;
    * index 0 is zero and index i >= 1 is g^(i-1).

The construction differs from hermsurf's on purpose: a candidate modulus
is accepted when its quotient ring has an element of order q^2 - 1 (a
finite ring with that many units is a field), not by trial division, and
evaluation works on discrete logarithms instead of multiplication tables.

The module also builds the ``check`` corpus (forms as exponent -> index
dicts) and holds the closed-form counts of the surface's geometry.
"""

from __future__ import annotations

import itertools
import math
from random import Random

import numpy as np


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with p prime and p^k = q."""
    for p in range(2, q + 1):
        if q % p == 0:
            k, n = 0, q
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a prime power")


def _mulmod(a, b, mod, p):
    """Product of two coefficient tuples modulo a monic polynomial."""
    deg = len(mod) - 1
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(deg + 1):
                prod[i - deg + j] -= c * mod[j]
    return tuple(c % p for c in prod[:deg])


def _order(v, mod, p, limit):
    """Multiplicative order of v, or 0 when v is not a unit of order <= limit."""
    one = (1,) + (0,) * (len(v) - 1)
    w = v
    for n in range(1, limit + 1):
        if w == one:
            return n
        w = _mulmod(w, v, mod, p)
    return 0


class GF:
    """GF(q^2) on element indices, with numpy log tables for evaluation."""

    def __init__(self, q: int):
        p, k = prime_power(q)
        self.q, self.p, self.order = q, p, q * q
        deg = 2 * k
        units = self.order - 1
        vectors = [v for v in itertools.product(range(p), repeat=deg) if any(v)]
        for tail in itertools.product(range(p), repeat=deg):
            mod = tail + (1,)
            gen = next((v for v in vectors if _order(v, mod, p, units) == units), None)
            if gen is not None:
                break
        self.modulus, self.gen = mod, gen
        vecs = [(0,) * deg]
        v = (1,) + (0,) * (deg - 1)
        for _ in range(units):
            vecs.append(v)
            v = _mulmod(v, gen, mod, p)
        self.vecs = vecs
        index = {vec: i for i, vec in enumerate(vecs)}
        self.add_table = np.array(
            [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in vecs] for a in vecs],
            dtype=np.int64,
        )

    # scalar arithmetic on indices
    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return (a + b - 2) % (self.order - 1) + 1

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return (a - 1) * e % (self.order - 1) + 1

    def conj(self, a: int) -> int:
        return self.pow(a, self.q)

    def subfield(self) -> list[int]:
        return [a for a in range(self.order) if self.conj(a) == a]

    # vectorized evaluation
    def evaluate(self, terms, pts: np.ndarray) -> np.ndarray:
        """Values of sum c * x^e at an (N, 4) array of point indices."""
        units = self.order - 1
        zero = pts == 0
        logs = np.where(zero, 0, pts - 1)
        acc = np.zeros(len(pts), dtype=np.int64)
        for exps, c in terms:
            if c == 0:
                continue
            e = np.array(exps)
            vanish = (zero & (e > 0)).any(axis=1)
            value = ((c - 1) + logs @ e) % units + 1
            acc = self.add_table[acc, np.where(vanish, 0, value)]
        return acc

    def hermitian_pairing(self, pts: np.ndarray, other) -> np.ndarray:
        """sum x_i * conj(other_i) for every row x of pts."""
        return self.evaluate([(tuple(int(i == j) for j in range(4)), self.conj(o))
                              for i, o in enumerate(other) if o], pts)


def projective_points(field: GF) -> np.ndarray:
    """Every point of PG(3, q^2) with first nonzero coordinate 1, as (N, 4)."""
    rows = []
    for lead in range(4):
        for tail in itertools.product(range(field.order), repeat=3 - lead):
            rows.append((0,) * lead + (1,) + tail)
    return np.array(rows, dtype=np.int64)


def hermitian_terms(q: int, scale: int = 1):
    """x0^(q+1) + x1^(q+1) + x2^(q+1) + x3^(q+1), times a scalar."""
    return [(tuple(q + 1 if i == j else 0 for j in range(4)), scale) for i in range(4)]


def surface_points(field: GF) -> np.ndarray:
    """Rational points of the canonical Hermitian surface, as (N, 4)."""
    pts = projective_points(field)
    return pts[field.evaluate(hermitian_terms(field.q), pts) == 0]


def x_count(field: GF, surface: np.ndarray, terms) -> int:
    """|V(F) n V2(GF(q^2))| by direct evaluation."""
    return int((field.evaluate(terms, surface) == 0).sum())


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def n_surface_points(q: int) -> int:
    return (q**3 + 1) * (q**2 + 1)


def n_generators(q: int) -> int:
    return (q**3 + 1) * (q + 1)


def n_lines(q: int) -> int:
    return (q**4 + 1) * (q**4 + q**2 + 1)


def n_tangent_lines(q: int) -> int:
    """Each point has q^2 + 1 lines through it in its tangent plane; q + 1 are generators."""
    return n_surface_points(q) * (q**2 - q)


def n_planes(q: int) -> int:
    return class_count(q * q, 4)


def class_count(order: int, m: int) -> int:
    return (order**m - 1) // (order - 1)


def monomial_count(d: int) -> int:
    return math.comb(d + 3, 3)


def sorensen(q: int, d: int) -> int:
    return d * (q**3 + q**2 - q) + q + 1


def secant_tangent_pairs(q: int) -> int:
    """Pairs of tangent planes meeting in a secant: all pairs of surface
    points minus the pairs on a common generator."""
    return math.comb(n_surface_points(q), 2) - n_generators(q) * math.comb(q**2 + 1, 2)


def census_values(q: int) -> dict:
    """The closed form of each numeric ``verify-counts`` check."""
    return {
        "surface_point_count": n_surface_points(q),
        "generator_count": n_generators(q),
        "tangent_plane_count": n_surface_points(q),
        "line_total": n_lines(q),
        "trichotomy_generator_count": n_generators(q),
        "trichotomy_tangent_count": n_tangent_lines(q),
    }


# ----------------------------------------------------------------------
# forms and the check corpus
# ----------------------------------------------------------------------

def monomials(d: int):
    return [e for e in itertools.product(range(d + 1), repeat=4) if sum(e) == d]


def multiply(field: GF, a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = field.add(out.get(e, 0), field.mul(ca, cb))
    return {e: c for e, c in out.items() if c}


def linear(coeffs) -> dict:
    return {tuple(int(i == j) for j in range(4)): c for i, c in enumerate(coeffs) if c}


def random_form(field: GF, rng: Random, d: int) -> dict:
    while True:
        form = {e: rng.randrange(field.order) for e in monomials(d)}
        form = {e: c for e, c in form.items() if c}
        if form:
            return form


def tangent_plane(field: GF, point) -> dict:
    """The polar plane sum conj(P_i) x_i of a point of the canonical surface."""
    return linear([field.conj(int(c)) for c in point])


def secant_polar_points(field: GF, surface: np.ndarray, rng: Random) -> np.ndarray:
    """The q + 1 surface points on the polar of a seeded secant line.

    Two surface points P, Q span a secant iff h(P, Q) != 0; the tangent
    planes containing that secant are the polar planes of the surface
    points on its polar line {h(X, P) = h(X, Q) = 0}.
    """
    while True:
        i, j = rng.sample(range(len(surface)), 2)
        P, Q = surface[i], surface[j]
        if field.hermitian_pairing(P[None, :], Q)[0]:
            break
    on = (field.hermitian_pairing(surface, P) == 0) & (field.hermitian_pairing(surface, Q) == 0)
    polar = surface[on]
    if len(polar) != field.q + 1:
        raise ArithmeticError(f"polar of a secant met the surface in {len(polar)} points")
    return polar


def product(field: GF, factors) -> dict:
    form = factors[0]
    for g in factors[1:]:
        form = multiply(field, form, g)
    return form


def check_corpus(field: GF, surface: np.ndarray, seed: int, per_degree: int = 4) -> list[dict]:
    """The seeded ``check`` corpus: a list of {kind, d, form, expect}.

    ``expect`` holds what the mathematics forces for the kind; the x count
    of every form is added by the caller from ``x_count``.
    """
    q = field.q
    rng = Random(seed)
    corpus = []

    def add(kind, form, **expect):
        d = sum(next(iter(form)))
        corpus.append({"kind": kind, "d": d, "form": form, "expect": expect})

    for d in range(1, q + 2):
        for _ in range(2 * per_degree):
            add("uniform", random_form(field, rng, d))
    for d in range(1, q + 2):
        for _ in range(per_degree):
            polar = secant_polar_points(field, surface, rng)
            chosen = rng.sample(range(q + 1), d)
            form = product(field, [tangent_plane(field, polar[i]) for i in chosen])
            add("pencil", form, x_count=sorensen(q, d), jf_count=d * (q + 1),
                tangent_plane_union=True)
    for alpha in field.subfield():
        if alpha in (0, 1):
            continue
        form = {e: c for e, c in hermitian_terms(q)}
        form[(q + 1, 0, 0, 0)] = form[(0, q + 1, 0, 0)] = alpha
        add("grid", form, x_count=sorensen(q, q + 1), jf_count=(q + 1) ** 2,
            tangent_plane_union=False)
    for d in range(1, q + 2):
        for _ in range(per_degree):
            chosen = rng.sample(range(len(surface)), d)
            form = product(field, [tangent_plane(field, surface[i]) for i in chosen])
            add("tangent_product", form, tangent_plane_union=True)
    for d in range(2, q + 2):
        for _ in range(per_degree):
            plane = tangent_plane(field, surface[rng.randrange(len(surface))])
            add("tangent_times_form", multiply(field, plane, random_form(field, rng, d - 1)),
                contains_tangent_plane=True)
    # V(F) contains every surface point, so hermsurf tries each tangent plane
    # symbolically until one lies in V(F).  The linear factor has no zero
    # coefficient and is no tangent plane, so that this work is the same
    # for every seed.
    herm = dict(hermitian_terms(q, rng.randrange(1, field.order)))
    add("hermitian_multiple", herm, hermitian_multiple=True, x_count=n_surface_points(q))
    while True:
        coeffs = [rng.randrange(1, field.order) for _ in range(4)]
        if x_count(field, surface, list(linear(coeffs).items())) == q**3 + 1:
            break
    add("hermitian_multiple", multiply(field, herm, linear(coeffs)),
        hermitian_multiple=True, x_count=n_surface_points(q))
    return corpus


def form_json(q: int, form: dict) -> dict:
    d = sum(next(iter(form)))
    return {"q": q, "d": d, "terms": [[list(e), c] for e, c in sorted(form.items(), reverse=True)]}
