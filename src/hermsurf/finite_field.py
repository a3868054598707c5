"""Exact arithmetic in GF(q^2) with the conjugation x -> x^q.

Every element is identified by an integer index:

    0             the additive zero
    i in 1..q^2-1 the power g**(i-1) of the canonical generator g

so the index doubles as the serialized form of an element.  Each element
also has a vector representation: a tuple of 2k coefficients over GF(p)
(coefficients of 1, t, t^2, ... modulo the field modulus, q = p^k).  The
bridge between the two encodings is ``vector_of``/``index_of_vector``.

Determinism: the modulus is the lexicographically smallest monic
irreducible polynomial of degree 2k over GF(p) (coefficients compared
from the constant term up) and g is the first primitive element in the
same coefficient order, so repeated builds yield identical tables.

Multiplication, inversion, conjugation and norm are index (discrete log)
arithmetic; addition goes through the vector representation, baked into
a full table at build time.  Every table is built by the constructor and
none is changed or grown afterwards, so fields are immutable once built
and safe to share across workers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

MAX_ORDER = 1024  # largest supported q^2


class FieldError(ValueError):
    """Bad field parameters, or arithmetic mixing different fields."""


def _prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with p prime and q = p**k."""
    if q < 2:
        raise FieldError(f"q must be at least 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    n, k = q, 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise FieldError(f"q = {q} is not a prime power")
    return p, k


# ----------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient lists
# ----------------------------------------------------------------------

def _poly_rem(a: list[int], div: list[int], p: int) -> list[int]:
    """Remainder of a modulo a monic divisor."""
    a = list(a)
    dd = len(div) - 1
    for i in range(len(a) - 1, dd - 1, -1):
        c = a[i] % p
        if c:
            for j, dj in enumerate(div):
                a[i - dd + j] = (a[i - dd + j] - c * dj) % p
    return [c % p for c in a[:dd]]


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, mod, p)


def _is_irreducible(poly: list[int], p: int, half: int) -> bool:
    """Trial division by every monic polynomial of degree 1..half."""
    if poly[0] == 0:
        return False
    for deg in range(1, half + 1):
        for tail in itertools.product(range(p), repeat=deg):
            div = list(tail) + [1]
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


def _smallest_modulus(p: int, deg: int) -> tuple[int, ...]:
    for tail in itertools.product(range(p), repeat=deg):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p, deg // 2):
            return tuple(poly)
    raise FieldError(f"no irreducible polynomial of degree {deg} over GF({p})")


class Field:
    """GF(q^2) with its canonical tables.  Use ``build_field`` to create."""

    def __init__(self, q: int):
        order = q * q
        if q > 0 and order > MAX_ORDER:  # refused before factoring q
            raise FieldError(f"q^2 = {order} exceeds the supported limit {MAX_ORDER}")
        p, k = _prime_power(q)
        self.p = p
        self.k = k
        self.q = q
        self.order = order
        self.modulus = _smallest_modulus(p, 2 * k)

        deg = 2 * k
        mod = list(self.modulus)
        zero = (0,) * deg

        # first primitive element in coefficient order
        gen = None
        for tail in itertools.product(range(p), repeat=deg):
            if tail == zero:
                continue
            v, n = tail, 1
            one = tuple([1] + [0] * (deg - 1))
            while v != one:
                v = tuple(_poly_mulmod(list(v), list(tail), mod, p))
                n += 1
                if n > order:
                    raise FieldError("multiplicative order overflow; modulus not irreducible?")
            if n == order - 1:
                gen = tail
                break
        if gen is None:
            raise FieldError("no primitive element found")

        # index 0 -> zero, index i >= 1 -> gen**(i-1)
        vecs = [zero]
        v = tuple([1] + [0] * (deg - 1))
        for _ in range(order - 1):
            vecs.append(v)
            v = tuple(_poly_mulmod(list(v), list(gen), mod, p))
        self._vecs = tuple(vecs)
        self._vec_index = {vec: i for i, vec in enumerate(vecs)}
        self.gen_index = self._vec_index[gen]

        self._add = [
            [
                self._vec_index[tuple((x + y) % p for x, y in zip(va, vb))]
                for vb in vecs
            ]
            for va in vecs
        ]
        self._neg = [self._vec_index[tuple((-x) % p for x in vec)] for vec in vecs]
        self._conj = [self.pow(a, q) for a in range(order)]
        self._norm = [self.mul(a, self._conj[a]) for a in range(order)]
        self._trace = [self._add[a][self._conj[a]] for a in range(order)]

        # numpy mirrors for vectorized paths
        self.add_np = np.array(self._add, dtype=np.int16)
        idx = np.arange(order)
        a, b = np.meshgrid(idx, idx, indexing="ij")
        nz = (a > 0) & (b > 0)
        self.mul_np = np.where(nz, 1 + (a - 1 + b - 1) % (order - 1), 0).astype(np.int16)
        self.conj_np = np.array(self._conj, dtype=np.int16)
        self.norm_np = np.array(self._norm, dtype=np.int16)
        self.neg_np = np.array(self._neg, dtype=np.int16)

    # -- scalar arithmetic on indices ----------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return 1 + (a - 1 + b - 1) % (self.order - 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 + (self.order - 1 - (a - 1)) % (self.order - 1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply on the integer exponent (negative allowed)."""
        if e < 0:
            a, e = self.inv(a), -e
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def conj(self, a: int) -> int:
        return self._conj[a]

    def norm(self, a: int) -> int:
        return self._norm[a]

    def trace(self, a: int) -> int:
        return self._trace[a]

    # -- structure ------------------------------------------------------

    def subfield_indices(self) -> tuple[int, ...]:
        """Indices of the q elements fixed by conjugation, ascending."""
        return tuple(i for i in range(self.order) if self._conj[i] == i)

    def norm_preimage(self, value: int) -> int:
        """Smallest index c with norm(c) == value (norm is onto the subfield)."""
        for c in range(self.order):
            if self._norm[c] == value:
                return c
        raise FieldError(f"{value} is not a norm value")

    def nonzero_trace_element(self) -> int:
        for c in range(self.order):
            if self._trace[c] != 0:
                return c
        raise FieldError("trace is identically zero")  # impossible

    # -- encodings ------------------------------------------------------

    def vector_of(self, index: int) -> tuple[int, ...]:
        return self._vecs[index]

    def index_of_vector(self, vec) -> int:
        return self._vec_index[tuple(c % self.p for c in vec)]

    def describe(self) -> dict:
        return {"p": self.p, "k": self.k, "q": self.q, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"Field(q={self.q}, order={self.order})"


@lru_cache(maxsize=None)
def build_field(q: int) -> Field:
    """Deterministic GF(q^2) for a prime power q with q^2 <= 1024."""
    return Field(q)


# ----------------------------------------------------------------------
# small dense linear algebra over a field (rows are lists of indices)
# ----------------------------------------------------------------------

def rref(field: Field, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        scale = field.inv(m[r][c])
        m[r] = [field.mul(scale, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def matrix_rank(field: Field, rows) -> int:
    return len(rref(field, rows)[1])


def nullspace(field: Field, rows) -> list[tuple[int, ...]]:
    """Basis of {v : M v = 0}, one vector per free column."""
    m, pivots = rref(field, rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(m[r][fc])
        basis.append(tuple(v))
    return basis
