"""Exact arithmetic in GF(q^2) with the conjugation x -> x^q.

Every element is identified by an integer index:

    0             the additive zero
    i in 1..q^2-1 the power g**(i-1) of the canonical generator g

so the index doubles as the serialized form of an element.  Two
encodings derive every table, and no other module rebuilds them:

- digit rows, for sums: ``digits[i]`` holds the 2k GF(p) coefficients of
  element i (of 1, t, t^2, ... modulo the field modulus, q = p^k), and
  ``index_of_code`` maps the base-p code sum_j digits[i, j] p^j back to i;
- index logs, for products: a nonzero index i is 1 + log_g of its element.

Addition and negation are digit-wise mod p; multiplication, inversion,
powers, conjugation and norm are log arithmetic; the trace is x + x^q.
The (q^2, q^2) tables ``add_np`` and ``mul_np`` hold every sum and product;
arrays add and multiply by ``vadd`` and ``vmul``, which ``np.take`` from a
table, read flat, at a q^2 + b.

Determinism: the modulus is the lexicographically smallest monic
irreducible polynomial of degree 2k over GF(p) (coefficients compared
from the constant term up) and g is the first primitive element in the
same coefficient order, so repeated builds yield identical tables.
Every table is built by the constructor and none is changed or grown
afterwards, so fields are immutable once built and safe to share across
workers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

MAX_ORDER = 1024  # largest supported q^2
_TAKE_CHUNK = 1 << 16  # index elements per np.take of vadd/vmul; take copies each to intp


class FieldError(ValueError):
    """Bad field parameters, or arithmetic mixing different fields."""


def _prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, k) with p prime and q = p**k; q^2 > MAX_ORDER is refused first."""
    if q < 2:
        raise FieldError(f"q must be at least 2, got {q}")
    if q * q > MAX_ORDER:
        raise FieldError(f"q^2 = {q * q} exceeds the supported limit {MAX_ORDER}")
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
        p, k = _prime_power(q)
        self.p = p
        self.k = k
        self.q = q
        self.order = order
        self.modulus = _smallest_modulus(p, 2 * k)

        deg = 2 * k
        mod = list(self.modulus)
        one = [1] + [0] * (deg - 1)
        # The first primitive element in coefficient order, skipping zero
        # (the first tuple); the powers collected while finding its order
        # are the digit rows of indices 1..q^2-1.
        for gen in itertools.islice(itertools.product(range(p), repeat=deg), 1, None):
            powers, v = [one], list(gen)
            while v != one and len(powers) < order:
                powers.append(v)
                v = _poly_mulmod(v, list(gen), mod, p)
            if len(powers) == order - 1:
                break
        else:
            raise FieldError("no primitive element found")
        self.gen_index = 2  # gen**1
        self.digits = np.array([[0] * deg] + powers, dtype=np.int16)
        weights = p ** np.arange(deg, dtype=np.int16)
        self.index_of_code = np.zeros(order, dtype=np.int16)
        self.index_of_code[self.digits @ weights] = np.arange(order)

        # sums digit by digit into one (q^2, q^2) array of base-p codes
        code = np.zeros((order, order), dtype=np.int16)
        for col, w in zip(self.digits.T, weights):
            code += np.add.outer(col, col) % p * w
        self.add_np = self.index_of_code[code]
        self.neg_np = self.index_of_code[-self.digits % p @ weights]
        # products by the log rule: index i >= 1 has log i - 1
        idx, cycle = np.arange(order), order - 1
        log = (idx - 1).astype(np.int16)  # keeps the (q^2, q^2) log sums small
        self.mul_np = np.where(np.outer(idx > 0, idx > 0), 1 + np.add.outer(log, log) % cycle, 0)
        self.conj_np, self.norm_np = (
            np.where(idx > 0, 1 + (idx - 1) * e % cycle, 0).astype(np.int16) for e in (q, q + 1)
        )
        trace = self.add_np[idx, self.conj_np]
        self._index = np.int16 if order * order <= 1 << 15 else np.int32  # holds a q^2 + b
        # scalar mirrors: list lookups beat numpy indexing one element at a time
        self._add, self._neg, self._conj, self._norm, self._trace = (
            t.tolist() for t in (self.add_np, self.neg_np, self.conj_np, self.norm_np, trace)
        )

    # -- arithmetic on indices: scalars, then broadcast arrays ----------

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
        return self.pow(a, -1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e by the log rule, for any integer e; 0**0 is 1."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return int(e == 0)
        return 1 + (a - 1) * e % (self.order - 1)

    def conj(self, a: int) -> int:
        return self._conj[a]

    def norm(self, a: int) -> int:
        return self._norm[a]

    def trace(self, a: int) -> int:
        return self._trace[a]

    def vadd(self, a, b) -> np.ndarray:
        """Elementwise sums of index arrays (or ints), broadcast against each other."""
        return self._lookup(self.add_np, a, b)

    def vmul(self, a, b) -> np.ndarray:
        """Elementwise products of index arrays (or ints), broadcast against each other."""
        return self._lookup(self.mul_np, a, b)

    def _lookup(self, table: np.ndarray, a, b) -> np.ndarray:
        """table[a, b], broadcast; a q^2 + b is in range, so mode="clip" checks nothing."""
        at = np.asarray(a, self._index) * self.order + np.asarray(b, self._index)
        if at.size <= _TAKE_CHUNK:
            return table.take(at, mode="clip")
        out = np.empty_like(at, dtype=table.dtype)  # at's memory order, so ravel("K") are views
        at, flat = at.ravel("K"), out.ravel("K")
        for lo in range(0, len(at), _TAKE_CHUNK):
            table.take(at[lo : lo + _TAKE_CHUNK], out=flat[lo : lo + _TAKE_CHUNK], mode="clip")
        return out

    # -- structure ------------------------------------------------------

    def subfield_indices(self) -> tuple[int, ...]:
        """Indices of the q elements fixed by conjugation, ascending."""
        return tuple(np.flatnonzero(self.conj_np == np.arange(self.order)).tolist())

    def norm_preimage(self, value: int) -> int:
        """Smallest index c with norm(c) == value (norm is onto the subfield)."""
        hits = np.flatnonzero(self.norm_np == value)
        if not len(hits):
            raise FieldError(f"{value} is not a norm value")
        return int(hits[0])

    def nonzero_trace_element(self) -> int:
        return int(np.flatnonzero(self._trace)[0])  # the trace is onto the subfield

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
    """Basis of {v : M v = 0}, one vector per free column, by ``rref``: the
    reference for the closed forms of ``proj_geometry``, which never call it."""
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
