"""Symbolic restriction, the test-side oracle for containment, and the
slow paths that ``check`` replaced.

hermsurf decides whether a line or a plane lies in V(F) from F's values
at its rational points, which is exact for degrees d <= q^2.  The tests
check that rule against the definition: F restricted to a
parametrization of the line or plane vanishes identically, over the
algebraic closure.

``intersection_stats`` and ``tangent_plane_factors`` decide from the zero
set by criteria (a)-(c) of the ``hermsurf.forms`` docstring.  The
references below are what they did before: divide by the surface
equation, evaluate F on every candidate tangent plane, and divide out
each contained plane.  ``class_zero_masks`` is the int16 compare path
that the bit-sliced ``class_zero_blocks`` replaced.
``tangent_planes_through`` finds the tangent planes through a line in
its book of planes in PG(3, q^2), where ``theorems`` reads them from the
generators of the surface.
"""

import operator

import numpy as np

from hermsurf.finite_field import nullspace
from hermsurf.forms import divide, exact_quotient, linear_form, surface_form
from hermsurf.proj_geometry import dual_basis, span_ids


def convolve(field, a: dict, b: dict) -> dict:
    """Product of two polynomials given as {exponent tuple: element index}."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = field.add(out.get(e, 0), field.mul(c1, c2))
    return {e: c for e, c in out.items() if c}


def restrict(form, frame) -> dict:
    """Nonzero coefficients of F(t_0 frame_0 + ... + t_(k-1) frame_(k-1)).

    A frame of k = 2 points spans a line and one of k = 3 points a plane;
    the result maps exponent k-tuples of (t_0, ..., t_(k-1)) to element
    indices.  It is empty exactly when F vanishes identically on the span.
    """
    f = form.field
    k = len(frame)
    one = {(0,) * k: 1}
    powers = []  # powers[j][e] = x_j^e for x_j = sum_i t_i frame_i[j]
    for j in range(4):
        x = {tuple(int(i == r) for r in range(k)): pt[j] for i, pt in enumerate(frame) if pt[j]}
        pw = [one]
        for _ in range(max(m[j] for m in form.coeffs)):
            pw.append(convolve(f, pw[-1], x))
        powers.append(pw)
    out: dict = {}
    for exps, c in form.coeffs.items():
        poly = {(0,) * k: c}
        for pw, e in zip(powers, exps):
            if e:
                poly = convolve(f, poly, pw[e])
        for m, v in poly.items():
            out[m] = f.add(out.get(m, 0), v)
    return {m: v for m, v in out.items() if v}


def line_inside(form, geometry, line) -> bool:
    """Does V(F) contain the line, over the algebraic closure?"""
    return not restrict(form, geometry.arr[list(line.key)].tolist())


def plane_inside(form, plane) -> bool:
    """Does V(F) contain the plane, over the algebraic closure?"""
    return not restrict(form, nullspace(form.field, [plane]))


def planes_inside(form, geometry) -> list:
    """Every plane of PG(3, q^2) inside V(F), in ascending order: the
    planes whose rational points all vanish, confirmed symbolically."""
    zero = form.values_at(geometry.arr) == 0
    return [plane for plane in geometry.points  # dual coordinates enumerate like points
            if zero[geometry.plane_point_ids(plane)].all() and plane_inside(form, plane)]


def tangent_planes_through(surface, line) -> list:
    """The tangent planes through a line, ascending: the planes of its
    book of q^2+1 planes that are tangent planes of the surface."""
    planes = surface.tangent_planes()
    return sorted(p for p in surface.geometry.book_of_planes(line) if p in planes)


def divides(divisor, form) -> bool:
    """Does the divisor divide the form?  By division: the remainder is zero."""
    if divisor.degree > form.degree:
        return False
    return not divide(form, divisor)[1]


def hermitian_multiple_by_division(form, surface) -> bool:
    """Does the surface equation H divide F?  By division."""
    return divides(surface_form(surface), form)


def vanishing_tangent_planes(surface, zero_positions) -> list:
    """The tangent planes T_P, in surface point order, whose section, the
    q+1 generators through P, lies in a zero set given by its surface
    positions.  Every tangent plane inside V(F) passes for F's zero set."""
    zero = np.zeros(len(surface.point_ids), dtype=bool)
    zero[zero_positions] = True
    lines = zero[surface.generator_positions()].all(axis=1)
    planes = list(surface.tangent_planes())
    return [planes[i] for i in np.flatnonzero(lines[surface.generators_through()].all(axis=1))]


def tangent_planes_by_evaluation(form, surface) -> tuple:
    """The tangent planes inside V(F), ascending: F is evaluated at every
    point of each plane whose surface section vanishes.  For a multiple of
    H these are the planes inside V(F/H), V(H) holding no plane."""
    if hermitian_multiple_by_division(form, surface):
        if form.degree == surface.q + 1:
            return ()
        form = exact_quotient(form, surface_form(surface))
    f = surface.field
    zero_positions = np.flatnonzero(form.values_at(surface.arr) == 0)
    candidates = sorted(vanishing_tangent_planes(surface, zero_positions))
    if not candidates:
        return ()
    ids = span_ids(f, dual_basis(f, candidates))
    inside = (form.values_at(surface.geometry.arr[ids.ravel()]).reshape(ids.shape) == 0).all(axis=1)
    return tuple(plane for plane, zero in zip(candidates, inside) if zero)


def factors_by_division(form, planes):
    """The planes, with multiplicity and ascending, whose linear forms
    multiply to F up to a scalar, or None: each of the given planes is
    divided out while it divides and the rest is not linear, and the
    linear rest must be one of them."""
    if not planes:
        return None
    f = form.field
    rest, factors = form, []
    for plane in planes:
        divisor = linear_form(f, plane)
        while rest.degree > 1 and (quo := exact_quotient(rest, divisor)) is not None:
            factors.append(plane)
            rest = quo
    last = rest.normalized()
    factors += [plane for plane in planes if linear_form(f, plane) == last]
    return sorted(factors) if len(factors) == form.degree else None


def class_zero_masks(field, rows, start: int, stop: int):
    """Yield (lo, hi, zero) over the scalar classes [start, stop) in
    ``class_vectors`` order: zero is the (hi-lo, N) bool mask of the
    combinations of the (M, N) rows that vanish.  A table T holds every
    combination of the last L rows as int16 element indices, and a class
    vanishes where its T row equals minus its prefix rows[j] + sum_i c_i
    rows[i], built from scratch for each span of q^(2L) classes."""
    order = field.order
    m, n = rows.shape
    low = 0
    while low < m - 1 and order ** (low + 1) <= min(4096, (1 << 23) // n):
        low += 1
    table, size = np.zeros((order**low, n), dtype=np.int16), 1
    for row in rows[m - low :][::-1]:
        for c in range(1, order):
            table[c * size : (c + 1) * size] = field.vadd(field.vmul(c, row), table[:size])
        size *= order
    offset = 0
    for j in range(m):
        size = order ** (m - 1 - j)
        digits = min(low, m - 1 - j)
        span = order**digits
        lo, end = max(start, offset), min(stop, offset + size)
        while lo < end:
            first = lo - lo % span
            hi = min(end, first + span)
            prefix, high = rows[j], (first - offset) // span
            for i in range(m - 1 - digits, j, -1):
                high, c = divmod(high, order)
                prefix = field.vadd(field.vmul(c, rows[i]), prefix)
            yield lo, hi, table[lo - first : hi - first] == field.neg_np[prefix]
            lo = hi
        offset += size
