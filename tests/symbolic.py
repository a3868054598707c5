"""Symbolic restriction, the test-side oracle for containment.

hermsurf decides whether a line or a plane lies in V(F) from F's values
at its rational points, which is exact for degrees d <= q^2.  The tests
check that rule against the definition: F restricted to a
parametrization of the line or plane vanishes identically, over the
algebraic closure.
"""

import operator

from hermsurf.finite_field import nullspace


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
