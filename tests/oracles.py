"""Test-side oracles on lines and on forms in one variable.

`line_basis` and `coordinates_on_line` parametrize a line by two of its
points, which the restriction oracles of the census and of the group law
divide known roots out of; `poly_in_var` and `move_into_z` take a form
apart in one variable, for the Sylvester oracle of `plane.resultant`.
Not a test module: pytest does not collect it, and the tests import it.
"""

from halphen.plane import GeometryError, Poly3, ProjPoint


def line_basis(field, g):
    """Two independent points spanning the line g0 x + g1 y + g2 z = 0."""
    zero, one = field.zero(), field.one()
    if not g[0].is_zero():
        A, B = (-g[1], g[0], zero), (-g[2], zero, g[0])
    elif not g[1].is_zero():
        A, B = (one, zero, zero), (zero, -g[2], g[1])
    else:
        A, B = (one, zero, zero), (zero, one, zero)
    return ProjPoint(field, A), ProjPoint(field, B)


def coordinates_on_line(P, A, B):
    """(u, v) with P = u*A + v*B projectively, for P on the line AB."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = A.coords[i] * B.coords[j] - A.coords[j] * B.coords[i]
        if not det.is_zero():
            u = P.coords[i] * B.coords[j] - P.coords[j] * B.coords[i]
            v = A.coords[i] * P.coords[j] - A.coords[j] * P.coords[i]
            return (u, v)
    raise GeometryError("degenerate line basis")


def poly_in_var(P, var):
    """P as the list of its coefficients of the powers of variable `var`.

    Entry j is the coefficient of (x_var)^j, a Poly3 in the other two
    variables (exponent 0 in position var); trailing zeros are dropped.
    """
    out = [{} for _ in range(P.degree + 1)]
    for exp, c in P.terms.items():
        rest = list(exp)
        rest[var] = 0
        out[exp[var]][tuple(rest)] = c
    polys = [Poly3(P.field, P.degree - j, terms) for j, terms in enumerate(out)]
    while polys and polys[-1].is_zero():
        polys.pop()
    return polys


def move_into_z(P, var):
    """P with variable `var` renamed z and the other two, in their order,
    renamed x and y."""
    rest = [v for v in range(3) if v != var]
    return Poly3(P.field, P.degree,
                 {(exp[rest[0]], exp[rest[1]], exp[var]): c for exp, c in P.terms.items()})


def binary_form(R, var):
    """The dense binary form [c_0..c_d] of a Poly3 free of variable `var`:
    c_i is its coefficient of u^i v^(d-i), u and v the other two variables
    in their order."""
    u = min(v for v in range(3) if v != var)
    out = [R.field.zero()] * (R.degree + 1)
    for exp, c in R.terms.items():
        if exp[var]:
            raise GeometryError("form involves the eliminated variable")
        out[exp[u]] = c
    return out
