import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halphen.field import (GF, GFext, QQ_EPS, QQ_EPS_A, BadSpecializationError,
                           FieldError, MixedContextError, QEpsElem, find_irreducible,
                           parse_element, pexact_div, pgcd,
                           proots_in_field, specialize_scalar, to_text)


def test_eps_relations():
    e = QQ_EPS.eps()
    assert e * e * e == 1
    assert e + e * e == -1
    assert e * e == -1 - e


def test_hesse_parameter_expression():
    A = QQ_EPS_A
    a = A.gen()
    t = -(a**3 + 2) / a
    assert t * a == -(a**3 + 2)
    assert specialize_scalar(t, QQ_EPS, QQ_EPS.eps(), QQ_EPS.one()) == -3


def test_specialize_eps_image_validation():
    g7 = GF(7)
    e7 = g7.from_int(2)
    assert e7**3 == 1 and e7 != 1
    x = specialize_scalar(QQ_EPS.eps(), g7, eps_image=e7)
    assert x == e7
    with pytest.raises(BadSpecializationError):
        specialize_scalar(QQ_EPS.eps(), g7, eps_image=g7.one())


def test_specialize_pole_is_an_error():
    A = QQ_EPS_A
    a = A.gen()
    t = -(a**3 + 2) / a
    g7 = GF(7)
    with pytest.raises(BadSpecializationError):
        specialize_scalar(t, g7, eps_image=g7.from_int(2), a_image=g7.zero())


# The outcome of `row op column` for every op in + - * /: the field of the
# result, "mixed" for MixedContextError or "type" for TypeError.  Q(e)
# defers to Q(e)(a), which accepts it; two different fields never mix.
MIXED_OUTCOMES = """
          int      Fraction Q(e)     Q(e)(a)  GF(7)    GF(13)   GF(7^2)  GF(13^2)
int       .        .        Q(e)     Q(e)(a)  GF(7)    GF(13)   GF(7^2)  GF(13^2)
Fraction  .        .        Q(e)     Q(e)(a)  type     type     type     type
Q(e)      Q(e)     Q(e)     Q(e)     Q(e)(a)  mixed    mixed    mixed    mixed
Q(e)(a)   Q(e)(a)  Q(e)(a)  Q(e)(a)  Q(e)(a)  mixed    mixed    mixed    mixed
GF(7)     GF(7)    type     mixed    mixed    GF(7)    mixed    mixed    mixed
GF(13)    GF(13)   type     mixed    mixed    mixed    GF(13)   mixed    mixed
GF(7^2)   GF(7^2)  type     mixed    mixed    mixed    mixed    GF(7^2)  mixed
GF(13^2)  GF(13^2) type     mixed    mixed    mixed    mixed    mixed    GF(13^2)
"""


def _mixed_cases():
    header, *rows = [line.split() for line in MIXED_OUTCOMES.strip().splitlines()]
    return [(row[0], col, outcome) for row in rows
            for col, outcome in zip(header, row[1:]) if outcome != "."]


def _mixed_operand(kind):
    return {"int": 3, "Fraction": Fraction(1, 2), "Q(e)": QQ_EPS.eps(),
            "Q(e)(a)": QQ_EPS_A.gen(), "GF(7)": GF(7).from_int(3),
            "GF(13)": GF(13).from_int(5), "GF(7^2)": GFext(7, 2).gen(),
            "GF(13^2)": GFext(13, 2).gen()}[kind]


@pytest.mark.parametrize("left, right, outcome", _mixed_cases())
def test_mixed_contexts_rejected(left, right, outcome):
    x, y = _mixed_operand(left), _mixed_operand(right)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if outcome == "mixed":
            with pytest.raises(MixedContextError):
                op(x, y)
        elif outcome == "type":
            with pytest.raises(TypeError):
                op(x, y)
        else:
            assert repr(op(x, y).field) == outcome, op.__name__


def test_coerce_rejects_a_polynomial_over_the_same_field():
    from halphen.plane import gens
    x, _, _ = gens(GF(7))
    with pytest.raises(MixedContextError):
        GF(7).coerce(x)


def test_elements_have_no_instance_dict():
    for kind in ("Q(e)", "Q(e)(a)", "GF(7)", "GF(7^2)"):
        assert not hasattr(_mixed_operand(kind), "__dict__")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ_EPS.one() / QQ_EPS.zero()
    with pytest.raises(ZeroDivisionError):
        GF(7).one() / GF(7).zero()
    with pytest.raises(ZeroDivisionError):
        QQ_EPS_A.one() / QQ_EPS_A.zero()


def test_characteristic_guards():
    with pytest.raises(FieldError):
        GF(3)
    with pytest.raises(FieldError):
        GF(2)
    assert GF(2, allow_char2=True).characteristic == 2
    assert GF(7, allow_char2=True) is GF(7)  # one field, whatever the flag
    with pytest.raises(FieldError):
        GFext(3, 2)
    assert GFext(2, 4, allow_char2=True).size == 16


def test_extension_field_basics():
    F = GFext(5, 2)
    g = F.gen()
    assert len(list(F.elements())) == 25
    for field in (F, GFext(7, 2), GFext(13, 2), GFext(2, 4, allow_char2=True)):
        for x in field.elements():
            if not x.is_zero():
                assert x * x.inverse() == 1
    e = F.eps()
    assert e**3 == 1 and e != 1


def test_irreducible_modulus_guard():
    from halphen.field import PrimeExtField
    with pytest.raises(FieldError):
        PrimeExtField(5, modulus=(4, 0, 1))  # x^2 + 4 = (x - 1)(x + 1) over GF(5)
    assert find_irreducible(2, 4, allow_char2=True) == (1, 1, 0, 0, 1)


_small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def qeps_elems(draw):
    return QQ_EPS.make(draw(_small_fraction), draw(_small_fraction))


@st.composite
def ratfunc_elems(draw):
    num = draw(st.lists(qeps_elems(), min_size=1, max_size=3))
    den = draw(st.lists(qeps_elems(), min_size=1, max_size=3))
    if all(c.is_zero() for c in den):
        den = [QQ_EPS.one()]
    return QQ_EPS_A.from_coeffs(num, den)


@settings(max_examples=60, deadline=None)
@given(qeps_elems(), qeps_elems(), qeps_elems())
def test_field_axioms_qeps(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=40, deadline=None)
@given(ratfunc_elems(), ratfunc_elems(), ratfunc_elems())
def test_field_axioms_ratfunc(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=40, deadline=None)
@given(ratfunc_elems(), ratfunc_elems(), st.integers(min_value=0, max_value=11))
def test_specialize_is_a_homomorphism(x, y, a_int):
    g13 = GF(13)
    eps = g13.eps()
    a = g13.from_int(a_int)
    try:
        fx = specialize_scalar(x, g13, eps, a)
        fy = specialize_scalar(y, g13, eps, a)
    except BadSpecializationError:
        return
    try:
        assert specialize_scalar(x * y, g13, eps, a) == fx * fy
        assert specialize_scalar(x + y, g13, eps, a) == fx + fy
    except BadSpecializationError:
        # reduced forms can drop a pole that the raw product would hit
        pass


def test_univariate_tools():
    F = GF(7)
    one = F.one()
    X2_minus_1 = [F.from_int(-1), F.zero(), one]
    X_minus_1 = [F.from_int(-1), one]
    g = pgcd(X2_minus_1, X_minus_1, F)
    assert g == X_minus_1
    q = pexact_div(X2_minus_1, X_minus_1, F)
    assert q == [one, one]
    with pytest.raises(FieldError):
        pexact_div([one, one, one], [one, one], F)
    cube = [F.from_int(-1), F.zero(), F.zero(), one]  # X^3 - 1
    roots = sorted(r.v for r in proots_in_field(cube, F))
    assert roots == [1, 2, 4]


def test_roots_linear_only_over_function_field():
    A = QQ_EPS_A
    a = A.gen()
    assert proots_in_field([-a, A.one()], A) == [a]
    with pytest.raises(FieldError):
        proots_in_field([A.one(), A.zero(), A.one()], A)


def test_serialization_round_trips():
    A = QQ_EPS_A
    a = A.gen()
    e = A.eps()
    samples = [
        (-1 - e) * a * a,
        -(a**3 + 2) / a,
        A.from_coeffs([QQ_EPS.make(Fraction(3, 7), 2)]),
        A.zero(),
        A.one(),
    ]
    for x in samples:
        assert parse_element(to_text(x), A) == x
    assert to_text((-1 - e) * a * a) == "(-1 - 1*e)*a^2"
    g16 = GFext(2, 4, allow_char2=True)
    g = g16.gen()
    for x in (g**3 + g + 1, g16.zero(), g16.one()):
        assert parse_element(to_text(x), g16) == x


def test_random_elements_are_valid():
    rng = random.Random(5)
    for field in (QQ_EPS, QQ_EPS_A, GF(13), GFext(5, 2)):
        for _ in range(20):
            x = field.random_element(rng)
            assert (x - x).is_zero()


# ---------------------------------------------------------------------------
# the integer kernel of Q(e)


def _assert_canonical(x):
    assert all(type(v) is int for v in (x.n0, x.n1, x.d))
    assert x.d > 0 and math.gcd(x.n0, x.n1, x.d) == 1


_any_fraction = st.fractions(max_denominator=10**6)


@st.composite
def wide_qeps_elems(draw):
    return QQ_EPS.make(draw(_any_fraction), draw(_any_fraction))


@settings(max_examples=150, deadline=None)
@given(wide_qeps_elems(), wide_qeps_elems())
def test_qeps_results_are_canonical(x, y):
    results = [x, y, x + y, x - y, x * y, -x, x + 1, 2 - x, 3 * y,
               x.conjugate(), x ** 3]
    if not y.is_zero():
        results += [x / y, y.inverse(), 1 / y, y ** -2]
    for r in results:
        _assert_canonical(r)


def test_qeps_constructor_reduces():
    x = QEpsElem(QQ_EPS, 2, 4, -6)
    assert (x.n0, x.n1, x.d) == (-1, -2, 3)
    assert x == QQ_EPS.make(Fraction(-1, 3), Fraction(-2, 3))
    z = QEpsElem(QQ_EPS, 0, 0, 7)
    assert (z.n0, z.n1, z.d) == (0, 0, 1) and z == 0
    with pytest.raises(ZeroDivisionError):
        QEpsElem(QQ_EPS, 1, 0, 0)


@settings(max_examples=100, deadline=None)
@given(wide_qeps_elems(), wide_qeps_elems(), st.integers(-5, 5))
def test_qeps_equal_values_hash_equal(x, y, n):
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    rebuilt = QQ_EPS.make(x.c0, x.c1)
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert (x == n) == (x == QQ_EPS.from_int(n))
    k = QQ_EPS.make(Fraction(3 * n, 3))
    assert k == n and k == QQ_EPS.from_int(n) and hash(k) == hash(QQ_EPS.from_int(n))
    for y in (QQ_EPS.make(Fraction(n, 2)), QQ_EPS.make(n, 1), QQ_EPS.make(n, Fraction(1, 2))):
        assert (y == n) == (y == QQ_EPS.from_int(n)) == (y.c0 == n and y.c1 == 0)


def _fraction_pair_ops(x, y):
    """+, -, * and / on the {1, e} coordinates with Fraction arithmetic."""
    a, b, c, d = x.c0, x.c1, y.c0, y.c1
    out = {"+": (a + c, b + d), "-": (a - c, b - d),
           "*": (a * c - b * d, a * d + b * c - b * d)}
    if c or d:
        norm = c * c - c * d + d * d
        inv = ((c - d) / norm, -d / norm)
        out["/"] = (a * inv[0] - b * inv[1],
                    a * inv[1] + b * inv[0] - b * inv[1])
    return out


_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
        "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@settings(max_examples=150, deadline=None)
@given(wide_qeps_elems(), wide_qeps_elems())
def test_qeps_matches_fraction_pair_formulas(x, y):
    for op, expected in _fraction_pair_ops(x, y).items():
        got = _OPS[op](x, y)
        assert (got.c0, got.c1) == expected


def test_qeps_matches_sympy_algebraic_field():
    sympy = pytest.importorskip("sympy")
    root = (-1 + sympy.sqrt(3) * sympy.I) / 2
    K = sympy.QQ.algebraic_field(root)
    assert K.mod.to_list() == [1, 1, 1]  # the primitive element is e itself
    e = K.from_sympy(root)

    def to_k(x):
        c0, c1 = (sympy.Rational(c.numerator, c.denominator) for c in (x.c0, x.c1))
        return K.from_sympy(c0) + K.from_sympy(c1) * e

    def from_k(v):
        coeffs = [Fraction(int(q.numerator), int(q.denominator))
                  for q in v.to_list()]
        coeffs = [Fraction(0)] * (2 - len(coeffs)) + coeffs
        return QQ_EPS.make(coeffs[1], coeffs[0])

    rng = random.Random(11)

    def sample():
        return QQ_EPS.make(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                           Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)))

    for _ in range(300):
        x, y = sample(), sample()
        kx, ky = to_k(x), to_k(y)
        assert from_k(kx) == x
        assert x + y == from_k(kx + ky)
        assert x - y == from_k(kx - ky)
        assert x * y == from_k(kx * ky)
        assert x / y == from_k(kx / ky)
        assert y.inverse() == from_k(ky ** -1)
