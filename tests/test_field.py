import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halphen.field import (GF, GFext, QQ_EPS, QQ_EPS_A, BadSpecializationError,
                           Elements, FieldError, GFpElem, GFpkElem, MixedContextError,
                           Packing, PrimeExtField, PrimeField, QEpsElem, Residues,
                           _gfp_poly_mulmod, _zquo, find_irreducible, parse_element,
                           pdeg, pdivmod, pgcd, pmul, pnormalize, pscale,
                           specialize_scalar, to_text)
from halphen.plane import ProjPoint


def qe(c0, c1=0):
    """c0 + c1*e in Q(e), built from its integer parts over one denominator."""
    c0, c1 = Fraction(c0), Fraction(c1)
    d = math.lcm(c0.denominator, c1.denominator)
    return QEpsElem(QQ_EPS, c0.numerator * (d // c0.denominator),
                    c1.numerator * (d // c1.denominator), d)


def pexact_div(p, q, field):
    """p / q for polynomials that q divides exactly; an error otherwise."""
    quo, rem = pdivmod(p, q, field)
    if rem:
        raise FieldError("inexact polynomial division")
    return quo


def test_eps_relations():
    e = QQ_EPS.eps()
    assert e * e * e == 1
    assert e + e * e == -1
    assert e * e == -1 - e


def test_zquo_of_a_lower_degree_dividend():
    # a dividend two or more terms shorter than q: zero divides with an int
    # scale and an empty quotient, anything else is inexact
    q = ((1, 0), (0, 0), (1, 0))  # a^2 + 1
    s, quo = _zquo((), q)
    assert (s, quo) == (1, ()) and type(s) is int
    assert _zquo(((0, 0),), q) == (1, ())
    with pytest.raises(FieldError):
        _zquo(((2, 1),), q)
    with pytest.raises(FieldError):
        _zquo(((2, 1), (0, 3)), q)
    s, quo = _zquo(((1, 0), (0, 0), (1, 0)), q)
    assert (s, quo) == (1, ((1, 0),)) and type(s) is int


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
    # characteristic 3 is refused by the fields; characteristic 2 by each
    # computation that needs 1/2
    from halphen.chilean import conic_is_line_pair, singular_census
    from halphen.cubic import CubicError, HesseCubic
    from halphen.plane import GeometryError, gens
    with pytest.raises(FieldError):
        GF(3)
    with pytest.raises(FieldError):
        GFext(3, 2)
    assert GF(2).characteristic == 2 and GF(2) is GF(2)
    F = GFext(2, 4)
    assert F.size == 16 and F is GFext(2, 4)
    X, Y, Z = gens(F)
    with pytest.raises(CubicError):
        HesseCubic(F, F.gen())
    for check in (conic_is_line_pair, singular_census):
        with pytest.raises(GeometryError):
            check(X * Y - Z**2)


def test_extension_field_basics():
    F = GFext(5, 2)
    g = F.gen()
    assert len(list(F.elements())) == 25
    for field in (F, GFext(7, 2), GFext(13, 2), GFext(2, 4)):
        for x in field.elements():
            if not x.is_zero():
                assert x * x.inverse() == 1
    e = F.eps()
    assert e**3 == 1 and e != 1
    assert GFext(13, 2).from_int(3) == 16  # an int is compared mod p


# every extension field the tables serve here, both characteristic 2 ones
_EXTENSIONS = [(2, 2), (2, 4), (5, 2), (7, 2), (13, 2)]


@pytest.mark.parametrize("p, k", _EXTENSIONS)
def test_extension_tables_match_residue_polynomial_arithmetic(p, k):
    F = GFext(p, k)
    elems = list(F.elements())
    digits = [list(x.coeffs) for x in elems]
    for code, (x, cx) in enumerate(zip(elems, digits)):
        assert x.code == code == sum(c * p**i for i, c in enumerate(cx))
        assert (-x).coeffs == tuple(-a % p for a in cx)
        for y, cy in zip(elems, digits):
            assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(cx, cy))
            assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(cx, cy))
            assert (x * y).coeffs == tuple(_gfp_poly_mulmod(cx, cy, F.modulus, p))
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            product = _gfp_poly_mulmod(cx, list(x.inverse().coeffs), F.modulus, p)
            assert product == [1] + [0] * (k - 1)
    n = F.size - 1
    assert sorted(F.exp[:n]) == list(range(1, F.size))  # exp is a bijection
    assert F.exp[n:2 * n] == F.exp[:n] and F.exp[2 * n:] == [0] * n
    assert all(F.log[F.exp[i]] == i for i in range(n)) and F.log[0] == 2 * n


@pytest.mark.parametrize("p, k", _EXTENSIONS)
def test_extension_eps_is_the_first_cube_root_in_code_order(p, k):
    F = GFext(p, k)
    one = F.one()
    scan = next(x for x in F.elements()
                if x != one and not x.is_zero() and x * x * x == one)
    assert F.eps().code == scan.code


def test_irreducible_modulus_guard():
    from halphen.field import PrimeExtField
    for p, k in ((5, 1), (5, 0), (3, 2), (2, 1), (6, 2)):
        with pytest.raises(FieldError):  # k < 2, char 3, k < 2 in char 2, not prime
            PrimeExtField(p, k)
    assert PrimeExtField(5, 2).modulus == find_irreducible(5, 2)
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)
    with pytest.raises(FieldError):
        find_irreducible(3, 2)


# n/d with 1 <= d <= 6 and |n| <= 5 d: the fractions of [-5, 5] with
# denominators up to 6, the values of st.fractions(-5, 5, max_denominator=6),
# drawn as int pairs, each numerator range built once
_denominators = st.integers(min_value=1, max_value=6)
_numerators = {d: st.integers(min_value=-5 * d, max_value=5 * d) for d in range(1, 7)}


@st.composite
def _small_fractions(draw):
    d = draw(_denominators)
    return Fraction(draw(_numerators[d]), d)


_small_fraction = _small_fractions()


@st.composite
def qeps_elems(draw):
    return qe(draw(_small_fraction), draw(_small_fraction))


# built once: a strategy built inside a draw is built and validated again
# on every draw
qeps_polys = st.lists(qeps_elems(), min_size=1, max_size=3)
qeps_polys_min2 = st.lists(qeps_elems(), min_size=2, max_size=3)


@st.composite
def ratfunc_elems(draw):
    num = draw(qeps_polys)
    den = draw(qeps_polys)
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


def test_serialization_round_trips():
    A = QQ_EPS_A
    a = A.gen()
    e = A.eps()
    samples = [
        (-1 - e) * a * a,
        -(a**3 + 2) / a,
        A.from_coeffs([qe(Fraction(3, 7), 2)]),
        A.zero(),
        A.one(),
    ]
    for x in samples:
        assert parse_element(to_text(x), A) == x
    assert to_text((-1 - e) * a * a) == "(-1 - 1*e)*a^2"
    g16 = GFext(2, 4)
    g = g16.gen()
    assert to_text(g**3 + g + 1) == "g^3 + g + 1"
    for field in (g16, GFext(13, 2)):
        for x in field.elements():
            assert parse_element(to_text(x), field) == x


@pytest.mark.parametrize("text", ["2\u00b2", "(1", "1.5", "a**2", "1_0", "a^-1",
                                  "a^2^3", "", "b", "0x10", "a.n0", "(1, 2)",
                                  "\uff41"])  # a fullwidth a, which Python reads as a
def test_malformed_text_raises_field_error(text):
    with pytest.raises(FieldError):
        parse_element(text, QQ_EPS_A)


def test_parser_reads_the_infix_grammar():
    A = QQ_EPS_A
    a, e = A.gen(), A.eps()
    assert parse_element(" -a^2 * (1 + e)/ 3 - +2\n", A) == -(a * a) * (1 + e) / 3 - 2
    assert parse_element("2/3/4", A) == A.from_base(QQ_EPS.from_fraction(Fraction(1, 6)))
    assert parse_element("a^0", A) == 1
    with pytest.raises(FieldError):
        parse_element("e", GF(5))  # GF(5) has no cube root of unity


@settings(max_examples=60, deadline=None)
@given(qeps_elems(), qeps_elems())
def test_specialize_is_a_homomorphism_on_qeps(x, y):
    g13 = GF(13)
    images = [(g13, g13.eps()), (g13, g13.eps() ** 2), (QQ_EPS, QQ_EPS.eps() ** 2)]
    for target, eps in images:
        def f(z):
            return specialize_scalar(z, target, eps)
        try:
            fx, fy = f(x), f(y)
            assert f(x * y) == fx * fy
            assert f(x + y) == fx + fy
            assert f(x - y) == fx - fy
            if not fy.is_zero():
                assert f(x / y) == fx / fy
        except BadSpecializationError:  # a denominator divisible by 13
            assert target is g13
            continue
        assert f(QQ_EPS.one()) == 1
        # a Q(e) element and its Q(e)(a) constant have one image
        assert specialize_scalar(QQ_EPS_A.from_base(x), target, eps) == fx
    e = QQ_EPS.eps()
    assert specialize_scalar(x, QQ_EPS, e * e) == x.c0 + x.c1 * e * e


def random_element(field, rng):
    """A random element of Q(e) (small fractions), of Q(e)(a) (a quotient
    of such polynomials), of GF(p) or of GF(p^k)."""
    if isinstance(field, PrimeField):
        return GFpElem(field, rng.randrange(field.p))
    if isinstance(field, PrimeExtField):
        return GFpkElem(field, rng.randrange(field.size))
    if field is QQ_EPS:
        def frac():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return qe(frac(), frac())
    num = [random_element(QQ_EPS, rng) for _ in range(rng.randint(1, 3))]
    den = [random_element(QQ_EPS, rng) for _ in range(rng.randint(1, 3))]
    if all(c.is_zero() for c in den):
        den = [QQ_EPS.one()]
    return field.from_coeffs(num, den)


def test_random_elements_are_valid():
    rng = random.Random(5)
    for field in (QQ_EPS, QQ_EPS_A, GF(13), GFext(5, 2)):
        for _ in range(20):
            x = random_element(field, rng)
            assert (x - x).is_zero()


# ---------------------------------------------------------------------------
# the inner-loop forms of `Field.packing`

FORM_FIELDS = [GF(7), GF(13), GF(199), GFext(7, 2), GFext(13, 2), GFext(5, 3),
               QQ_EPS, QQ_EPS_A]


@pytest.mark.parametrize("field", FORM_FIELDS, ids=repr)
def test_inner_loop_forms_match_the_elements(field):
    """Each form's six operations agree with the element arithmetic, on
    sums of products of up to `degree` factors, zero sums included."""
    rng = random.Random(repr(field))
    degree = 4
    form = field.packing(degree)
    kind = {PrimeField: Residues, PrimeExtField: Packing}.get(type(field), Elements)
    assert type(form) is kind
    small = field is QQ_EPS_A  # its products are slow
    xs = [field.zero(), field.one(), -field.one()]
    xs += [random_element(field, rng) for _ in range(8 if small else 40)]
    for x in xs:
        assert form.element(form.pack(x)) == x

    def draw():  # (value, element): a sum of signed products
        value, elem = form.pack(field.zero()), field.zero()
        for _ in range(rng.randint(1, 3)):
            factors = [rng.choice(xs) for _ in range(rng.randint(1, degree))]
            term, prod = form.pack(factors[0]), factors[0]
            for x in factors[1:]:
                term, prod = term * form.pack(x), prod * x
            if rng.random() < 0.5:
                term, prod = -term, -prod
            value, elem = value + term, elem + prod
        return value, elem

    draws = [draw() for _ in range(20 if small else 300)]
    draws += [(v - v, elem - elem) for v, elem in draws[:10]]  # zero, unreduced
    for v, elem in draws:
        assert form.element(v) == elem
        assert form.reduce(v) == form.pack(elem)
        assert form.is_zero(v) == elem.is_zero()
        if elem.is_zero():
            with pytest.raises(ZeroDivisionError):
                form.inverse(v)
        else:
            assert form.element(form.inverse(v)) == elem.inverse()
    for _ in range(20 if small else 200):
        triple = [rng.choice(draws) for _ in range(3)]
        if rng.random() < 0.2:
            triple[rng.randrange(3)] = rng.choice(draws[-10:])
        coords = [elem for _, elem in triple]
        got = form.canonical([v for v, _ in triple])
        if all(c.is_zero() for c in coords):
            assert got is None
        else:
            assert got == tuple(map(form.pack, ProjPoint(field, coords).coords))
    zero = form.pack(field.zero())
    assert form.canonical((zero, zero, zero)) is None
    with pytest.raises(ZeroDivisionError):
        form.inverse(zero)
    if kind is Residues:  # which is why the form checks
        with pytest.raises(ValueError):
            pow(0, -1, field.p)


@pytest.mark.parametrize("field", FORM_FIELDS[:-1], ids=repr)
def test_fused_row_operations_match_the_elements(field):
    """Each form's `scaled` and `row_update` agree with the element
    arithmetic, the update applied to a row again and again, with factors
    read off the row itself, as an elimination does.  Q(e)(a) has the form
    of Q(e), whose products are faster."""
    rng = random.Random(repr(field) + " rows")
    form = field.packing(2)
    for _ in range(20):
        row = [random_element(field, rng) for _ in range(6)]
        values = list(map(form.pack, row))
        for _ in range(4):
            pivot = [random_element(field, rng) for _ in range(6)]
            c = random_element(field, rng)
            scaled = form.scaled(list(map(form.pack, pivot)), form.pack(c))
            pivot = [x * c for x in pivot]
            assert list(map(form.element, scaled)) == pivot
            j = rng.randrange(6)
            values = form.row_update(values, values[j], scaled)
            row = [x - row[j] * y for x, y in zip(row, pivot)]
            assert list(map(form.element, values)) == row
            assert form.is_zero(values[j]) == row[j].is_zero()


def test_one_residue_form_per_prime_field():
    # Residues ignores the degree, so every degree gets the same one
    assert GF(13).packing(2) is GF(13).packing(5) is GF(13).packing(1)
    assert GF(13).packing(2) is not GF(7).packing(2)


def test_one_element_form_for_the_characteristic_zero_fields():
    # Elements holds no state: every call over Q(e) and Q(e)(a) gets the same one
    forms = {id(F.packing(d)) for F in (QQ_EPS, QQ_EPS_A) for d in (1, 2, 4)}
    assert len(forms) == 1 and isinstance(QQ_EPS.packing(2), Elements)


# ---------------------------------------------------------------------------
# the integer kernel of Q(e)


def _assert_canonical(x):
    assert all(type(v) is int for v in (x.n0, x.n1, x.d))
    assert x.d > 0 and math.gcd(x.n0, x.n1, x.d) == 1


_any_fraction = st.fractions(max_denominator=10**6)


@st.composite
def wide_qeps_elems(draw):
    return qe(draw(_any_fraction), draw(_any_fraction))


@settings(max_examples=150, deadline=None)
@given(wide_qeps_elems(), wide_qeps_elems())
def test_qeps_results_are_canonical(x, y):
    results = [x, y, x + y, x - y, x * y, -x, x + 1, 2 - x, 3 * y, x ** 3]
    if not y.is_zero():
        results += [x / y, y.inverse(), 1 / y, y ** -2]
    for r in results:
        _assert_canonical(r)


def test_qeps_constructor_reduces():
    x = QEpsElem(QQ_EPS, 2, 4, -6)
    assert (x.n0, x.n1, x.d) == (-1, -2, 3)
    assert x == qe(Fraction(-1, 3), Fraction(-2, 3))
    z = QEpsElem(QQ_EPS, 0, 0, 7)
    assert (z.n0, z.n1, z.d) == (0, 0, 1) and z == 0
    with pytest.raises(ZeroDivisionError):
        QEpsElem(QQ_EPS, 1, 0, 0)


@settings(max_examples=100, deadline=None)
@given(wide_qeps_elems(), wide_qeps_elems(), st.integers(-5, 5))
def test_qeps_equal_values_hash_equal(x, y, n):
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    rebuilt = qe(x.c0, x.c1)
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert (x == n) == (x == QQ_EPS.from_int(n))
    k = qe(Fraction(3 * n, 3))
    assert k == n and k == QQ_EPS.from_int(n) and hash(k) == hash(QQ_EPS.from_int(n))
    for y in (qe(Fraction(n, 2)), qe(n, 1), qe(n, Fraction(1, 2))):
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
        return qe(coeffs[1], coeffs[0])

    rng = random.Random(11)

    def sample():
        return qe(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
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


def test_hash_agrees_with_equality_on_smaller_rings():
    three, half = QQ_EPS.from_int(3), QQ_EPS.from_fraction(Fraction(1, 2))
    assert {three: 1}.get(3) == 1 and 3 in {QQ_EPS_A.from_int(3)}
    assert {Fraction(1, 2): 1}.get(half) == 1 and half in {QQ_EPS_A.from_base(half)}
    e = QQ_EPS.eps()
    assert {QQ_EPS_A.from_base(e): 1}.get(e) == 1
    assert {QQ_EPS_A.zero(), QQ_EPS.zero(), 0} == {0}


def _in_type(c0, c1, kind):
    """(c0 + c1*e) as the given type, or as an element of Q(e) if it lies outside."""
    if kind == "int" and c1 == 0 and c0.denominator == 1:
        return int(c0)
    if kind == "Fraction" and c1 == 0:
        return c0
    if kind == "Q(e)(a)":
        return QQ_EPS_A.from_base(qe(c0, c1))
    return qe(c0, c1)


_kinds = st.sampled_from(("int", "Fraction", "Q(e)", "Q(e)(a)"))
_tiny_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_tiny_int = st.integers(-1, 1)


@settings(max_examples=200, deadline=None)
@given(_tiny_fraction, _tiny_int, _kinds, _tiny_fraction, _tiny_int, _kinds)
def test_equal_values_hash_equal_across_types(a0, a1, kind_a, b0, b1, kind_b):
    x, y = _in_type(a0, a1, kind_a), _in_type(b0, b1, kind_b)
    assert (x == y) == ((a0, a1) == (b0, b1))
    if x == y:
        assert hash(x) == hash(y)


def test_qeps_equals_fraction():
    half = QQ_EPS.from_fraction(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != Fraction(1, 3) and half != Fraction(-1, 2)
    assert QQ_EPS.from_int(3) == Fraction(3) and QQ_EPS.zero() == Fraction(0)
    assert qe(Fraction(1, 2), 1) != Fraction(1, 2)


# ---------------------------------------------------------------------------
# the integer kernel of Q(e)(a), against the element-list oracle


def _oracle_parts(x):
    """The numerator and the monic denominator of x as lists of Q(e) elements."""
    return ([QEpsElem(QQ_EPS, n0, n1, x.nd) for n0, n1 in x.num],
            [QEpsElem(QQ_EPS, n0, n1, x.dd) for n0, n1 in x.den])


def _assert_ratfunc_canonical(x):
    ints = [v for pair in x.num + x.den for v in pair]
    assert all(type(v) is int for v in ints + [x.nd, x.dd])
    assert x.nd > 0 and x.dd > 0
    assert not x.num or x.num[-1] != (0, 0)  # no trailing zero
    assert math.gcd(x.nd, *(v for pair in x.num for v in pair)) == 1
    assert math.gcd(*(v for pair in x.den for v in pair)) == 1
    assert x.den[-1] == (x.dd, 0)  # monic
    if not x.num:
        assert (x.nd, x.den, x.dd) == (1, ((1, 0),), 1)
    num, den = _oracle_parts(x)
    assert not num or pdeg(pgcd(num, den, QQ_EPS)) == 0  # coprime


def _oracle_fraction(num, den):
    """num/den reduced with the generic pgcd and made monic."""
    F = QQ_EPS
    if not num:
        return [], [F.one()]
    g = pgcd(num, den, F)
    num, den = pexact_div(num, g, F), pexact_div(den, g, F)
    inv = den[-1].inverse()
    return pscale(num, inv), pscale(den, inv)


def _list_sum(p, q, sign=1):
    """p + sign*q for coefficient lists."""
    n = max(len(p), len(q))
    p, q = p + [QQ_EPS.zero()] * (n - len(p)), q + [QQ_EPS.zero()] * (n - len(q))
    return pnormalize([u + sign * v for u, v in zip(p, q)])


def _oracle_ops(x, y):
    F = QQ_EPS
    (xn, xd), (yn, yd) = _oracle_parts(x), _oracle_parts(y)
    out = {"+": (_list_sum(pmul(xn, yd, F), pmul(yn, xd, F)), pmul(xd, yd, F)),
           "-": (_list_sum(pmul(xn, yd, F), pmul(yn, xd, F), -1), pmul(xd, yd, F)),
           "*": (pmul(xn, yn, F), pmul(xd, yd, F))}
    if yn:
        out["/"] = (pmul(xn, yd, F), pmul(xd, yn, F))
    return {op: _oracle_fraction(*parts) for op, parts in out.items()}


@st.composite
def shared_factor_elems(draw):
    """x = (f*h)/(g*h) with h of degree >= 1, built without reducing first."""
    F = QQ_EPS
    f, g = draw(qeps_polys), draw(qeps_polys)
    h = draw(qeps_polys_min2)
    if pdeg(pnormalize(list(g))) < 0:
        g = [F.one()]
    if pdeg(pnormalize(list(h))) < 1:
        h = [F.one(), F.one()]
    return QQ_EPS_A.from_coeffs(pmul(f, h, F), pmul(g, h, F)), f, g


@settings(max_examples=80, deadline=None)
@given(ratfunc_elems(), ratfunc_elems(), st.integers(-3, 3))
def test_ratfunc_results_are_canonical(x, y, n):
    results = [x, y, x + y, x - y, x * y, -x, x ** abs(n), x + n, n * y,
               QQ_EPS_A.from_coeffs(*_oracle_parts(x))]
    if not y.is_zero():
        results += [x / y, y.inverse(), n / y, y ** n]
    for r in results:
        _assert_ratfunc_canonical(r)


@settings(max_examples=80, deadline=None)
@given(ratfunc_elems(), ratfunc_elems())
def test_ratfunc_equal_values_hash_equal(x, y):
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    rebuilt = QQ_EPS_A.from_coeffs(*_oracle_parts(x))
    assert rebuilt == x and hash(rebuilt) == hash(x)
    if not y.is_zero():
        quotient = (x * y) / y
        assert quotient == x and hash(quotient) == hash(x)


@settings(max_examples=80, deadline=None)
@given(ratfunc_elems(), ratfunc_elems())
def test_ratfunc_matches_element_list_oracle(x, y):
    for op, expected in _oracle_ops(x, y).items():
        got = _OPS[op](x, y)
        assert _oracle_parts(got) == expected, op
    if not x.is_zero():
        assert _oracle_parts(x.inverse()) == _oracle_fraction(*_oracle_parts(x)[::-1])
        assert x * (1 / x) == 1 and x * x.inverse() == 1
    assert x + (-x) == 0 and (x - x).is_zero()


@settings(max_examples=60, deadline=None)
@given(shared_factor_elems(), ratfunc_elems())
def test_ratfunc_shared_factors_cancel(built, y):
    x, f, g = built
    _assert_ratfunc_canonical(x)
    assert x == QQ_EPS_A.from_coeffs(f, g)
    assert _oracle_parts(x) == _oracle_fraction(pnormalize(list(f)), pnormalize(list(g)))
    for op, expected in _oracle_ops(x, y).items():
        got = _OPS[op](x, y)
        _assert_ratfunc_canonical(got)
        assert _oracle_parts(got) == expected, op


def test_ratfunc_cancellation_examples():
    A = QQ_EPS_A
    a, e = A.gen(), A.eps()
    assert (a**2 - 1) / (a - 1) == a + 1
    assert ((a**2 - 1) / (a - 1)).is_polynomial()
    x = (e * a**2 + Fraction(1, 3)) / (2 * a**3 - e)
    assert x * (1 / x) == 1 and x + (-x) == 0
    assert (x * (a - e)) / (a - e) == x
    assert 1 / (a * (a - 1)) + 1 / a == 1 / (a - 1)
    assert (a - e) / (a + 1) * ((a + 1) / (a - e)) == 1
    y = (a - e) * (a + 1) / ((a - e) * (3 * a - 2))
    assert y == (a + 1) / (3 * a - 2)
    assert (y.num, y.nd, y.den, y.dd) == (((1, 0), (1, 0)), 3, ((-2, 0), (3, 0)), 3)
    # 1/e = -1 - e, so (a + 1)/(e*a - 2) = ((-1 - e)*a - 1 - e)/(a + 2 + 2*e)
    z = (a + 1) / (e * a - 2)
    assert (z.num, z.nd, z.den, z.dd) == (((-1, -1), (-1, -1)), 1, ((2, 2), (1, 0)), 1)
    with pytest.raises(ZeroDivisionError):
        A.from_coeffs([1], [0])


def test_ratfunc_matches_sympy_fraction_field():
    sympy = pytest.importorskip("sympy")
    root = (-1 + sympy.sqrt(3) * sympy.I) / 2
    K = sympy.QQ.algebraic_field(root)
    F = K.frac_field(sympy.Symbol("a"))
    R = F.field.ring
    e = K.from_sympy(root)

    def to_k(n0, n1, d):
        return (K.from_sympy(sympy.Rational(n0, d))
                + K.from_sympy(sympy.Rational(n1, d)) * e)

    def to_f(x):
        num = R.from_dict({(i,): to_k(*c, x.nd) for i, c in enumerate(x.num)})
        den = R.from_dict({(i,): to_k(*c, x.dd) for i, c in enumerate(x.den)})
        return F.field(num) / F.field(den)

    rng = random.Random(13)
    samples = [random_element(QQ_EPS_A, rng) for _ in range(40)]
    a = QQ_EPS_A.gen()
    samples += [(a**2 - 1) / (a - 1), (QQ_EPS_A.eps() * a + 2) / (a**2 + a + 1)]
    # sympy does not keep these fractions in one canonical form, so its
    # results are compared by their difference
    for x, y in zip(samples, samples[1:] + samples[:1]):
        fx, fy = to_f(x), to_f(y)
        assert not to_f(x + y) - (fx + fy)
        assert not to_f(x - y) - (fx - fy)
        assert not to_f(x * y) - fx * fy
        if not y.is_zero():
            assert not to_f(x / y) - fx / fy
            assert not to_f(y.inverse()) - 1 / fy
