"""Tests for the Laurent polynomial ring and its textual grammar."""

import random
import time
from fractions import Fraction

import pytest

from paraunitary.errors import DimensionMismatch, IncompatibleRings, ParseError, ZeroAssigned
from paraunitary.laurent import LaurentPoly, exact_div, poly_from_text, poly_to_text
from paraunitary.scalars import QQ, ExactScalar, cyclotomic, prime_field, zeta

Z4 = cyclotomic(4)
F7 = prime_field(7)


def P(text, ring=QQ):
    return poly_from_text(text, ring)


def test_construction_and_canonical_form():
    z = LaurentPoly.variable("z", QQ)
    f = z + 1 - z
    assert f.is_constant() and f.constant_value() == 1
    assert LaurentPoly.monomial(0, {"z": 2}, QQ).is_zero()
    assert (z - z).is_zero()


def test_a_zero_side_of_a_sum_or_a_scaling_gives_the_other_side():
    from paraunitary.laurent import times_monomial

    for ring in (QQ, Z4, F7):
        f = P("3*x - z^-1 + 2", ring)
        zero = LaurentPoly.zero(ring)
        for got, expected in ((zero + f, f), (f + zero, f), (zero - f, P("-3*x + z^-1 - 2", ring)), (f - zero, f)):
            assert got == expected and got.vars == expected.vars and got.den == expected.den, ring
        assert (zero - f) + f == zero
        zero_xz = LaurentPoly.zero(ring, ("x", "z"))
        assert times_monomial(P("2*x*z", ring), [zero_xz]) == [zero_xz]
        assert times_monomial(P("2*x*z", ring), [zero_xz])[0] is zero_xz


def test_star_examples():
    x = LaurentPoly.variable("x", QQ)
    assert x.star() == x**-1
    f = P("(1/2) + (1/2)*z")
    assert f.star() == P("(1/2) + (1/2)*z^-1")
    # zeta_4 * x * y^2 -> conj flips the coefficient and all exponents
    i = zeta(Z4)
    g = LaurentPoly.monomial(i, {"x": 1, "y": 2})
    assert g.star() == LaurentPoly.monomial(-i, {"x": -1, "y": -2})


def test_star_is_involutive_ring_automorphism():
    rng = random.Random(2)
    vars = ("x", "y")
    for _ in range(40):
        def draw():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = (rng.randint(-3, 3), rng.randint(-3, 3))
                terms[exps] = ExactScalar.from_rational(QQ, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            return LaurentPoly(QQ, vars, terms)

        f, g = draw(), draw()
        assert (f * g).star() == f.star() * g.star()
        assert (f + g).star() == f.star() + g.star()
        assert f.star().star() == f


def test_mul_examples():
    assert P("1 + z") * P("1 + z^-1") == P("z^-1 + 2 + z")
    assert (P("(1/2) + (1/2)*z") * P("(1/2) - (1/2)*z")) == P("(1/4) - (1/4)*z^2")
    f = P("1 + z")
    assert (f * LaurentPoly.zero(QQ)).is_zero()


def test_substitute():
    f = P("(1/2) + (1/2)*z")
    assert f.substitute({"z": -1}).is_zero()
    assert f.substitute({"z": 1}).is_one()
    w = zeta(cyclotomic(3))
    g = LaurentPoly.monomial(1, {"x": 1, "y": -1}, cyclotomic(3))
    val = g.substitute({"x": w, "y": w * w})
    assert val == LaurentPoly.constant(w * w)
    with pytest.raises(ZeroAssigned):
        f.substitute({"z": 0})
    # partial substitution leaves other variables symbolic
    h = P("x*y + y")
    assert h.substitute({"x": 2}) == P("3*y")
    # monomial substitution (variable equating)
    assert h.substitute({"x": LaurentPoly.variable("y", QQ)}) == P("y^2 + y")


def test_substitute_commutes_with_mul():
    rng = random.Random(9)
    for _ in range(30):
        def draw():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[(rng.randint(-2, 2),)] = ExactScalar.from_rational(QQ, rng.randint(-4, 4))
            return LaurentPoly(QQ, ("z",), terms)

        f, g = draw(), draw()
        v = Fraction(rng.choice([1, -1, 2, 3]), 1)
        lhs = (f * g).substitute({"z": v})
        rhs = f.substitute({"z": v}) * g.substitute({"z": v})
        assert lhs == rhs


def test_star_then_substitute_unit_modulus():
    # on unit-modulus points, substitution of star(f) equals conj of substitution
    i = zeta(Z4)
    rng = random.Random(4)
    units = [i**k for k in range(4)]
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(-2, 2),)] = rng.choice(units)
        f = LaurentPoly(Z4, ("z",), terms)
        u = rng.choice(units)
        lhs = f.star().substitute({"z": u})
        rhs = f.substitute({"z": u})
        assert lhs.constant_value() == rhs.constant_value().conj()


def test_is_unit_monomial():
    assert P("x^2*y").is_unit_monomial() == (ExactScalar.from_rational(QQ, 1), {"x": 2, "y": 1})
    assert P("1 + z").is_unit_monomial() is None
    assert P("2*x").is_unit_monomial() is None
    m = LaurentPoly.monomial(zeta(Z4), {"x": 1})
    coeff, exps = m.is_unit_monomial()
    assert coeff == zeta(Z4) and exps == {"x": 1}


def test_incompatible_rings():
    with pytest.raises(IncompatibleRings):
        P("z") + P("z", Z4)
    # a scalar keeps its own ring only when no other ring is named
    assert LaurentPoly.constant(zeta(Z4)).ring == Z4
    with pytest.raises(IncompatibleRings):
        LaurentPoly.constant(zeta(Z4), QQ)
    with pytest.raises(IncompatibleRings):
        LaurentPoly.monomial(zeta(Z4), {"z": 1}, QQ)


def test_exact_div():
    f = P("z^2 - 1")
    g = P("z - 1")
    assert exact_div(f, g) == P("z + 1")
    a = P("x^2*y + x*y^2")
    b = P("x + y")
    assert exact_div(a, b) == P("x*y")
    # Laurent shifts
    c = P("z^-1 + 2 + z")
    d = P("1 + z")
    assert exact_div(c, d) == P("z^-1 + 1")
    with pytest.raises(ArithmeticError):
        exact_div(P("z^2 + 1"), P("z + 1"))


def test_text_roundtrip():
    samples = [
        P("(1/2) + (1/2)*z^-1"),
        P("z^-1 + 2 + z"),
        P("-x + y"),
        P("0"),
        P("x^2*y - 3*x*y^-2 + (2/3)"),
        LaurentPoly.monomial(zeta(Z4) * Fraction(1, 2), {"x": 1}),
        LaurentPoly.constant(ExactScalar.from_rational(F7, 5)),
    ]
    for f in samples:
        text = poly_to_text(f)
        back = poly_from_text(text, f.ring)
        assert back == f
        assert poly_to_text(back) == text


def test_text_canonical_example():
    assert poly_to_text(P("(1/2) + (1/2)*z^-1")) == "(1/2) + (1/2)*z^-1"
    assert poly_to_text(P("1 + z")) == "z + 1"
    assert poly_to_text(P("z") - P("z")) == "0"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("z^2-1", "z^2 - 1"),
        ("2-1", "1"),
        ("x-1/2", "x - (1/2)"),
        ("2*-1", "-2"),
        ("z^-1", "z^-1"),
        ("x*z^-2-3", "x*z^-2 - 3"),
        ("-2^2", "-4"),
        ("(-2)^2", "4"),
        ("--1", "1"),
        ("1--1", "2"),
    ],
)
def test_minus_is_always_an_operator(text, expected):
    # a "-" before a digit is never part of the number: "-2^2" is -(2^2)
    assert poly_to_text(P(text)) == expected


def test_pow_negative_monomial():
    m = P("2*x")
    assert m**-1 == P("(1/2)*x^-1")
    with pytest.raises(ValueError):
        (P("1 + x")) ** -1


@pytest.mark.parametrize("vars", [("y", "x"), ("x", "x")])
def test_unsorted_or_repeated_variables_raise_value_error(vars):
    with pytest.raises(ValueError, match="sorted and distinct"):
        LaurentPoly(QQ, vars, {(1, 2): 1})


def test_exponent_vector_of_wrong_length_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LaurentPoly(QQ, ("x", "y"), {(1,): 1})


def test_single_term_of_a_non_monomial_raises_value_error():
    f = poly_from_text("1 + x", QQ)
    with pytest.raises(ValueError, match="not a monomial"):
        f.single_term()
    with pytest.raises(ValueError, match="not a monomial"):
        LaurentPoly.zero(QQ).single_term()


def test_a_sum_of_4000_terms_parses_in_under_a_second():
    # 4000 distinct monomials: a running sum would copy its term map 4000 times
    terms = {}
    pieces = []
    for i in range(4000):
        exps, coeff = (i % 64 - 32, i // 64), Fraction(i % 9 + 1, i % 7 + 1) * (-1) ** i
        terms[exps] = coeff
        pieces.append(f"{'-' if coeff < 0 else '+'} {abs(coeff)}*x^{exps[0]}*y^{exps[1]}")
    text = " ".join(pieces).removeprefix("+ ")
    t0 = time.perf_counter()
    f = poly_from_text(text, QQ)
    elapsed = time.perf_counter() - t0
    assert f == LaurentPoly(QQ, ("x", "y"), terms)
    assert f.vars == ("x", "y") and len(f.terms) == 4000
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_a_sum_in_text_keeps_the_variables_of_cancelled_terms():
    f = P("x - x + y")
    assert f.vars == ("x", "y") and f == P("y")
    assert P("x^0 + y").vars == ("y",)


@pytest.mark.parametrize("text", ["x ", "x + 1 ", " x + 1\t\n", "(x + 1) ", "x^-2 ", "zeta "])
def test_whitespace_may_end_a_text(text):
    # "x " was refused as a bad character at " ", while " x" read as x
    assert P(text, Z4) == P(text.strip(), Z4)


@pytest.mark.parametrize("text", ["", " ", "  ", "\t\n"])
def test_an_empty_or_blank_text_is_refused_as_empty(text):
    with pytest.raises(ParseError) as info:
        P(text)
    assert str(info.value) == "empty polynomial text"


def test_whitespace_before_a_bad_character_is_still_named_with_it():
    with pytest.raises(ParseError) as info:
        P("x $ ")
    assert str(info.value) == "bad character at ' $ '"
