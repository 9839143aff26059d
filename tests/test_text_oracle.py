"""The text grammar against the reference paths it replaces.

The printer prints each term from the packed numerators over the
polynomial's denominator; the reference below is the printer that builds
one scalar per term (``coefficients()``) and prints it.  The parser reads
``zeta^k`` as one power-table row and ``name^e`` as one packed key; the
reference reads them as products, by repeated squaring of ``zeta`` and of
the variable (``laurent._power``).  Both must agree exactly: the same
text, and the same ``vars``, ``terms`` and ``den`` read back.
"""

import math
import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import scalar_from_vector  # noqa: E402

from paraunitary.errors import ParseError  # noqa: E402
from paraunitary.laurent import MAX_EXPONENT, LaurentPoly, _power, poly_from_text, poly_to_text  # noqa: E402
from paraunitary.scalars import (  # noqa: E402
    CYCLOTOMIC,
    PRIME_FIELD,
    QQ,
    ExactScalar,
    cyclotomic,
    prime_field,
    zeta,
)

RINGS = [QQ, cyclotomic(3), cyclotomic(4), cyclotomic(5), cyclotomic(8), cyclotomic(12), prime_field(2), prime_field(7)]
CYCLOTOMIC_RINGS = [r for r in RINGS if r.kind == CYCLOTOMIC]
VARS = ("a", "x", "y", "z9")


# --- the reference printer: one scalar per term ----------------------------

def _ratio_text(n: int, d: int) -> str:
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _scalar_text(a: ExactScalar) -> str:
    nums, den = a.value
    if not any(nums[1:]):
        text = _ratio_text(nums[0], den)
        return f"({text})" if "/" in text else text
    parts = []
    for i, c in enumerate(nums):
        if not c:
            continue
        mag = _ratio_text(abs(c), den)
        if i == 0:
            body = mag
        else:
            power = "zeta" if i == 1 else f"zeta^{i}"
            body = power if mag == "1" else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return "(" + " ".join(parts) + ")"


def reference_text(f: LaurentPoly) -> str:
    if not f.terms:
        return "0"
    coeffs = f.coefficients()
    pieces = []
    for exps in sorted(coeffs, reverse=True):
        coeff = coeffs[exps]
        neg = next(c for c in coeff.value[0] if c) < 0
        mag = -coeff if neg else coeff
        factors = [(v if e == 1 else f"{v}^{e}") for v, e in zip(f.vars, exps) if e]
        if not factors:
            body = _scalar_text(mag)
        elif mag.is_one():
            body = "*".join(factors)
        else:
            body = _scalar_text(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


# --- the reference reads of zeta^k and x^e: products ------------------------

def reference_zeta_power(ring, k: int) -> LaurentPoly:
    return _power(LaurentPoly.constant(zeta(ring)), k, operator.mul)


def reference_variable_power(ring, name: str, e: int) -> LaurentPoly:
    return _power(LaurentPoly.variable(name, ring), e, operator.mul)


def _same(f: LaurentPoly, g: LaurentPoly) -> bool:
    return (f.vars, f.terms, f.den) == (g.vars, g.terms, g.den)


# --- polynomials ------------------------------------------------------------

_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def _coefficients(ring):
    if ring.kind == PRIME_FIELD:
        return st.integers(0, 3 * ring.p).map(lambda v: ExactScalar.from_rational(ring, v))
    if ring.kind == CYCLOTOMIC:
        coord = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), st.just(Fraction(-1)), _fractions)
        return st.lists(coord, min_size=ring.degree, max_size=ring.degree).map(
            lambda c: scalar_from_vector(ring, c)
        )
    return _fractions.map(lambda q: ExactScalar.from_rational(ring, q))


@st.composite
def polys(draw, ring):
    """A polynomial on a subset of VARS, one of which may go unused, whose
    terms have distinct denominators, so that a term's numerators over the
    shared ``den`` need not be in lowest terms."""
    vars = tuple(v for v in VARS if draw(st.booleans()))
    exps = st.tuples(*[st.integers(-3, 3) for _ in vars])
    terms = draw(st.dictionaries(exps, _coefficients(ring), max_size=5))
    return LaurentPoly(ring, vars, terms)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=80)
def test_the_text_is_the_reference_text_and_reads_back_to_the_polynomial(ring, data):
    f = data.draw(polys(ring))
    text = poly_to_text(f)
    assert text == reference_text(f)
    back, canonical = poly_from_text(text, ring), f.compact()
    assert _same(back, canonical)
    assert poly_to_text(back) == text
    # the same text read after the term is negated, and with blanks around it
    assert _same(poly_from_text(f" -({text}) ", ring), (-f).compact())


@pytest.mark.parametrize("ring", CYCLOTOMIC_RINGS, ids=str)
def test_every_admitted_power_of_zeta_reads_as_the_products_do(ring):
    for k in range(-MAX_EXPONENT, MAX_EXPONENT + 1):
        want = reference_zeta_power(ring, k)
        assert _same(poly_from_text(f"zeta^{k}", ring), want), k
        assert _same(poly_from_text(f"-zeta^{k}", ring), -want), k


@pytest.mark.parametrize("ring", [QQ, cyclotomic(8), prime_field(7)], ids=str)
def test_every_admitted_power_of_a_variable_reads_as_the_products_do(ring):
    for e in range(-MAX_EXPONENT, MAX_EXPONENT + 1):
        want = reference_variable_power(ring, "y9", e)
        assert _same(poly_from_text(f"y9^{e}", ring), want), e
        assert _same(poly_from_text(f"-y9^{e}", ring), -want), e
        assert _same(poly_from_text(f"2*y9^{e}", ring), want * 2), e
    # y^0 is the constant 1 on no variables, as the products give it
    assert poly_from_text("y9^0", ring).vars == ()


@pytest.mark.parametrize(
    "text, ring, message",
    [
        ("zeta^1025", cyclotomic(8), "exponent 1025 exceeds the input limit of 1024 in magnitude"),
        ("zeta^-1025", cyclotomic(8), "exponent 1025 exceeds the input limit of 1024 in magnitude"),
        ("x^1025", QQ, "exponent 1025 exceeds the input limit of 1024 in magnitude"),
        ("x^-1025", QQ, "exponent 1025 exceeds the input limit of 1024 in magnitude"),
        ("(1 + x)^-1", QQ, "a negative power needs a monomial base"),
        ("zeta^2", QQ, "'zeta' only meaningful in a cyclotomic ring"),
        ("x^-", QQ, "bad exponent"),
        ("zeta^1/2", cyclotomic(4), "bad exponent"),
    ],
)
def test_the_refusals_of_powers_are_unchanged(text, ring, message):
    with pytest.raises(ParseError) as info:
        poly_from_text(text, ring)
    assert str(info.value) == message
