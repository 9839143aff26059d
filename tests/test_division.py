"""Exact division through a prepared Divisor, and the determinant and rank built on it.

The fraction-free elimination behind ``determinant`` and ``rank`` divides
every entry of an elimination step by one prepared divisor.  These tests hold
it to two oracles that share none of its code: the package's cofactor
expansion, and sympy over a polynomial domain (Q(zeta_N) reduced mod Phi_N
or as an algebraic field, F_p as a modulus domain): its determinant, and its
rank over the fraction field.  The matrices are random Laurent matrices up
to 6x6 whose pivots are zero, monomials or longer polynomials, and singular
ones whose elimination meets a column without a pivot.  The division itself
must undo a product, give the same quotients from one prepared divisor as
from a fresh one, and refuse an inexact division in every ring.
"""

import itertools
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
# a wrong zeta fold can make a division or a reduction loop forever: fail instead
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paraunitary.errors import ExponentOverflow  # noqa: E402
from paraunitary.laurent import EXPONENT_BOUND, Divisor, LaurentPoly, exact_div  # noqa: E402
from paraunitary.polymatrix import PolyMatrix, determinant, determinant_cofactor, rank  # noqa: E402
from paraunitary.scalars import CYCLOTOMIC, PRIME_FIELD, QQ, ExactScalar, cyclotomic, prime_field  # noqa: E402

RINGS = [QQ, cyclotomic(8), cyclotomic(3), prime_field(7)]
per_ring = pytest.mark.parametrize("ring", RINGS, ids=[str(r) for r in RINGS])
VARS = ("x", "y")


def scalars(ring):
    """Nonzero-or-zero coefficients with small numerators and denominators."""
    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if ring.kind == PRIME_FIELD:
        return st.integers(0, ring.p - 1).map(lambda v: ExactScalar.from_rational(ring, v))
    if ring.kind == CYCLOTOMIC:
        coords = st.lists(st.one_of(st.just(Fraction(0)), small), min_size=ring.degree, max_size=ring.degree)
        return coords.map(lambda c: ExactScalar.from_vector(ring, c))
    return small.map(lambda q: ExactScalar.from_rational(ring, q))


def polys(ring, nvars, max_terms=3):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    return st.dictionaries(exps, scalars(ring), max_size=max_terms).map(
        lambda terms: LaurentPoly(ring, VARS[:nvars], terms)
    )


def nonzero_polys(ring, nvars, max_terms=3):
    return polys(ring, nvars, max_terms).filter(lambda f: not f.is_zero())


def entries(ring, nvars):
    """Zero, a monomial, or a longer polynomial: every kind of pivot."""
    return st.one_of(st.just(LaurentPoly.zero(ring, VARS[:nvars])), polys(ring, nvars, 1), polys(ring, nvars, 3))


# --- the sympy oracle -------------------------------------------------------

def _sympy_det(m: PolyMatrix, sympy):
    """det(m) times x^(n s_x) y^(n s_y), as a sympy expression reduced in the ring.

    Every entry is first multiplied by x^s_x y^s_y, which clears all negative
    exponents, so sympy sees a matrix over a polynomial domain."""
    from sympy.polys.matrices import DomainMatrix

    ring, n = m.ring, m.rows
    w = sympy.Symbol("w")
    gens = sympy.symbols(VARS)
    shift = _clearing_shift(m)
    dom = sympy.GF(ring.p)[gens] if ring.kind == PRIME_FIELD else sympy.QQ[(w,) + gens]

    def expr(e):
        return _to_sympy(e, sympy, w, gens) * sympy.Mul(*[g**s for g, s in zip(gens, shift)])

    dm = DomainMatrix([[dom.from_sympy(sympy.expand(expr(e))) for e in row] for row in m.entries], (n, n), dom)
    det = dom.to_sympy(dm.det())
    if ring.kind == CYCLOTOMIC:
        det = sympy.rem(det, sympy.cyclotomic_poly(ring.conductor, w), w)
    scale = sympy.Mul(*[g ** (n * s) for g, s in zip(gens, shift)])
    return dom, det, scale


def _clearing_shift(m: PolyMatrix) -> list[int]:
    """Per variable of ``VARS``, the power that clears every negative exponent of m."""
    shift = [0] * len(VARS)
    for row in m.entries:
        for e in row:
            for exps in e.coefficients():
                for i, v in enumerate(m.vars):
                    shift[VARS.index(v)] = max(shift[VARS.index(v)], -exps[i])
    return shift


def _sympy_rank(m: PolyMatrix, sympy) -> int:
    """rank(m) over the fraction field, by sympy: the pivot count of its
    fraction-free reduced row echelon form (``rref_den``) over the polynomial
    domain.  Every entry is multiplied by one monomial that clears all
    negative exponents, a unit, so the rank is kept; zeta_N is an algebraic
    number here, not a free symbol.  (``to_field().rank()`` gives the same
    ranks, but takes seconds over Q(zeta_N)(x, y), and sympy 1.14 cannot
    convert GF(p)[x, y] to its fraction field.)"""
    from sympy.polys.matrices import DomainMatrix

    ring = m.ring
    w = sympy.Symbol("w")
    gens = sympy.symbols(VARS)
    zeta = sympy.exp(2 * sympy.pi * sympy.I / ring.conductor) if ring.kind == CYCLOTOMIC else w
    if ring.kind == CYCLOTOMIC:
        base = sympy.QQ.algebraic_field(zeta)
    else:
        base = sympy.GF(ring.p) if ring.kind == PRIME_FIELD else sympy.QQ
    dom = base[gens]
    unit = sympy.Mul(*[g**s for g, s in zip(gens, _clearing_shift(m))])

    def convert(e):
        return dom.from_sympy(sympy.expand((_to_sympy(e, sympy, w, gens) * unit).subs(w, zeta)))

    _, _, pivots = DomainMatrix([[convert(e) for e in row] for row in m.entries], (m.rows, m.cols), dom).rref_den()
    return len(pivots)


def _to_sympy(f: LaurentPoly, sympy, w, gens):
    out = 0
    for exps, c in f.coefficients().items():
        coords = c.coeffs() if f.ring.kind == CYCLOTOMIC else (c.rational_value(),)
        coeff = sum(sympy.Rational(q.numerator, q.denominator) * w**i for i, q in enumerate(coords))
        out += coeff * sympy.Mul(*[gens[VARS.index(v)] ** e for v, e in zip(f.vars, exps)])
    return out


def _assert_matches_sympy(m: PolyMatrix, det: LaurentPoly):
    sympy = pytest.importorskip("sympy")
    dom, expected, scale = _sympy_det(m, sympy)
    got = sympy.expand(_to_sympy(det, sympy, sympy.Symbol("w"), sympy.symbols(VARS)) * scale)
    assert dom.from_sympy(got) == dom.from_sympy(sympy.expand(expected))


@per_ring
@given(data=st.data())
@settings(max_examples=20)
def test_determinant_equals_the_cofactor_and_sympy_oracles(ring, data):
    n = data.draw(st.integers(1, 6))
    nvars = data.draw(st.integers(0, 2))
    grid = [[data.draw(entries(ring, nvars)) for _ in range(n)] for _ in range(n)]
    if n > 2 and data.draw(st.booleans()):
        grid[n - 1] = list(grid[0])  # a repeated row: the determinant is zero
    m = PolyMatrix(ring, grid)
    det = determinant(m)
    assert det == determinant_cofactor(m)
    _assert_matches_sympy(m, det)


def _leibniz(m: PolyMatrix) -> LaurentPoly:
    """det(m) as the Leibniz sum over all permutations, with LaurentPoly * and
    + alone: no pivot, no division and no memo."""
    n = m.rows
    total = LaurentPoly.zero(m.ring, m.vars)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = LaurentPoly.constant(-1 if inversions % 2 else 1, m.ring)
        for i, j in enumerate(perm):
            term = term * m.entries[i][j]
        total = total + term
    return total


LEIBNIZ_RINGS = [QQ, prime_field(5), cyclotomic(8)]


@pytest.mark.parametrize("ring", LEIBNIZ_RINGS, ids=[str(r) for r in LEIBNIZ_RINGS])
@given(data=st.data())
@settings(max_examples=25)
def test_determinant_and_cofactor_equal_the_leibniz_sum(ring, data):
    n = data.draw(st.integers(1, 5))
    nvars = data.draw(st.integers(0, 2))
    grid = [[data.draw(entries(ring, nvars)) for _ in range(n)] for _ in range(n)]
    defect = data.draw(st.sampled_from(["none", "zero row", "repeated row"]))
    if defect == "zero row":
        grid[data.draw(st.integers(0, n - 1))] = [LaurentPoly.zero(ring)] * n
    elif defect == "repeated row" and n > 1:
        grid[n - 1] = list(grid[0])
    m = PolyMatrix(ring, grid)
    expected = _leibniz(m)
    assert determinant(m) == expected
    assert determinant_cofactor(m) == expected
    if defect != "none" and n > 1:
        assert expected.is_zero()


@per_ring
def test_determinant_at_a_zero_leading_pivot_matches_sympy(ring):
    x = LaurentPoly.variable("x", ring)
    y = LaurentPoly.variable("y", ring)
    # every step needs a row swap; the second divisor is a monomial, the third is not
    m = PolyMatrix(ring, [
        [0, x, 1 + y, 2],
        [x**-1, 0, y, x * y],
        [3, y**-2, 0, 1 - x],
        [x + y**-1, 1, x**2, 0],
    ])
    det = determinant(m)
    assert det == determinant_cofactor(m)
    _assert_matches_sympy(m, det)


def test_determinant_of_a_dense_cyclotomic_matrix_matches_sympy():
    """A 3x3 matrix of dense Q(zeta_256) constants: each elimination step
    inverts a pivot with 128 power-basis coordinates."""
    ring = cyclotomic(256)
    rng = random.Random(256)
    m = PolyMatrix(ring, [
        [ExactScalar.from_vector(ring, [rng.randint(-3, 3) for _ in range(ring.degree)]) for _ in range(3)]
        for _ in range(3)
    ])
    _assert_matches_sympy(m, determinant(m))


@per_ring
@given(data=st.data())
@settings(max_examples=15)
def test_rank_equals_the_sympy_oracle(ring, data):
    sympy = pytest.importorskip("sympy")
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    nvars = data.draw(st.integers(0, 2))
    grid = [[data.draw(entries(ring, nvars)) for _ in range(cols)] for _ in range(rows)]
    defect = data.draw(st.sampled_from(["none", "dependent row", "zero column"]))
    if defect == "dependent row" and rows > 2:
        # the last row is a polynomial combination of the first two
        f, g = data.draw(polys(ring, nvars, 2)), data.draw(polys(ring, nvars, 2))
        grid[-1] = [f * a + g * b for a, b in zip(grid[0], grid[1])]
    elif defect == "zero column":
        j = data.draw(st.integers(0, cols - 1))
        for row in grid:
            row[j] = LaurentPoly.zero(ring, VARS[:nvars])
    m = PolyMatrix(ring, grid)
    r = rank(m)
    assert r == _sympy_rank(m, sympy)
    if rows == cols:
        assert (r == rows) == (not determinant(m).is_zero())


def _singular_with_a_skipped_column(ring, defect):
    """A 4x4 of rank 3 whose elimination meets a column without a pivot
    before its last column, so pivots and exact divisions go on after it."""
    x = LaurentPoly.variable("x", ring)
    y = LaurentPoly.variable("y", ring)
    if defect == "zero column":
        return PolyMatrix(ring, [
            [x, 0, 1 + y, 2],
            [y**-1, 0, x * y, 1],
            [3, 0, 0, 1 - x],
            [x + y**-1, 0, x**2, y],
        ])
    # row 2 is x times row 1 minus row 0, so column 1 has no pivot after two steps
    r0, r1 = [1, y, 1 + x, x**-1], [x, x * y + 1, y, 2]
    return PolyMatrix(ring, [r0, r1, [x * b - a for a, b in zip(r0, r1)], [y**2, 1, x - y, 3]])


@per_ring
@pytest.mark.parametrize("defect", ["zero column", "dependent row"])
def test_a_column_without_a_pivot_gives_determinant_zero_and_the_rank(ring, defect):
    sympy = pytest.importorskip("sympy")
    m = _singular_with_a_skipped_column(ring, defect)
    det = determinant(m)
    assert det.is_zero() and det == determinant_cofactor(m)
    _assert_matches_sympy(m, det)
    assert rank(m) == _sympy_rank(m, sympy) == 3


# --- exact division -----------------------------------------------------------

@per_ring
@given(data=st.data())
@settings(max_examples=25)
def test_exact_division_undoes_a_product(ring, data):
    nvars = data.draw(st.integers(0, 2))
    f = data.draw(polys(ring, nvars, 4))
    g = data.draw(nonzero_polys(ring, nvars, 4))
    assert exact_div(f * g, g) == f


@per_ring
@given(data=st.data())
@settings(max_examples=15)
def test_one_prepared_divisor_gives_the_quotients_of_a_fresh_one(ring, data):
    nvars = data.draw(st.integers(1, 2))
    g = data.draw(nonzero_polys(ring, nvars, 4))
    fs = data.draw(st.lists(polys(ring, nvars, 4), min_size=1, max_size=8))
    prepared = Divisor(g)
    for f in fs:
        if not g.is_monomial():
            # a failed division leaves the prepared divisor as it was
            with pytest.raises(ArithmeticError):
                prepared.divide(f * g + LaurentPoly.monomial(1, {"x": 1}, ring).with_vars(g.vars))
        quotient = prepared.divide(f * g)
        assert quotient == Divisor(g).divide(f * g) == f
        assert quotient.vars == g.vars


@per_ring
@given(data=st.data())
@settings(max_examples=20)
def test_an_inexact_division_raises_in_every_ring(ring, data):
    nvars = data.draw(st.integers(1, 2))
    g = data.draw(nonzero_polys(ring, nvars, 4).filter(lambda g: not g.is_monomial()))
    f = data.draw(polys(ring, nvars, 4))
    exps = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars))
    c = data.draw(scalars(ring).filter(lambda c: not c.is_zero()))
    # g is not a unit of the Laurent ring, so it divides no monomial: f g + r is not a multiple of g
    r = LaurentPoly(ring, VARS[:nvars], {exps: c})
    with pytest.raises(ArithmeticError):
        exact_div(f * g + r, g)


@per_ring
def test_a_divisor_refuses_a_dividend_over_other_variables(ring):
    g = LaurentPoly.variable("x", ring) + 1
    with pytest.raises(ValueError):
        Divisor(g).divide(LaurentPoly.variable("y", ring))
    with pytest.raises(ZeroDivisionError):
        Divisor(LaurentPoly.zero(ring, ("x",)))


@per_ring
def test_a_quotient_term_out_of_range_raises_before_the_inexactness_is_found(ring):
    top = EXPONENT_BOUND - 1
    x = LaurentPoly.variable("x", ring)
    at_top = LaurentPoly.monomial(1, {"w": 1, "x": top, "y": -1}, ring)
    # the first quotient term is w x^(top+1) / y; the division is also inexact
    with pytest.raises(ExponentOverflow):
        exact_div(at_top + 1, x**-1 + x**-2)
