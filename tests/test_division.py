"""Exact division through a prepared Divisor, and the determinant and rank built on it.

The fraction-free elimination behind ``determinant`` and ``rank`` divides
every entry of an elimination step by one prepared divisor.  These tests hold
it to two oracles that share none of its code: the package's cofactor
expansion, and sympy over a polynomial domain (Q(zeta_N) reduced mod Phi_N
or as an algebraic field, F_p as a modulus domain): its determinant, and its
rank over the fraction field.  The matrices are random Laurent matrices up
to 6x6 whose pivots are zero, monomials or longer polynomials, and singular
ones whose elimination meets a column without a pivot.  The division itself
(``exact_div`` on polynomials, ``Divisor.divide_ints`` on the int maps of
integral ones) must undo a product, give the same quotients from one
prepared divisor as from a fresh one and from a reference monic long
division on the coefficients, and refuse an inexact division in every
ring.  Matrices of
dense linear forms up to 10x10 hold the determinant to the cofactor oracle
on dense pivots in several variables.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
# a wrong zeta fold can make a division or a reduction loop forever: fail instead
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import scalar_from_vector, vector_from_scalar  # noqa: E402

from paraunitary.errors import ExponentOverflow  # noqa: E402
from paraunitary.groups import cyclic, dihedral, elementary_abelian_2, symmetric_3  # noqa: E402
from paraunitary.idempotents import from_group, from_orthonormal_basis, merge, tensor_sets  # noqa: E402
from paraunitary.laurent import EXPONENT_BOUND, Divisor, LaurentPoly, exact_div  # noqa: E402
from paraunitary.polymatrix import PolyMatrix, combination, determinant, determinant_cofactor, rank, trace  # noqa: E402
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
        return coords.map(lambda c: scalar_from_vector(ring, c))
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
        coords = vector_from_scalar(c) if f.ring.kind == CYCLOTOMIC else (c.rational_value(),)
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
        [scalar_from_vector(ring, [rng.randint(-3, 3) for _ in range(ring.degree)]) for _ in range(3)]
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


LOW_RANK_RINGS = [QQ, cyclotomic(3), cyclotomic(4), cyclotomic(6), cyclotomic(8), prime_field(5), prime_field(7)]


@pytest.mark.parametrize("ring", LOW_RANK_RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=8)
@pytest.mark.time_bound(90)
def test_a_sum_of_fewer_outer_products_than_rows_has_the_sympy_rank_and_determinant_zero(ring, data):
    """Sum_k u_k v_k^T over r < n pairs of vectors: after the first pivot
    most elimination cells cancel to zero, as in the low-rank members of an
    idempotent set, and the rank must still be sympy's (at most r)."""
    sympy = pytest.importorskip("sympy")
    nvars = data.draw(st.integers(0, 1))
    # sympy's rank over Q(zeta_N)(x) takes seconds past 4x4
    n = data.draw(st.integers(2, 4 if nvars and ring.kind == CYCLOTOMIC else 8))
    r = data.draw(st.integers(1, n - 1))
    vector = st.lists(polys(ring, nvars, 2), min_size=n, max_size=n)
    grid = [[LaurentPoly.zero(ring, VARS[:nvars])] * n for _ in range(n)]
    for _ in range(r):
        u, v = data.draw(vector), data.draw(vector)
        grid = [[grid[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]
    m = PolyMatrix(ring, grid)
    assert rank(m) == _sympy_rank(m, sympy) <= r
    assert determinant(m).is_zero()


_TWO = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
_THREE = [
    [Fraction(2, 3), Fraction(1, 3), Fraction(2, 3)],
    [Fraction(1, 3), Fraction(2, 3), Fraction(-2, 3)],
    [Fraction(2, 3), Fraction(-2, 3), Fraction(-1, 3)],
]
Z3, Z4, Z6, Z8, F5, F7 = cyclotomic(3), cyclotomic(4), cyclotomic(6), cyclotomic(8), prime_field(5), prime_field(7)
THEOREM_SETS = {
    "group-d4-q": lambda: from_group(dihedral(4), QQ),
    "basis-q": lambda: from_orthonormal_basis(QQ, _THREE, [[0, 2], [1]]),
    "merge-s3-q": lambda: merge(from_group(symmetric_3(), QQ), [[0, 2], [1]]),
    "tensor-q": lambda: tensor_sets(from_orthonormal_basis(QQ, _TWO), from_group(symmetric_3(), QQ)),
    "tensor-z3": lambda: tensor_sets(from_orthonormal_basis(Z3, _TWO), from_group(cyclic(3), Z3)),
    "group-c4-z4": lambda: from_group(cyclic(4), Z4),
    "merge-c6-z6": lambda: merge(from_group(cyclic(6), Z6), [[0, 3], [1, 2, 5], [4]]),
    "group-c8-z8": lambda: from_group(cyclic(8), Z8),
    "basis-z8": lambda: from_orthonormal_basis(Z8, _THREE),
    "group-c2k-f5": lambda: from_group(elementary_abelian_2(2), F5),
    "tensor-f5": lambda: tensor_sets(from_group(cyclic(2), F5), from_group(elementary_abelian_2(2), F5)),
    "group-s3-f7": lambda: from_group(symmetric_3(), F7),
    "merge-basis-f7": lambda: merge(from_orthonormal_basis(F7, _THREE), [[0], [1, 2]]),
}


@pytest.mark.parametrize("name", sorted(THEOREM_SETS))
@given(data=st.data())
@settings(max_examples=6)
@pytest.mark.time_bound(90)
def test_the_determinant_of_a_combination_of_a_proven_set_is_the_product_of_its_coefficients_to_the_ranks(name, data):
    """det(sum_i q_i z^t_i E_i) = prod_i (q_i z^t_i)^rank(E_i) for a complete
    orthogonal set of idempotents E_i (the paper's determinant formula); the
    ranks sum to n, each is the trace of its member over Q and Q(zeta_N),
    and for n <= 6 the cofactor oracle gives the same determinant."""
    s = THEOREM_SETS[name]()
    ring = s.ring
    z = LaurentPoly.variable("z", ring)
    nonzero = scalars(ring).filter(lambda c: not c.is_zero())
    coeffs = [(data.draw(nonzero), data.draw(st.integers(-3, 3))) for _ in s.members]
    ranks = [rank(e) for e in s.members]
    assert sum(ranks) == s.n
    if ring.kind != PRIME_FIELD:
        assert all(trace(e) == r for e, r in zip(s.members, ranks))
    m = None
    for e, (q, t) in zip(s.members, coeffs):
        term = e.scale(z**t * q)
        m = term if m is None else m + term
    assert m == combination([z**t * q for q, t in coeffs], s.members)
    expected = LaurentPoly.constant(1, ring)
    for (q, t), r in zip(coeffs, ranks):
        expected = expected * (z**t * q) ** r
    det = determinant(m)
    assert det == expected
    if s.n <= 6:
        assert determinant_cofactor(m) == expected


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
    g = g * g.den  # integral, so that every dividend below has an integral quotient
    prepared = Divisor(g)
    for f in fs:
        f = f * f.den
        if not g.is_monomial():
            # a failed division leaves the prepared divisor as it was
            with pytest.raises(ArithmeticError):
                prepared.divide_ints((f * g + LaurentPoly.monomial(1, {"x": 1}, ring).with_vars(g.vars)).terms)
        quotient = prepared.divide_ints((f * g).terms)
        assert quotient == Divisor(g).divide_ints((f * g).terms) == f.terms
        quotient = exact_div(f * g, g)
        assert quotient == f and quotient.vars == g.vars


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
def test_a_dividend_over_other_variables_is_aligned_and_a_zero_divisor_refused(ring):
    g = LaurentPoly.variable("x", ring) + 1
    y = LaurentPoly.variable("y", ring)
    assert exact_div(y * g, g) == y
    with pytest.raises(ZeroDivisionError):
        Divisor(LaurentPoly.zero(ring, ("x",)))
    with pytest.raises(ZeroDivisionError):
        exact_div(y, LaurentPoly.zero(ring, ("x",)))


@per_ring
def test_a_quotient_term_out_of_range_raises_before_the_inexactness_is_found(ring):
    top = EXPONENT_BOUND - 1
    x = LaurentPoly.variable("x", ring)
    at_top = LaurentPoly.monomial(1, {"w": 1, "x": top, "y": -1}, ring)
    # the first quotient term is w x^(top+1) / y; the division is also inexact
    with pytest.raises(ExponentOverflow):
        exact_div(at_top + 1, x**-1 + x**-2)


@pytest.mark.parametrize("ring", [QQ, cyclotomic(8), prime_field(7)], ids=str)
def test_the_quotient_of_a_monomial_divisor_is_held_to_the_exponent_range(ring):
    """A monomial divisor divides by one key offset, with no division loop:
    x^(-2^29) / x leaves the range, and both entry points refuse it."""
    x = LaurentPoly.variable("x", ring)
    lowest = LaurentPoly.monomial(1, {"x": -EXPONENT_BOUND}, ring)
    with pytest.raises(ExponentOverflow):
        Divisor(x).divide_ints(lowest.terms)
    with pytest.raises(ExponentOverflow):
        exact_div(lowest, x)
    assert Divisor(x**-1).divide_ints(lowest.terms) == (lowest * x).terms


# --- the division against a reference long division ---------------------------

DIVISION_RINGS = [QQ, prime_field(7), cyclotomic(5), cyclotomic(8), cyclotomic(12)]
per_division_ring = pytest.mark.parametrize("ring", DIVISION_RINGS, ids=[str(r) for r in DIVISION_RINGS])


def _reference_quotient(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f / g by monic long division on ``coefficients()`` with ExactScalar
    arithmetic alone, so it shares no packed code with ``Divisor``: each
    step takes the leading term of the remainder (the largest exponent
    tuple, in lexicographic order) times lc(g)^-1 into the quotient.  A
    quotient exponent below min(f) - min(g) in some variable, a bound every
    term of an exact quotient keeps, means a remainder stays
    (ArithmeticError)."""
    rem, gterms = f.coefficients(), g.coefficients()
    glead = max(gterms)
    inv = gterms[glead].inverse()
    lo = [min(e[i] for e in rem) - min(e[i] for e in gterms) for i in range(len(f.vars))] if rem else []
    quot = {}
    while rem:
        top = max(rem)
        q = tuple(a - b for a, b in zip(top, glead))
        if any(a < b for a, b in zip(q, lo)):
            raise ArithmeticError("division is not exact")
        c = quot[q] = rem[top] * inv
        for e, a in gterms.items():
            key = tuple(x + y for x, y in zip(e, q))
            v = rem.get(key, 0) - c * a
            if v.is_zero():
                rem.pop(key, None)
            else:
                rem[key] = v
    return LaurentPoly(f.ring, f.vars, quot)


@per_division_ring
@given(data=st.data())
@settings(max_examples=25)
@pytest.mark.time_bound(60)
def test_one_prepared_divisor_gives_the_quotients_of_the_reference_division(ring, data):
    """f = q g gives q back from ``exact_div`` and from the reference, and
    its int map over q den(q) and g den(g), so integral, gives the int map of
    q den(q) back from one prepared divisor and from a fresh one; f = q g + r
    raises in every division, and leaves the prepared divisor as it was."""
    nvars = data.draw(st.integers(0, 2))
    g = data.draw(nonzero_polys(ring, nvars, 4))
    gi = g * g.den
    prepared = Divisor(gi)
    for q in data.draw(st.lists(polys(ring, nvars, 4), min_size=1, max_size=4)):
        f, qi = q * g, q * q.den
        assert exact_div(f, g) == _reference_quotient(f, g) == q
        assert prepared.divide_ints((qi * gi).terms) == Divisor(gi).divide_ints((qi * gi).terms) == qi.terms
        if nvars and not g.is_monomial():
            # g is no unit of the Laurent ring (those are its monomials), so it divides no monomial r
            exps = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars))
            r = LaurentPoly(ring, VARS[:nvars], {exps: data.draw(scalars(ring).filter(lambda c: not c.is_zero()))})
            with pytest.raises(ArithmeticError):
                exact_div(f + r, g)
            with pytest.raises(ArithmeticError):
                prepared.divide_ints((qi * gi + r * r.den).terms)
            with pytest.raises(ArithmeticError):
                _reference_quotient(f + r, g)


def _edge_divisors(ring):
    """Divisors whose integral form differs most from the monic one: a
    content and a denominator, negative leading coefficients, and over
    Q(zeta_N) the leading coefficient 2 + zeta_N, of norm Phi_N(-2) (11, 17
    and 13 for N = 5, 8 and 12), so no unit: there c is a multiple of the
    norm that does not divide the leading group 2 + zeta of the first
    step, and the loop scales."""
    x, y = (LaurentPoly.variable(v, ring) for v in "xy")
    out = [6 * x + 4, (6 * x + 4) * Fraction(1, 5), -3 * x**2 + y + Fraction(1, 2), -x * y - x + 7 * y**-1]
    if ring.kind == CYCLOTOMIC:
        z = scalar_from_vector(ring, [2, 1] + [0] * (ring.degree - 2))
        out += [z * x + 1, -z * x * y + 3 * y - 1, (z * x + y) * (z * x - z)]
    return out


@per_division_ring
@pytest.mark.time_bound(60)
def test_edge_divisors_give_the_quotients_of_the_reference_division(ring):
    x, y = (LaurentPoly.variable(v, ring) for v in "xy")
    quotients = [LaurentPoly.constant(1, ring), x + y + 1, Fraction(1, 3) * x**-1 - 2 * y, (x - y) ** 3 + 5]
    for g in _edge_divisors(ring):
        g = g.with_vars(VARS)
        gi = g * g.den
        prepared = Divisor(gi)
        for q in quotients:
            f, qi = (q * g).with_vars(VARS), (q * q.den).with_vars(VARS)
            assert exact_div(f, g) == _reference_quotient(f, g) == q
            # the same division on int maps, over q den(q) and g den(g)
            assert prepared.divide_ints((qi * gi).terms) == qi.terms
            with pytest.raises(ArithmeticError):
                exact_div(f + x, g)
            with pytest.raises(ArithmeticError):
                prepared.divide_ints((qi * gi + x).terms)
            with pytest.raises(ArithmeticError):
                _reference_quotient(f + x, g)


# --- the Baseline worst case: dense multivariate pivots -----------------------

def _linear_forms(n: int, ring) -> PolyMatrix:
    """The n x n matrix of 4-term linear forms a x + b y + c z + d (a..d in
    1..9) over Q, or (a + b zeta) x + (c + d zeta) y + (e + f zeta) over
    Q(zeta_N), drawn from ``random.Random(1)``."""
    rng = random.Random(1)
    x, y, z = (LaurentPoly.variable(v, ring) for v in "xyz")
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if ring.kind == CYCLOTOMIC:
                w = scalar_from_vector(ring, [0, 1] + [0] * (ring.degree - 2))
                a, b, c, d, e, f = (rng.randint(1, 9) for _ in range(6))
                row.append((a + b * w) * x + (c + d * w) * y + (e + f * w))
            else:
                a, b, c, d = (rng.randint(1, 9) for _ in range(4))
                row.append(a * x + b * y + c * z + d)
        rows.append(row)
    return PolyMatrix(ring, rows)


@pytest.mark.parametrize("n, ring", [(8, QQ), (8, cyclotomic(8)), (10, QQ)], ids=["8-Q", "8-Q(zeta_8)", "10-Q"])
@pytest.mark.time_bound(60)
def test_the_determinant_of_dense_linear_forms_equals_the_cofactor_oracle_and_the_cli(n, ring, tmp_path, capsys):
    """Every pivot of this elimination is a dense polynomial in several
    variables, and each division is by one of them."""
    from paraunitary import cli
    from paraunitary.serialize import matrix_to_json

    m = _linear_forms(n, ring)
    det = determinant(m)
    assert det == determinant_cofactor(m)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(m)))
    assert cli.main(["det", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == f"{det}\n"


# --- integral rows: each row scaled by the lcm of its own denominators --------

INTEGRAL_RINGS = [QQ, prime_field(7), cyclotomic(5), cyclotomic(8), cyclotomic(12)]


def _row_scalars(ring, den):
    """Scalars whose denominators divide ``den`` (a unit mod p over F_p);
    over Q(zeta_N) about half the coordinates are 0, which keeps the sympy
    rank oracle over the algebraic field within seconds."""
    if ring.kind == CYCLOTOMIC:
        coords = st.lists(st.one_of(st.just(0), st.integers(-4, 4)), min_size=ring.degree, max_size=ring.degree)
        return coords.map(lambda c: scalar_from_vector(ring, [Fraction(a, den) for a in c]))
    return st.integers(-6, 6).map(lambda a: ExactScalar.from_rational(ring, Fraction(a, den)))


@pytest.mark.parametrize("ring", INTEGRAL_RINGS, ids=[str(r) for r in INTEGRAL_RINGS])
@given(data=st.data())
@settings(max_examples=10)
@pytest.mark.time_bound(90)
def test_rows_with_distinct_denominators_give_the_oracles_determinant_and_rank(ring, data):
    """Every row has its own denominator (2, 3, 5, ... for rows 1, 2, 3,
    ...), so the elimination scales each row by a different lcm; the
    determinant and rank must still equal the cofactor and sympy oracles."""
    sympy = pytest.importorskip("sympy")
    # sympy's rank over Q(zeta_N)(x, y) takes seconds from 4x4 on
    n = data.draw(st.integers(1, 3 if ring.kind == CYCLOTOMIC else 5))
    nvars = data.draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    grid = []
    for den in (2, 3, 5, 9, 4)[:n]:
        terms = st.dictionaries(exps, _row_scalars(ring, den), max_size=3)
        grid.append([LaurentPoly(ring, VARS[:nvars], data.draw(terms)) for _ in range(n)])
    if n > 2 and data.draw(st.booleans()):
        grid[-1] = [a * Fraction(1, 4) - b for a, b in zip(grid[0], grid[1])]  # a dependent row
    m = PolyMatrix(ring, grid)
    det = determinant(m)
    assert det == determinant_cofactor(m)
    _assert_matches_sympy(m, det)
    assert rank(m) == _sympy_rank(m, sympy)


@pytest.mark.parametrize("ring", INTEGRAL_RINGS, ids=[str(r) for r in INTEGRAL_RINGS])
def test_an_inexact_or_non_integral_quotient_of_int_maps_raises(ring):
    """``Divisor.divide_ints`` takes the int map of a polynomial over the
    denominator 1 and returns an integral quotient: a dividend that g does
    not divide, or one whose quotient has a denominator, raises."""
    x, y = (LaurentPoly.variable(v, ring) for v in "xy")
    g = (3 * x + y - 1).with_vars(VARS)
    prepared = Divisor(g)
    q = (x * y - 2 * y**-1 + 4).with_vars(VARS)
    assert prepared.divide_ints((q * g).terms) == q.terms
    with pytest.raises(ArithmeticError):
        prepared.divide_ints((q * g + x).with_vars(VARS).terms)
    if ring.kind != PRIME_FIELD:
        # (3x + y - 1) / 2 divides 3x + y - 1, but the quotient 2 is over 1;
        # 3x + y - 1 divided by 2 (3x + y - 1) is 1/2: not integral
        double = Divisor((2 * g).with_vars(VARS))
        assert double.divide_ints((4 * g).terms) == (LaurentPoly.constant(2, ring).with_vars(VARS)).terms
        with pytest.raises(ArithmeticError):
            double.divide_ints(g.terms)


@per_ring
def test_each_elimination_step_prepares_a_divisor_only_for_a_cell_it_divides(ring, monkeypatch):
    """A step whose cells below the pivot are all zero, as the last step
    always is, prepares no Divisor: every one prepared divides a cell."""
    from paraunitary import laurent

    built = []

    class Counting(Divisor):
        __slots__ = ("divided",)

        def __init__(self, g):
            super().__init__(g)
            self.divided = False
            built.append(self)

        def divide_ints(self, terms):
            self.divided = self.divided or bool(terms)
            return super().divide_ints(terms)

    monkeypatch.setattr(laurent, "Divisor", Counting)
    x = LaurentPoly.variable("x", ring)
    one = LaurentPoly.constant(ExactScalar.from_rational(ring, 1))
    m = PolyMatrix(ring, [[x, one, one], [one, x, one], [one, one, x]])
    assert determinant(m) == determinant_cofactor(m)
    # the pivot of step 1 divides the 2x2 cells left after step 2; step 3 has no cells
    assert len(built) == 1 and built[0].divided
    # the second row a multiple of the first: step 2 leaves only zero cells below its pivot
    built.clear()
    assert rank(PolyMatrix(ring, [[x, one, one], [x * x, x, x], [one, x, one]])) == 2
    assert all(d.divided for d in built)
