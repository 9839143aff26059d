"""The packed product kernel and the paraunitary proof kept on a matrix.

``laurent.dot`` must equal the fold of ``ExactScalar`` ``*`` and ``+``,
canonical form included: on constants (a sum of products of scalars) and
term by term on polynomials in 0, 3 and 32 variables, with negative
exponents, mixed denominators and exact cancellation.  Exponents that leave
the packed fields raise ``ExponentOverflow``, and a determinant of entries at
the input exponent limit stays inside them.  ``is_paraunitary`` records a
pass on its matrix, and ``monomial_sum`` records its rule: the tests check
that ``tangle`` then reuses the proofs of its blocks, that a failure is
never recorded, and that no derived matrix inherits the record.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
# a wrong zeta fold can make a division or a reduction loop forever: fail instead
pytestmark = pytest.mark.time_bound(120)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _fixtures import F7, F7_SET_A  # noqa: E402
from _random_objects import Z8, random_assignment  # noqa: E402
from test_scalar_properties import RING_IDS, RINGS, canonical, elements  # noqa: E402

from paraunitary import laurent, polymatrix  # noqa: E402
from paraunitary.constructors import (  # noqa: E402
    MonomialAssignment,
    all_tangle_variants,
    monomial_sum,
    tangle,
)
from paraunitary.errors import ExponentOverflow  # noqa: E402
from paraunitary.groups import cyclic  # noqa: E402
from paraunitary.idempotents import IdempotentSet, diagonal_set, from_group  # noqa: E402
from paraunitary.laurent import (  # noqa: E402
    EXPONENT_BOUND,
    MAX_EXPONENT,
    LaurentPoly,
    dot,
    exact_div,
    poly_from_text,
    poly_to_text,
)
from paraunitary.polymatrix import PolyMatrix, determinant, determinant_cofactor, is_paraunitary  # noqa: E402
from paraunitary.scalars import ExactScalar, zero  # noqa: E402

per_ring = pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
few = settings(max_examples=40)
# drawing polynomial lists costs hypothesis more than the checks cost
fewer = settings(max_examples=25)


def _fold(ring, xs, ys):
    acc = zero(ring)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _sum_of_products(ring, xs, ys):
    """The kernel on constants: sum(x * y) as one ``dot`` call."""
    got = dot(ring, (), [LaurentPoly.constant(x) for x in xs], [LaurentPoly.constant(y) for y in ys])
    assert got.vars == () and got.is_constant()
    return canonical(got.constant_value())


# --- sums of products of scalars ------------------------------------------

@per_ring
@given(data=st.data())
@few
def test_sum_of_products_equals_the_fold(ring, data):
    k = data.draw(st.integers(0, 6))
    xs = data.draw(st.lists(elements(ring), min_size=k, max_size=k))
    ys = data.draw(st.lists(elements(ring), min_size=k, max_size=k))
    got = _sum_of_products(ring, xs, ys)
    assert got.ring is ring
    assert got == _fold(ring, xs, ys)
    assert got.value == _fold(ring, xs, ys).value


@per_ring
@given(data=st.data())
@few
def test_sum_of_products_cancels_exactly_to_canonical_zero(ring, data):
    xs = data.draw(st.lists(elements(ring), min_size=1, max_size=4))
    ys = data.draw(st.lists(elements(ring), min_size=len(xs), max_size=len(xs)))
    # every product appears once with each sign, in a drawn order
    pairs = [(x, y) for x, y in zip(xs, ys)] + [(x, -y) for x, y in zip(xs, ys)]
    pairs = data.draw(st.permutations(pairs))
    got = _sum_of_products(ring, [p[0] for p in pairs], [p[1] for p in pairs])
    assert got.is_zero()
    assert got.value == zero(ring).value


def _with_den(ring, rng, den):
    if ring.kind == "cyclotomic":
        return ExactScalar.from_vector(
            ring, [Fraction(rng.randint(-9, 9), den) for _ in range(ring.degree)]
        )
    if ring.kind == "prime_field" and den % ring.p == 0:
        den = 1
    return ExactScalar.from_rational(ring, Fraction(rng.randint(-9, 9), den))


@per_ring
def test_sum_of_products_over_mixed_denominators(ring):
    rng = random.Random(3)
    dens = [1, 2, 3, 4, 6, 9, 12, 5] * 2
    xs = [_with_den(ring, rng, d) for d in dens]
    ys = [_with_den(ring, rng, rng.choice((1, 2, 7))) for _ in dens]
    got = _sum_of_products(ring, xs, ys)
    assert got.value == _fold(ring, xs, ys).value


# --- laurent.dot ------------------------------------------------------------

VARS = {n: ("x", "y", "z")[:n] for n in (0, 3)}
VARS[32] = tuple(f"v{i:02d}" for i in range(32))


def _sparse_exponents(nvars):
    # in 32 variables most exponents are zero, as in the tangle-32x32 entries
    return st.dictionaries(st.integers(0, nvars - 1), st.integers(-2, 2), max_size=3).map(
        lambda nonzero: tuple(nonzero.get(i, 0) for i in range(nvars))
    )


def polys(ring, nvars):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars) if nvars < 32 else _sparse_exponents(nvars)
    return st.dictionaries(exps, elements(ring), max_size=4).map(
        lambda terms: LaurentPoly(ring, VARS[nvars], terms)
    )


def _naive_dot(ring, fs, gs):
    acc = {}
    for f, g in zip(fs, gs):
        for e1, c1 in f.coefficients().items():
            for e2, c2 in g.coefficients().items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, zero(ring)) + c1 * c2
    return {k: v for k, v in acc.items() if not v.is_zero()}


@per_ring
@pytest.mark.parametrize("nvars", [0, 3, 32])
@given(data=st.data())
@fewer
def test_dot_equals_the_naive_product_and_sum(ring, nvars, data):
    k = data.draw(st.integers(1, 4))
    fs = data.draw(st.lists(polys(ring, nvars), min_size=k, max_size=k))
    gs = data.draw(st.lists(polys(ring, nvars), min_size=k, max_size=k))
    got = dot(ring, VARS[nvars], fs, gs)
    assert got.vars == VARS[nvars]
    assert got.coefficients() == _naive_dot(ring, fs, gs)
    for c in got.coefficients().values():
        assert not canonical(c).is_zero()
    # LaurentPoly.__mul__ is the one-pair case of the same kernel
    assert (fs[0] * gs[0]).coefficients() == _naive_dot(ring, fs[:1], gs[:1])
    # exact division undoes a product
    if not gs[0].is_zero():
        assert exact_div(fs[0] * gs[0], gs[0]) == fs[0]


@per_ring
@given(data=st.data())
@fewer
def test_dot_drops_terms_that_cancel(ring, data):
    f = data.draw(polys(ring, 3))
    g = data.draw(polys(ring, 3))
    got = dot(ring, VARS[3], (f, f), (g, -g))
    assert got.is_zero() and got.coefficients() == {}


# --- sums and powers in polynomial text -------------------------------------

def _monomials(ring):
    """Nonzero one-term polynomials; a rational coefficient is one packed key."""
    rational = st.integers(-4, 4).filter(lambda c: c % 7).map(lambda c: ExactScalar.from_rational(ring, c))
    coeff = st.one_of(rational, elements(ring).filter(lambda c: not c.is_zero()))
    exps = st.tuples(*[st.integers(-3, 3)] * 3)
    return st.tuples(coeff, exps).map(lambda ce: LaurentPoly(ring, VARS[3], {ce[1]: ce[0]}))


@per_ring
@given(data=st.data())
@fewer
def test_a_sum_in_text_equals_the_fold_of_its_terms(ring, data):
    fs = data.draw(st.lists(polys(ring, 3), min_size=1, max_size=6))
    minus = data.draw(st.lists(st.booleans(), min_size=len(fs), max_size=len(fs)))
    text, expected = f"({poly_to_text(fs[0])})", fs[0]
    for f, neg in zip(fs[1:], minus[1:]):
        text += f" {'-' if neg else '+'} ({poly_to_text(f)})"
        expected = expected - f if neg else expected + f
    got = poly_from_text(text, ring)
    assert got == expected
    assert got.with_vars(VARS[3]).terms == expected.terms and got.den == expected.den


@per_ring
@given(data=st.data())
@fewer
def test_a_power_equals_the_product_of_its_factors(ring, data):
    f = data.draw(st.one_of(_monomials(ring), polys(ring, 3)))
    k = data.draw(st.integers(1, 5))
    expected = f
    for _ in range(k - 1):
        expected = dot(ring, VARS[3], (expected,), (f,))
    for got in (f**k, poly_from_text(f"({poly_to_text(f)})^{k}", ring).with_vars(VARS[3])):
        assert got.vars == VARS[3]
        assert got.terms == expected.terms and got.den == expected.den
    if f.is_monomial() and not f.is_zero():
        assert f**-k * f**k == LaurentPoly.constant(1, ring)


# --- the exponent range of a packed key --------------------------------------

@per_ring
def test_an_exponent_one_step_past_the_range_raises_instead_of_wrapping(ring):
    top, bottom = EXPONENT_BOUND - 1, -EXPONENT_BOUND
    # x in the middle field: an unchecked carry or borrow would land in w or y
    at_top = LaurentPoly.monomial(1, {"w": 1, "x": top, "y": -1}, ring)
    at_bottom = LaurentPoly.monomial(1, {"w": 1, "x": bottom, "y": -1}, ring)
    x = LaurentPoly.variable("x", ring)
    assert (at_top * x**-1).coefficients() == {(1, top - 1, -1): ExactScalar.from_rational(ring, 1)}
    assert (at_bottom * x).coefficients() == {(1, bottom + 1, -1): ExactScalar.from_rational(ring, 1)}
    with pytest.raises(ExponentOverflow):
        at_top * x
    with pytest.raises(ExponentOverflow):
        at_bottom * x**-1
    with pytest.raises(ExponentOverflow):
        at_bottom.star()  # -bottom is one past the top
    with pytest.raises(ExponentOverflow):
        LaurentPoly.monomial(1, {"x": top + 1}, ring)
    with pytest.raises(ExponentOverflow):
        exact_div(at_top * (1 + x**-1), x**-1 + x**-2)  # the quotient is w x^(top+1) / y


@per_ring
def test_determinant_at_the_input_exponent_limit_stays_in_range(ring):
    # z^-M J + (z^M - z^-M) I: row clearing makes rows like [z^2M, 1, 1], and
    # the fraction-free elimination then forms products of exponent 8M
    top = MAX_EXPONENT
    z = LaurentPoly.variable("z", ring)
    m = PolyMatrix(ring, [[z**top if i == j else z**-top for j in range(3)] for i in range(3)])
    w = z ** (2 * top)
    assert determinant(m) == determinant_cofactor(m) == (w - 1) ** 2 * (w + 2) * z ** (-3 * top)
    x, y = LaurentPoly.variable("x", ring), LaurentPoly.variable("y", ring)
    m = PolyMatrix(ring, [
        [x**top * y**-top if i == j else x ** ((i * j) % 3 * top // 2) + y ** (-top * ((i + j) % 2)) for j in range(6)]
        for i in range(6)
    ])
    assert determinant(m) == determinant_cofactor(m)


# --- constant factors ---------------------------------------------------------

@per_ring
@given(data=st.data())
@fewer
def test_scaling_by_a_constant_equals_scaling_by_the_constant_polynomial(ring, data):
    entries = data.draw(st.lists(polys(ring, 3), min_size=2, max_size=2))
    c = data.draw(elements(ring))
    m = PolyMatrix(ring, [entries])
    as_poly = LaurentPoly.constant(c)
    by_product = PolyMatrix(ring, [[e * as_poly for e in row] for row in m.entries])
    assert m.scale(c) == by_product
    assert m.scale(as_poly) == by_product
    assert m.scale(c).vars == by_product.vars


# --- the proof kept on a matrix ---------------------------------------------

def _blocks():
    rng = random.Random(11)
    s1 = from_group(cyclic(2), Z8)
    s2 = diagonal_set(Z8, 2)
    x = monomial_sum(s1, random_assignment(rng, s1, ("u", "v")))
    y = monomial_sum(s2, random_assignment(rng, s2, ("w",)))
    return x, y


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every ``fs`` argument the product kernel receives, in call order."""
    calls = []

    def counting(ring, vars, fs, gs):
        calls.append(fs)
        return dot(ring, vars, fs, gs)

    monkeypatch.setattr(polymatrix, "dot", counting)
    monkeypatch.setattr(laurent, "dot", counting)
    return calls


def _on_rows_of(calls, *matrices):
    rows = [row for m in matrices for row in m.entries]
    return sum(1 for fs in calls if any(fs is row for row in rows))


def test_tangle_reuses_the_proofs_from_monomial_sum(kernel_calls):
    x, y = _blocks()
    # monomial_sum proves its output by the central theorem, with no product
    assert x.proof == "monomial-sum" and y.proof == "monomial-sum"
    assert _on_rows_of(kernel_calls, x, y) == 0
    kernel_calls.clear()
    for variant in all_tangle_variants():
        w = tangle(x, y, variant)
        assert w.proof == "block-gram"
    assert _on_rows_of(kernel_calls, x, y) == 0


def test_tangle_proves_unmarked_blocks_once(kernel_calls):
    x, y = _blocks()
    x2 = PolyMatrix(x.ring, x.entries)
    y2 = PolyMatrix(y.ring, y.entries)
    assert x2.proof is None and y2.proof is None
    tangle(x2, y2)
    first = _on_rows_of(kernel_calls, x2, y2)
    assert first > 0  # the counter sees the kernel run on the blocks' rows
    for variant in all_tangle_variants():
        tangle(x2, y2, variant)
    assert _on_rows_of(kernel_calls, x2, y2) == first


def test_a_pass_returns_a_fresh_report(kernel_calls):
    x, _ = _blocks()
    kernel_calls.clear()
    first = is_paraunitary(x)
    first.failures.append("edited by a caller")
    second = is_paraunitary(x)
    assert second.ok and second is not first
    assert second.failures == [] and second.residual is None
    assert _on_rows_of(kernel_calls, x) == 0


def test_a_failure_is_never_recorded(kernel_calls):
    x, _ = _blocks()
    bad = x + PolyMatrix(x.ring, [[0, 1], [0, 0]])
    first = is_paraunitary(bad)
    assert not first.ok and bad.proof is None
    used = len(kernel_calls)
    second = is_paraunitary(bad)
    assert not second.ok and bad.proof is None
    assert len(kernel_calls) > used  # rebuilt, not replayed
    assert second.failures == first.failures
    assert second.residual == first.residual


def test_derived_matrices_start_unmarked():
    x, _ = _blocks()
    s = IdempotentSet(F7_SET_A)
    p = monomial_sum(s, MonomialAssignment.build(F7, [1, 1, 1], [{"x": 1}, {"y": 1}, {"z": 1}]))
    for m in (x, p):
        assert is_paraunitary(m).ok and m.proof is not None
        zeros = PolyMatrix.zeros(m.ring, m.rows, m.cols)
        corner = [[int(i == j == 0) for j in range(m.cols)] for i in range(m.rows)]
        perturbed = m + PolyMatrix(m.ring, corner)
        derived = [
            m.scale(1),
            m.transpose(),
            m + zeros,
            m - zeros,
            -m,
            m.adjoint(),
            m.entrywise_star(),
            m.permute_rows(range(m.rows)),
            m._with_vars(m.vars + ("zz",)),
            polymatrix.mul(m, PolyMatrix.identity(m.ring, m.rows)),
            perturbed,
        ]
        for d in derived:
            assert d is not m and d.proof is None
        assert not is_paraunitary(perturbed).ok
        assert perturbed.proof is None
