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

The Gram kernel ``laurent.Gram`` behind ``is_paraunitary`` and
``is_pseudo_paraunitary`` must give the verdict, residual, failures and p of
the generic check on ``mul(m, m.adjoint())``: on Q, F_7 and Q(zeta_N) for N
in {3, 5, 8, 12}, in 0, 3 and 32 variables, with entry objects shared across
cells, mixed denominators and numerators near 2^64, on paraunitary inputs
and perturbed ones, and on rows whose entries reach the proved coordinate
bound, where ``dot`` must return every coordinate of an entry of M M* or
V V^T whole; a check that fails early must not prepare the rows it does
not read.  Its residue decision ``Gram.is_identity`` must
equal ``is_one()`` / ``is_zero()`` of the entry ``dot`` forms from the
row and the starred row, on every upper entry, over those rings and
Q(zeta_105) and Q(zeta_385) (whose Phi_N have the coefficients -2 and 3):
on paraunitary and perturbed inputs, on rows at the proved coordinate
bound, and on unit monomials over denominators D with D^2 = 1 mod
Phi_N(2^b) for a small b, with every folded coordinate below the
2^(B - 2) its proof needs.
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
from _random_objects import Z8, permute_rows, random_assignment, scalar_from_vector, zeros  # noqa: E402
from test_certificates import _full_pseudo, _full_report  # noqa: E402
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
from paraunitary.polymatrix import (  # noqa: E402
    PolyMatrix,
    determinant,
    determinant_cofactor,
    is_paraunitary,
    is_pseudo_paraunitary,
)
from paraunitary.scalars import (  # noqa: E402
    QQ,
    ExactScalar,
    cyclotomic,
    cyclotomic_polynomial,
    prime_field,
    zero,
    zeta,
)

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
        return scalar_from_vector(
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
    """Every ``fs`` argument the product kernel receives, and the left row
    ``rows[i]`` of every entry (i, j) the Gram kernel sums (``Gram.sum``,
    the one sum loop of its decision), in call order."""
    calls = []

    def counting(ring, vars, fs, gs):
        calls.append(fs)
        return dot(ring, vars, fs, gs)

    def gram_sum(self, i, j):
        calls.append(self.rows[i])
        return total(self, i, j)

    total = laurent.Gram.sum
    monkeypatch.setattr(polymatrix, "dot", counting)
    monkeypatch.setattr(laurent, "dot", counting)
    monkeypatch.setattr(laurent.Gram, "sum", gram_sum)
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
        zero_matrix = zeros(m.ring, m.rows, m.cols)
        corner = [[int(i == j == 0) for j in range(m.cols)] for i in range(m.rows)]
        perturbed = m + PolyMatrix(m.ring, corner)
        derived = [
            m.scale(1),
            m.transpose(),
            m + zero_matrix,
            m - zero_matrix,
            -m,
            m.adjoint(),
            m.entrywise_star(),
            permute_rows(m, range(m.rows)),
            m._with_vars(m.vars + ("zz",)),
            polymatrix.mul(m, PolyMatrix.identity(m.ring, m.rows)),
            perturbed,
        ]
        for d in derived:
            assert d is not m and d.proof is None
        assert not is_paraunitary(perturbed).ok
        assert perturbed.proof is None


# --- the Gram kernel ----------------------------------------------------------

GRAM_RINGS = [QQ, prime_field(7), cyclotomic(3), cyclotomic(5), cyclotomic(8), cyclotomic(12)]
per_gram_ring = pytest.mark.parametrize("ring", GRAM_RINGS, ids=str)
NEAR_2_64 = st.integers(-(2**10), 2**10).map(lambda k: 2**64 + k)


def _big_elements(ring):
    """Scalars whose numerators lie within 2^10 of +-2^64, over 1, 3 or 2^64 - 59."""
    num = st.tuples(NEAR_2_64, st.booleans()).map(lambda a: -a[0] if a[1] else a[0])
    den = st.sampled_from((1, 3, 2**64 - 59))
    coord = st.one_of(st.just(0), num)
    if ring.kind != "cyclotomic":
        return st.tuples(coord, den).map(lambda v: ExactScalar.from_rational(ring, Fraction(*v)))
    return st.tuples(st.lists(coord, min_size=ring.degree, max_size=ring.degree), den).map(
        lambda v: scalar_from_vector(ring, [Fraction(c, v[1]) for c in v[0]])
    )


def _big_polys(ring, nvars):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars) if nvars < 32 else _sparse_exponents(nvars)
    return st.dictionaries(exps, _big_elements(ring), max_size=3).map(
        lambda terms: LaurentPoly(ring, VARS[nvars], terms)
    )


@st.composite
def _shared_matrices(draw, ring, nvars):
    """n x n matrices whose cells are drawn from a pool of at most four entry
    objects, small and near 2^64, so that objects repeat across cells."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.one_of(polys(ring, nvars), _big_polys(ring, nvars)), min_size=1, max_size=4))
    cells = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * n, max_size=n * n))
    return PolyMatrix(ring, [[pool[cells[i * n + j]] for j in range(n)] for i in range(n)])


def _unit(ring, k: int) -> ExactScalar:
    """+-zeta^k over Q(zeta_N), +-1 elsewhere: c conj(c) = 1."""
    if ring.kind == "cyclotomic":
        return zeta(ring, k)
    return ExactScalar.from_rational(ring, -1 if k % 2 else 1)


# (a, b, c) with a^2 + b^2 = c^2: from m = 2^32, n = 3 the numerators and the
# denominator lie near 2^64
TRIPLES = [(3, 4, 5), (5, 12, 13), (2**64 - 9, 3 * 2**33, 2**64 + 9)]


@st.composite
def _paraunitary_matrices(draw, ring, nvars):
    """D R P: P a permutation, R a rotation by a Pythagorean triple on the
    first two coordinates (mixed denominators), D a diagonal of unit
    monomials in up to three of the variables; D R P (D R P)* = I."""
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    p = PolyMatrix(ring, [[int(perm[i] == j) for j in range(n)] for i in range(n)])
    a, b, c = draw(st.sampled_from(TRIPLES))
    rot = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if n > 1:
        rot[0][0], rot[0][1], rot[1][0], rot[1][1] = Fraction(a, c), Fraction(b, c), Fraction(-b, c), Fraction(a, c)
    r = PolyMatrix(ring, [[ExactScalar.from_rational(ring, x) for x in row] for row in rot])
    names = VARS[nvars][:3]
    diag = []
    for _ in range(n):
        exps = {v: draw(st.integers(-2, 2)) for v in names}
        diag.append(LaurentPoly.monomial(_unit(ring, draw(st.integers(0, 7))), exps, ring))
    return polymatrix.mul(polymatrix.mul(PolyMatrix.diagonal(ring, diag), r), p)


def _assert_gram_checks_agree(m):
    """is_paraunitary and is_pseudo_paraunitary against the generic check on
    mul(m, m.adjoint()): verdict, residual, failures and p."""
    fast, full = is_paraunitary(PolyMatrix(m.ring, m.entries)), _full_report(m)
    assert fast.ok == full.ok
    assert fast.residual == full.residual
    assert fast.failures == full.failures
    pseudo, expected = is_pseudo_paraunitary(m), _full_pseudo(m)
    assert (pseudo is None) == (expected is None)
    if expected is not None:
        assert pseudo == expected
    return full.ok


@per_gram_ring
@pytest.mark.parametrize("nvars", [0, 3, 32])
@given(data=st.data())
@fewer
def test_gram_checks_equal_the_generic_check_on_shared_entries(ring, nvars, data):
    _assert_gram_checks_agree(data.draw(_shared_matrices(ring, nvars)))


@per_gram_ring
@pytest.mark.parametrize("nvars", [0, 3, 32])
@given(data=st.data())
@fewer
def test_gram_checks_equal_the_generic_check_on_paraunitary_and_perturbed_inputs(ring, nvars, data):
    m = data.draw(_paraunitary_matrices(ring, nvars))
    assert _assert_gram_checks_agree(m)
    i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    f = data.draw(st.one_of(polys(ring, nvars), _big_polys(ring, nvars)))
    grid = [list(row) for row in m.entries]
    grid[i][j] = grid[i][j] + f
    _assert_gram_checks_agree(PolyMatrix(ring, grid))


def _rows_at_the_bound(ring):
    """Every entry A x or -A x with A = 2^64 - 1: the rows of A's give Gram
    entries +-n A^2, which is the proved bound n max|F|_1 max|G|_1 itself on
    Q, F_p, and over Q(zeta_8), whose rows of zeta^-j have L1 norm 1."""
    a = LaurentPoly.monomial(2**64 - 1, {"x": 1}, ring)
    return ((a,) * 4, (a,) * 4, (-a,) * 4, (a, -a, a, -a))


@per_gram_ring
@pytest.mark.parametrize("star", [True, False])
def test_gram_entries_at_the_coordinate_bound(ring, star):
    # dot forms each entry of M M* for a report and each entry of V V^T for
    # from_orthogonal_basis_finite; at the bound each coordinate must still
    # come back whole
    rows = _rows_at_the_bound(ring)
    for i in range(4):
        for j in range(4):
            col = [e.star() if star else e for e in rows[j]]
            assert dot(ring, ("x",), rows[i], col).coefficients() == _naive_dot(ring, rows[i], col), (i, j)


@per_gram_ring
def test_a_check_that_fails_early_never_prepares_the_rows_it_does_not_read(ring):
    # row 2 holds x^-2^29, whose star leaves the packed exponent range: the
    # generic check raises on it, while entry (1,1) = 4 decides a check
    # before row 2 is read; the report reads it, and raises as the generic
    # check does
    far = LaurentPoly.monomial(1, {"x": -EXPONENT_BOUND}, ring)
    m = PolyMatrix(ring, [[2, 0], [0, far]])
    with pytest.raises(ExponentOverflow):
        polymatrix.mul(m, m.adjoint())
    report = is_paraunitary(m)
    assert not report.ok
    assert is_pseudo_paraunitary(m) is None
    with pytest.raises(ExponentOverflow):
        report.residual


# --- the residue decision of the Gram kernel ----------------------------------

# Q(zeta_105) is the first conductor whose Phi_N has a coefficient -2, and
# Q(zeta_385) the first with a coefficient 3
DECISION_RINGS = GRAM_RINGS + [cyclotomic(105), cyclotomic(385)]
per_decision_ring = pytest.mark.parametrize("ring", DECISION_RINGS, ids=str)


def _phi_at(ring, x: int) -> int:
    """Phi_N(x) for Q(zeta_N), x - 1 over Q."""
    if ring.degree == 1:
        return x - 1
    return sum(c * x**t for t, c in enumerate(cyclotomic_polynomial(ring.conductor)))


def _assert_decisions_agree(ring, vars, rows) -> list[bool]:
    """``Gram.is_identity`` on every upper entry against ``is_one()``
    (diagonal, and of its negative for the target -1) or ``is_zero()`` of
    the entry ``dot`` forms from row i and row j starred; and the premise of its proof over Q(zeta_N): every
    coordinate of the entry over D^2, less its target, is below 2^(B - 2).
    Returns the verdicts."""
    gram = laurent.Gram(ring, vars, rows)
    verdicts = []
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            entry, acc = dot(ring, vars, rows[i], [e.star() for e in rows[j]]), gram.sum(i, j)
            expected = entry.is_one() if i == j else entry.is_zero()
            assert gram.is_identity(acc, int(i == j)) == expected, (i, j)
            if i == j:
                assert gram.is_identity(acc, -1) == (-entry).is_one(), (i, j)
            verdicts.append(expected)
            if gram._bits:
                square = gram._den**2
                coords = {k: c * (square // entry.den) for k, c in entry.terms.items()}
                if i == j:
                    zero_key = entry._lay.zero
                    coords[zero_key] = coords.get(zero_key, 0) - square
                assert all(abs(c) < 1 << (gram._bits - 2) for c in coords.values()), (i, j)
    return verdicts


@st.composite
def _units_over_moduli(draw, ring, nvars):
    """Diagonal matrices of unit monomials over D, and D times them, where D
    is Phi_N(2^b) - 1 or + 1 for a small b: D^2 is 1 mod Phi_N(2^b), so a
    residue test whose modulus came from too few bits would read an entry
    1 / D^2 or D^2 as 1."""
    n = draw(st.integers(1, 3))
    d = _phi_at(ring, 2 ** draw(st.integers(2, 12))) + draw(st.sampled_from((-1, 1)))
    scale = Fraction(1, d) if draw(st.booleans()) else Fraction(d)
    names = VARS[nvars]
    diag = []
    for _ in range(n):
        exps = {v: draw(st.integers(-2, 2)) for v in names}
        c = _unit(ring, draw(st.integers(0, 7))) * ExactScalar.from_rational(ring, scale)
        diag.append(LaurentPoly.monomial(c, exps, ring))
    return PolyMatrix.diagonal(ring, diag)


@per_decision_ring
@pytest.mark.parametrize("nvars", [0, 3])
@given(data=st.data())
@fewer
def test_the_residue_decision_equals_the_entry_on_paraunitary_and_perturbed_inputs(ring, nvars, data):
    m = data.draw(_paraunitary_matrices(ring, nvars))
    assert all(_assert_decisions_agree(ring, m.vars, m.entries))
    i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
    f = data.draw(st.one_of(polys(ring, nvars), _big_polys(ring, nvars)))
    grid = [list(row) for row in m.entries]
    grid[i][j] = grid[i][j] + f
    perturbed = PolyMatrix(ring, grid)
    _assert_decisions_agree(ring, perturbed.vars, perturbed.entries)


# over F_p the residue is taken mod p itself, which needs no bound
@pytest.mark.parametrize("ring", [r for r in DECISION_RINGS if r.kind != "prime_field"], ids=str)
@pytest.mark.parametrize("nvars", [0, 3])
@given(data=st.data())
@fewer
def test_the_residue_decision_equals_the_entry_on_units_over_residue_moduli(ring, nvars, data):
    m = data.draw(_units_over_moduli(ring, nvars))
    verdicts = _assert_decisions_agree(ring, m.vars, m.entries)
    assert not any(verdicts[k * (2 * m.rows - k + 1) // 2] for k in range(m.rows))  # no diagonal entry is 1


@per_decision_ring
def test_the_residue_decision_at_the_coordinate_bound(ring):
    # entries +-n A^2 (4 A^2 = 4 over F_7), and 0 between row 4 and the others
    verdicts = _assert_decisions_agree(ring, ("x",), _rows_at_the_bound(ring))
    # upper entries row by row: (1,1) .. (1,4), (2,2) .. (2,4), (3,3), (3,4), (4,4)
    assert verdicts == [False, False, False, True, False, False, True, False, True, False]


@per_decision_ring
def test_the_checks_at_the_coordinate_bound(ring):
    # the verdict, the report (whose entries dot forms from the first
    # differing one on) and p against the generic check, on the rows at the
    # bound; and with a unit row in front, so that the report rebuilds the
    # upper entries of that row, which equal the identity's, from their
    # positions
    rows = _rows_at_the_bound(ring)
    assert not _assert_gram_checks_agree(PolyMatrix(ring, rows))
    padded = [[1, 0, 0, 0, 0]] + [[0, *row] for row in rows]
    assert not _assert_gram_checks_agree(PolyMatrix(ring, padded))
