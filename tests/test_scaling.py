"""Scaling and re-keying in one pass, and the canonical form they keep.

``laurent.dot`` is the only producer of zeta indices at or above phi(N),
and the only place that folds them; every other operation, scaling by a
monomial above all, multiplies each term by rows of ``c zeta^j`` already
reduced mod Phi_N.  These tests check that every operation leaves each key
with an index below phi(N) and the numerators canonical, that the product
by a power-basis coordinate e_j, which a ``Divisor`` takes, equals a product
by ``zeta^j``, that the coalesced re-keying plan equals the per-field map it
replaces, and that ``PolyMatrix`` scaling and construction give the
matrices of the general path.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _random_objects import scalar_from_vector  # noqa: E402

from paraunitary.constructors import (  # noqa: E402
    MonomialAssignment,
    all_tangle_variants,
    monomial_sum,
    simple_monomial_sum,
    tangle,
)
from paraunitary.idempotents import diagonal_set  # noqa: E402
from paraunitary.laurent import (  # noqa: E402
    FIELD_BITS,
    LaurentPoly,
    _moved,
    _rekey_plan,
    dot,
    exact_div,
)
from paraunitary.polymatrix import PolyMatrix  # noqa: E402
from paraunitary.scalars import (  # noqa: E402
    CYCLOTOMIC,
    PRIME_FIELD,
    QQ,
    ExactScalar,
    as_scalar,
    cyclotomic,
    prime_field,
    zeta,
)

# a wrong zeta fold can make a division or a reduction loop forever: fail instead
pytestmark = pytest.mark.time_bound(120)

CYCLOTOMIC_RINGS = [cyclotomic(n) for n in (5, 8, 12, 15)]
RINGS = CYCLOTOMIC_RINGS + [QQ, prime_field(7)]
per_ring = pytest.mark.parametrize("ring", RINGS, ids=[str(r) for r in RINGS])
VARS = ("x", "y")


def scalars(ring, nonzero=False):
    small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    if ring.kind == PRIME_FIELD:
        values = st.integers(1 if nonzero else 0, ring.p - 1).map(lambda v: ExactScalar.from_rational(ring, v))
    elif ring.kind == CYCLOTOMIC:
        coords = st.lists(st.one_of(st.just(Fraction(0)), small), min_size=ring.degree, max_size=ring.degree)
        values = coords.map(lambda c: scalar_from_vector(ring, c))
    else:
        values = small.map(lambda q: ExactScalar.from_rational(ring, q))
    return values.filter(lambda c: not c.is_zero()) if nonzero else values


def polys(ring, vars=VARS, max_terms=3):
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars))
    return st.dictionaries(exps, scalars(ring), max_size=max_terms).map(
        lambda terms: LaurentPoly(ring, vars, terms)
    )


def monomials(ring, vars=VARS):
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars))
    return st.tuples(scalars(ring, nonzero=True), exps).map(
        lambda ce: LaurentPoly(ring, vars, {ce[1]: ce[0]})
    )


def assert_canonical(f: LaurentPoly):
    """Every key a valid packed key with a zeta index below phi(N), every
    numerator nonzero, and the denominator canonical for the ring."""
    lay = f._lay
    assert list(f.vars) == sorted(set(f.vars)) and f.den > 0
    for k, c in f.terms.items():
        assert k & lay.zmask < lay.degree, (f, k & lay.zmask)
        assert k & lay.top == lay.valid and c
    if lay.p:
        assert f.den == 1 and all(0 < c < lay.p for c in f.terms.values())
    elif f.terms:
        assert math.gcd(f.den, *f.terms.values()) == 1
    else:
        assert f.den == 1


@per_ring
@given(data=st.data())
@settings(max_examples=30)
def test_every_operation_keeps_the_canonical_form(ring, data):
    f, g = data.draw(polys(ring)), data.draw(polys(ring, ("y", "z")))
    mono = data.draw(monomials(ring, ("x", "z")))
    c = data.draw(scalars(ring, nonzero=True))
    results = [f + g, f - g, g - f, f * g, f.star(), f.conj(), g.star(), g.conj(), f * c, c * g]
    results += PolyMatrix(ring, [[f, g], [f * g, 1]]).scale(mono).entries[0]
    results += PolyMatrix(ring, [[f, g]]).scale(c).entries[0]
    results += PolyMatrix(ring, [[f, g]]).scale(f).entries[0]
    results.append(f.substitute({"x": c}))
    results.append(f.substitute({"x": data.draw(monomials(ring, ("z",)))}))
    if not g.is_zero():
        results.append(exact_div(f * g, g))
        assert exact_div(f * g, g) == f
    for r in results:
        assert_canonical(r)


@pytest.mark.parametrize("ring", CYCLOTOMIC_RINGS, ids=[str(r) for r in CYCLOTOMIC_RINGS])
@given(data=st.data())
@settings(max_examples=20)
def test_the_product_by_a_unit_coordinate_equals_the_product_by_zeta_j(ring, data):
    """``_times(e_j, 1)``, the form a Divisor builds zeta^j H with, scales
    by the rows of the power-basis coordinate e_j: it equals ``dot`` with zeta^j."""
    f = data.draw(polys(ring, max_terms=4))
    for j in range(ring.degree):
        power = LaurentPoly.constant(zeta(ring, j)).with_vars(f.vars)
        unit = [0] * ring.degree
        unit[j] = 1
        got = f._times(unit, 1)
        assert got == dot(ring, f.vars, (f,), (power,)), j
        assert_canonical(got)


NAMES = ("x0", "x1", "x10", "x2", "y", "z")  # string order is not numeric order


def _per_field_rekey(zbits, old, new, key):
    """The re-keying the coalesced plan replaces: one move per kept field."""
    out = key & ((1 << zbits) - 1)
    for i, v in enumerate(old):
        field = (key >> (zbits + FIELD_BITS * (len(old) - 1 - i))) & ((1 << FIELD_BITS) - 1)
        if v in new:
            out += field << (zbits + FIELD_BITS * (len(new) - 1 - new.index(v)))
    for j, v in enumerate(new):
        if v not in old:
            out += (3 << (FIELD_BITS - 3)) << (zbits + FIELD_BITS * (len(new) - 1 - j))
    return out


@pytest.mark.parametrize("ring", [QQ, cyclotomic(8), cyclotomic(15)], ids=str)
@given(data=st.data())
@settings(max_examples=60)
def test_the_coalesced_plan_equals_the_per_field_map(ring, data):
    old = tuple(sorted(data.draw(st.sets(st.sampled_from(NAMES)))))
    used = tuple(v for v in old if data.draw(st.booleans()))
    new = tuple(sorted(set(used) | data.draw(st.sets(st.sampled_from(NAMES)))))
    exps = st.tuples(*[st.integers(-3, 3) if v in used else st.just(0) for v in old])
    terms = data.draw(st.dictionaries(exps, scalars(ring, nonzero=True), max_size=4))
    f = LaurentPoly(ring, old, terms)
    plan = _rekey_plan(f._lay.zbits, old, new)
    for k in f.terms:
        assert _moved(k, plan) == _per_field_rekey(f._lay.zbits, old, new, k)
    g = f.with_vars(new)
    by_name = {tuple(sorted((v, e) for v, e in zip(old, exps) if e)): c for exps, c in f.coefficients().items()}
    assert {tuple(sorted((v, e) for v, e in zip(new, exps) if e)): c for exps, c in g.coefficients().items()} == by_name
    assert g == f and g.vars == new and g.with_vars(old) == f


def test_runs_of_adjacent_fields_are_one_move():
    xs = tuple(f"x{i:02d}" for i in range(16))
    ys = tuple(f"y{i:02d}" for i in range(16))
    for ring, moves in ((QQ, 1), (cyclotomic(8), 2)):
        zbits = LaurentPoly.zero(ring)._lay.zbits
        # the 16 x fields shift as one run; over Q(zeta_8) the index stays apart
        assert len(_rekey_plan(zbits, xs, xs + ys)[1]) == moves
        # only new variables above the old ones: the whole key stays in place
        assert _rekey_plan(zbits, ys, xs + ys)[1] == ((0, -1, 0),)


@per_ring
@given(data=st.data())
@settings(max_examples=20)
def test_scaling_by_zero_or_a_constant_equals_the_general_path(ring, data):
    grid = [[data.draw(polys(ring)) for _ in range(2)] for _ in range(2)]
    m = PolyMatrix(ring, grid)
    for zero in (0, LaurentPoly.zero(ring, ("x", "w")), ExactScalar.from_rational(ring, 0)):
        z = m.scale(zero)
        assert z == PolyMatrix.zeros(ring, 2, 2) and z.vars == ()
        assert all(e.vars == () and not e.terms for row in z.entries for e in row)
    c = data.draw(scalars(ring, nonzero=True))
    scaled = m.scale(c)
    constant = LaurentPoly.constant(c).with_vars(m.vars)
    for row, out in zip(m.entries, scaled.entries):
        for e, got in zip(row, out):
            assert got == dot(ring, m.vars, (e,), (constant,)) and got.vars == m.vars
            assert_canonical(got)
    # a nonzero constant over a field cancels no term, so the variables stay
    assert scaled.vars == m.vars == PolyMatrix._from_aligned(ring, scaled.vars, scaled.entries).vars


@per_ring
def test_scaling_by_a_monomial_re_scans_only_when_a_variable_can_cancel(ring):
    x, y = LaurentPoly.variable("x", ring), LaurentPoly.variable("y", ring)
    m = PolyMatrix(ring, [[x, 1], [0, x * y]])
    out = m.scale(LaurentPoly.monomial(1, {"x": -1}, ring))
    assert out.vars == ("x", "y") and out.entries[0][0].is_one()
    out = PolyMatrix(ring, [[x, 0], [0, x]]).scale(LaurentPoly.monomial(2, {"x": -1}, ring))
    assert out.vars == () and out == PolyMatrix(ring, [[2, 0], [0, 2]])
    out = m.scale(LaurentPoly.monomial(1, {"z": 2}, ring))
    assert out.vars == ("x", "y", "z") and out == PolyMatrix(
        ring, [[e * LaurentPoly.monomial(1, {"z": 2}, ring) for e in row] for row in m.entries]
    )


@per_ring
def test_mixed_number_cells_give_the_matrix_of_one_conversion_per_cell(ring):
    x = LaurentPoly.variable("x", ring)
    one = ExactScalar.from_rational(ring, 1)
    half = Fraction(1, 2) if ring.kind != PRIME_FIELD else Fraction(1, 3)
    grid = [[1, half, one, x], [Fraction(1), 1, 0, half], [x, one, Fraction(2, 1), 2]]
    m = PolyMatrix(ring, grid)
    # the reference: each cell converted on its own, then aligned
    ref = [[c if isinstance(c, LaurentPoly) else LaurentPoly.constant(as_scalar(ring, c)) for c in row] for row in grid]
    assert m.vars == ("x",)
    for row, ref_row in zip(m.entries, ref):
        for got, want in zip(row, ref_row):
            assert got == want and got.vars == ("x",)
            assert_canonical(got)
    # equal cells of one type share one converted object
    assert m.entries[0][0] is m.entries[1][1] and m.entries[0][1] is m.entries[1][3]
    assert m.entries[0][2] is m.entries[2][1] and m.entries[0][3] is m.entries[2][0]
    assert PolyMatrix(ring, [[1, 0], [0, 1]]) == PolyMatrix.identity(ring, 2)


@per_ring
@given(data=st.data())
@settings(max_examples=20)
def test_a_constant_operand_equals_the_cell_by_cell_matrix(ring, data):
    """``A + C``, ``A - C``, ``C + A`` and ``C - A`` with C a scalar matrix
    read C in place (``polymatrix._plus_constant``): each equals the matrix
    built cell by cell, on the same variables and unproven; ``C - C`` is
    the zero matrix on no variables; and ``dot`` reads a constant entry
    as it reads that entry re-keyed."""
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    grid = [[data.draw(polys(ring)) for _ in range(cols)] for _ in range(rows)]
    pool = [0] + data.draw(st.lists(scalars(ring), min_size=1, max_size=2))
    consts = [[data.draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    a, c = PolyMatrix(ring, grid), PolyMatrix(ring, consts)
    assert c.is_scalar
    cells = [[(x, LaurentPoly.constant(as_scalar(ring, y))) for x, y in zip(*row)] for row in zip(grid, consts)]
    for got, cell in (
        (a + c, lambda x, y: x + y),
        (a - c, lambda x, y: x - y),
        (c + a, lambda x, y: y + x),
        (c - a, lambda x, y: y - x),
    ):
        want = PolyMatrix(ring, [[cell(x, y) for x, y in row] for row in cells])
        assert got == want and got.vars == want.vars and got.proof is None
        for row in got.entries:
            for e in row:
                assert e.vars == got.vars
                assert_canonical(e)
    zero = c - c
    assert zero == PolyMatrix.zeros(ring, rows, cols) and zero.vars == ()
    assert all(e.vars == () and not e.terms for row in zero.entries for e in row)
    f, k = grid[0][0], LaurentPoly.constant(data.draw(scalars(ring)))
    rekeyed = k.with_vars(VARS)
    for fs, gs in (((f,), (k,)), ((k,), (f,)), ((k, f), (k, k))):
        got = dot(ring, VARS, fs, gs)
        assert got == dot(ring, VARS, *[[rekeyed if e is k else e for e in es] for es in (fs, gs)])
        assert got.vars == VARS
        assert_canonical(got)


def test_a_tangle_carries_exactly_the_variables_of_both_blocks():
    """The blocks are aligned to the union before scaling, so each scaled
    block alone carries variables it does not use; W uses all of them."""
    ring = cyclotomic(8)
    s = diagonal_set(ring, 2)
    a = simple_monomial_sum(s, [0, 1], var="u")
    b = monomial_sum(s, MonomialAssignment.build(ring, [1, zeta(ring, 3)], [{"w": 2}, {"w": 0}]))
    for variant in all_tangle_variants():
        for w in (tangle(a, b, variant), tangle(b, a, variant)):
            assert w.vars == ("u", "w")
            assert PolyMatrix._from_aligned(ring, w.vars, w.entries).vars == w.vars
