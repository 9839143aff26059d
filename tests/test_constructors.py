"""Tests for the paraunitary constructors and Hadamard specialization."""

import json
import random
from fractions import Fraction

import pytest

from _fixtures import (
    BASIS_V1,
    BASIS_V2,
    BASIS_V3,
    F7_SET_A,
    F7_SET_B,
    HADAMARD_4_REAL,
    block4_real_w,
    c2_haar_w,
    complex_pair_q0_q1,
    hadamard_4_complex,
    laurent_p1,
    laurent_p2,
)
from paraunitary.cli import main
from paraunitary.constructors import (
    ArrangementPlan,
    MonomialAssignment,
    TangleVariant,
    all_tangle_variants,
    belevitch_block,
    block_arrangement,
    compose,
    latin_square_from_group,
    monomial_clear,
    monomial_sum,
    pseudo_from_rows,
    simple_monomial_sum,
    spectral_unitary,
    tangle,
    unit_monomial,
)
from paraunitary.errors import (
    DimensionMismatch,
    IncompatibleRings,
    NegativeExponent,
    NotLatinSquare,
    NotSquare,
    NotUnitModulus,
    NotUnitVector,
    NoSquareRoot,
    VariableCollision,
)
from paraunitary.groups import cyclic
from paraunitary.hadamard import specialize
from paraunitary.idempotents import (
    IdempotentSet,
    diagonal_set,
    from_group,
    from_matrix_rows,
    from_orthonormal_basis,
)
from paraunitary.laurent import LaurentPoly, poly_from_text
from paraunitary.polymatrix import (
    PolyMatrix,
    is_paraunitary,
    is_pseudo_paraunitary,
    mul,
)
from paraunitary.scalars import (
    QQ,
    ExactScalar,
    cyclotomic,
    multiplicative_order,
    prime_field,
    root_of_unity,
    sqrt2,
    zeta,
)

Z3 = cyclotomic(3)
Z4 = cyclotomic(4)
Z8 = cyclotomic(8)
F7 = prime_field(7)


def c2_set(ring=QQ):
    return from_group(cyclic(2), ring)


def basis_set(ring=QQ):
    return from_orthonormal_basis(ring, [BASIS_V1, BASIS_V2, BASIS_V3])


def test_monomial_sum_c2():
    w = simple_monomial_sum(c2_set(), (0, 1))
    assert w == c2_haar_w()
    assert is_paraunitary(w).ok


def test_monomial_sum_projections():
    w = simple_monomial_sum(basis_set(), (2, 1, 3))
    assert is_paraunitary(w).ok
    q = simple_monomial_sum(from_group(cyclic(3), Z3), (0, 3, 2))
    assert is_paraunitary(q).ok


def test_monomial_sum_multivariate():
    s = basis_set()
    assignment = MonomialAssignment.build(
        QQ, [1, -1, 1], [{"x": 1, "y": 2}, {"x": 2}, {"y": 1}]
    )
    w = monomial_sum(s, assignment)
    assert is_paraunitary(w).ok
    assert set(w.vars) == {"x", "y"}


def test_monomial_assignment_validation():
    with pytest.raises(NotUnitModulus):
        unit_monomial(QQ, 2, {"z": 1})
    with pytest.raises(NegativeExponent):
        unit_monomial(QQ, 1, {"z": -1})
    with pytest.raises(NotUnitModulus):
        MonomialAssignment.build(QQ, [Fraction(1, 2), 1], [0, 1])


def test_build_checks_each_weight_and_cell_once(monkeypatch):
    from paraunitary import constructors

    units, monomials = [], []
    unit = constructors.is_unit_modulus
    is_unit_monomial = LaurentPoly.is_unit_monomial
    monkeypatch.setattr(constructors, "is_unit_modulus", lambda c: units.append(c) or unit(c))
    monkeypatch.setattr(LaurentPoly, "is_unit_monomial", lambda f: monomials.append(f) or is_unit_monomial(f))
    assignment = MonomialAssignment.build(Z8, [1, zeta(Z8), -1], [{"x": 1}, {"y": 2}, 0])
    assert len(assignment) == 3 and len(units) == 3 and not monomials
    x = LaurentPoly.variable("x", QQ)
    plan = ArrangementPlan.build(QQ, [[0, 1], [1, 0]], [["x", (-1, {"y": 1})], [x, "t"]])
    # a ready monomial cell is checked as on direct construction, the others by unit_monomial
    assert plan.cells[1][0] is x and len(units) == 6 and monomials == [x]
    assert plan == ArrangementPlan(plan.grid, plan.cells)
    assert assignment == MonomialAssignment(assignment.monomials)
    # the pinned message of build, and NotUnitModulus on direct construction
    with pytest.raises(NotUnitModulus, match=r"^\|2\|\^2 != 1$"):
        MonomialAssignment.build(QQ, [1, 2], [0, 1])
    with pytest.raises(NotUnitModulus, match=r"^\|2\|\^2 != 1$"):
        ArrangementPlan.build(QQ, [[0, 1], [1, 0]], [["x", (2, {})], ["y", "t"]])
    with pytest.raises(NotUnitModulus, match="^weight 2\\*x is not a unit monomial$"):
        MonomialAssignment((x * 2,))
    with pytest.raises(NotUnitModulus, match="^cell 2\\*x is not a unit monomial$"):
        ArrangementPlan.build(QQ, [[0, 1], [1, 0]], [[x * 2, "y"], ["y", "t"]])


def test_unit_monomial_refuses_a_scalar_of_another_ring():
    # zeta_8 is a unit of Q(zeta_8), not a rational: the monomial must not
    # silently move to Q(zeta_8) and mix rings in a later sum
    assert unit_monomial(Z8, zeta(Z8), {"z": 1}).ring == Z8
    with pytest.raises(IncompatibleRings):
        unit_monomial(QQ, zeta(Z8), {"z": 1})
    with pytest.raises(IncompatibleRings):
        MonomialAssignment.build(QQ, [1, zeta(Z8)], [0, 1])
    with pytest.raises(IncompatibleRings):
        spectral_unitary(QQ, [[1, 0], [0, 1]], [1, zeta(Z8)])


def test_belevitch_block():
    h = belevitch_block(PolyMatrix.column_vector(QQ, [1, 0]))
    assert h == PolyMatrix(
        QQ, [[poly_from_text("z", QQ), 0], [0, 1]]
    )
    v = PolyMatrix.column_vector(QQ, BASIS_V1)
    h2 = belevitch_block(v)
    assert is_paraunitary(h2).ok
    # 1 - vv* + zvv* decomposes as F2 + z F1
    p1 = mul(v, v.adjoint())
    assert h2 == (PolyMatrix.identity(QQ, 3) - p1) + p1.scale(LaurentPoly.variable("z", QQ))
    inv_root2 = sqrt2(Z8).inverse()
    v3 = PolyMatrix.column_vector(Z8, [inv_root2, inv_root2])
    h3 = belevitch_block(v3)
    half = ExactScalar.from_rational(Z8, Fraction(1, 2))
    z = LaurentPoly.variable("z", Z8)
    expected = PolyMatrix(
        Z8,
        [
            [z * half + half, z * half - half],
            [z * half - half, z * half + half],
        ],
    )
    assert h3 == expected
    with pytest.raises(NotUnitVector):
        belevitch_block(PolyMatrix.column_vector(QQ, [1, 1]))


def test_spectral_unitary_rotation():
    inv_root2 = sqrt2(Z8).inverse()
    i = zeta(Z8, 2)
    v1 = [-inv_root2, -i * inv_root2]
    v2 = [i * inv_root2, inv_root2]
    u = spectral_unitary(Z8, [v1, v2], [zeta(Z8, -1), zeta(Z8, 1)])
    c = sqrt2(Z8) * ExactScalar.from_rational(Z8, Fraction(1, 2))
    expected = PolyMatrix(Z8, [[c, c], [-c, c]])
    assert u == expected
    # eigen relation U v* = alpha v*
    col = PolyMatrix.column_vector(Z8, [x.conj() for x in v1])
    assert mul(u, col) == col.scale(zeta(Z8, -1))


def test_spectral_unitary_diagonal():
    u = spectral_unitary(QQ, [[1, 0], [0, 1]], [1, 1])
    assert u == PolyMatrix.identity(QQ, 2)
    d = spectral_unitary(QQ, [[1, 0], [0, 1]], [-1, 1])
    assert d == PolyMatrix.diagonal(QQ, [-1, 1])
    with pytest.raises(NotUnitModulus):
        spectral_unitary(QQ, [[1, 0], [0, 1]], [2, 1])


def test_block_arrangement_2x2():
    plan = ArrangementPlan.build(QQ, [[0, 1], [1, 0]], [["x", "y"], ["z", "t"]])
    w = block_arrangement(c2_set(), plan)
    assert w == block4_real_w()
    assert is_paraunitary(w).ok


def test_block_arrangement_3x3():
    grid = latin_square_from_group(cyclic(3))
    assert grid == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    plan = ArrangementPlan.build(
        QQ, grid, [["x", "y", "z"], ["p", "q", "r"], ["s", "t", "v"]]
    )
    w = block_arrangement(basis_set(), plan)
    assert w.rows == 9
    assert is_paraunitary(w).ok


def test_block_arrangement_rejects_bad_grid():
    with pytest.raises(NotLatinSquare):
        block_arrangement(
            c2_set(),
            ArrangementPlan.build(QQ, [[0, 1], [0, 1]], [["x", "y"], ["z", "t"]]),
        )
    with pytest.raises(NotUnitModulus):
        ArrangementPlan.build(QQ, [[0, 1], [1, 0]], [[poly_from_text("1 + z", QQ), "y"], ["z", "t"]])


def test_tangle_basic():
    a = PolyMatrix(Z8, [[poly_from_text("x", Z8)]])
    b = PolyMatrix(Z8, [[poly_from_text("y", Z8)]])
    w = tangle(a, b)
    inv_root2 = sqrt2(Z8).inverse()
    x = LaurentPoly.variable("x", Z8)
    y = LaurentPoly.variable("y", Z8)
    assert w == PolyMatrix(
        Z8,
        [
            [x * inv_root2, y * inv_root2],
            [x * inv_root2, -(y * inv_root2)],
        ],
    )
    assert is_paraunitary(w).ok
    # iterate with fresh variables
    q = tangle(
        PolyMatrix(Z8, [[poly_from_text("z", Z8)]]),
        PolyMatrix(Z8, [[poly_from_text("t", Z8)]]),
    )
    t4 = tangle(w, q)
    assert t4.rows == 4
    assert set(t4.vars) == {"x", "y", "z", "t"}
    assert is_paraunitary(t4).ok


def test_tangle_requires_sqrt2():
    a = PolyMatrix(QQ, [[poly_from_text("x", QQ)]])
    b = PolyMatrix(QQ, [[poly_from_text("y", QQ)]])
    with pytest.raises(NoSquareRoot):
        tangle(a, b)


@pytest.mark.parametrize(
    "a, b, error, message",
    [
        ([[1, 0]], [[1, 0]], NotSquare, "square matrix required, got 1x2"),
        ([[1, 0], [0, 1]], [[1]], DimensionMismatch, "2x2 vs 1x1"),
    ],
    ids=["not-square", "two-sizes"],
)
def test_tangle_refuses_blocks_of_two_sizes_or_not_square(a, b, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        tangle(PolyMatrix(Z8, a), PolyMatrix(Z8, b))


def test_a_monomial_assignment_needs_one_coefficient_per_exponent():
    with pytest.raises(DimensionMismatch, match="^1 coeffs for 2 exponents: one coefficient per exponent required$"):
        MonomialAssignment.build(Z8, [1], [1, 2])


def test_tangle_over_f2_has_no_inverse_square_root(tmp_path, capsys):
    # sqrt2 of F_2 is 0, a square root of 2 = 0 with no inverse
    f2 = prime_field(2)
    a = PolyMatrix(f2, [[poly_from_text("x", f2)]])
    with pytest.raises(NoSquareRoot, match=r"^no 1/sqrt2 in F_2, where 2 = 0$"):
        tangle(a, a)
    pipe = tmp_path / "tangle-f2.json"
    pipe.write_text(json.dumps({
        "ring": {"kind": "prime_field", "p": 2},
        "steps": [
            {"op": "matrix", "bind": "a", "entries": [["x"]]},
            {"op": "tangle", "bind": "W", "a": "$a", "b": "$a"},
        ],
    }))
    assert main(["build", str(pipe)]) == 2
    assert capsys.readouterr().err == "build failed: step 2 (tangle -> W): no 1/sqrt2 in F_2, where 2 = 0\n"


def test_tangle_over_f7():
    sa = IdempotentSet(F7_SET_A, check=True)
    sb = IdempotentSet(F7_SET_B, check=True)
    a = monomial_sum(
        sa, MonomialAssignment.build(F7, [1, 1, 1], [{"x": 1}, {"y": 1}, {"z": 1}])
    )
    b = monomial_sum(
        sb, MonomialAssignment.build(F7, [1, 1, 1], [{"t": 1}, {"r": 1}, {"s": 1}])
    )
    # the (A A; -B B) shape: horizontal base with swapped block columns
    w = tangle(a, b, TangleVariant(order="AB", base="horizontal", perm="cols"))
    assert w.rows == 6
    assert is_paraunitary(w).ok
    blocks_ok = mul(w, w.adjoint()) == PolyMatrix.identity(F7, 6)
    assert blocks_ok


def test_all_tangle_variants_paraunitary():
    assert len(all_tangle_variants()) == 24
    a = simple_monomial_sum(c2_set(Z8), (0, 1), var="u")
    b = simple_monomial_sum(diagonal_set(Z8, 2), (1, 2), var="v")
    for variant in all_tangle_variants():
        assert is_paraunitary(tangle(a, b, variant)).ok


def test_pseudo_from_rows():
    p = monomial_sum(
        c2_set(), MonomialAssignment.build(QQ, [1, 1], [{"x": 1}, {"y": 1}])
    )
    w = pseudo_from_rows(
        p, MonomialAssignment.build(QQ, [1, 1], [{"z": 1}, {"t": 1}])
    )
    expected = laurent_p1().scale(LaurentPoly.variable("z", QQ)) + laurent_p2().scale(
        LaurentPoly.variable("t", QQ)
    )
    assert w == expected
    mono = is_pseudo_paraunitary(w)
    assert mono is not None and mono.is_one()
    with pytest.raises(VariableCollision):
        pseudo_from_rows(p, MonomialAssignment.build(QQ, [1, 1], [{"x": 1}, {"t": 1}]))


def test_pseudo_identity_case():
    w = pseudo_from_rows(
        PolyMatrix.identity(QQ, 2),
        MonomialAssignment.build(QQ, [1, 1], [{"z": 1}, {"t": 1}]),
    )
    assert w == PolyMatrix(
        QQ, [[poly_from_text("z", QQ), 0], [0, poly_from_text("t", QQ)]]
    )


def test_pseudo_iterate_rows():
    p = monomial_sum(
        c2_set(), MonomialAssignment.build(QQ, [1, 1], [{"x": 1}, {"y": 1}])
    )
    w = pseudo_from_rows(p, MonomialAssignment.build(QQ, [1, 1], [{"z": 1}, {"t": 1}]))
    w2 = pseudo_from_rows(w, MonomialAssignment.build(QQ, [1, 1], [{"u": 1}, {"v": 1}]))
    mono = is_pseudo_paraunitary(w2)
    assert mono is not None and mono.is_one()


def test_monomial_clear():
    p = monomial_sum(
        c2_set(), MonomialAssignment.build(QQ, [1, 1], [{"x": 1}, {"y": 1}])
    )
    w = pseudo_from_rows(p, MonomialAssignment.build(QQ, [1, 1], [{"z": 1}, {"t": 1}]))
    cleared = monomial_clear(w)
    assert cleared.clearing_monomial == poly_from_text("x*y", QQ)
    assert cleared.product_monomial == poly_from_text("x^2*y^2", QQ)
    q = cleared.matrix
    # Q is an honest polynomial matrix
    assert all(e >= 0 for row in q.entries for ent in row for exps in ent.coefficients() for e in exps)
    # Q Q* = I, equivalently Q (p Q*) = p I with p the star-fixed monomial
    assert mul(q, q.adjoint()) == PolyMatrix.identity(QQ, 2)
    p_mono = cleared.product_monomial
    lhs = mul(q, q.adjoint().scale(p_mono))
    assert lhs == PolyMatrix.identity(QQ, 2).scale(p_mono)
    # already-polynomial input is unchanged
    again = monomial_clear(q)
    assert again.matrix == q and again.clearing_monomial.is_one()
    # diag(z^-1, z^-1) clears to the identity
    dz = PolyMatrix(
        QQ, [[poly_from_text("z^-1", QQ), 0], [0, poly_from_text("z^-1", QQ)]]
    )
    c2 = monomial_clear(dz)
    assert c2.matrix == PolyMatrix.identity(QQ, 2)
    assert is_pseudo_paraunitary(c2.matrix).is_one()


def test_compose_chain():
    c2 = c2_set()
    d2 = diagonal_set(QQ, 2)
    chain = [
        simple_monomial_sum(d2, (0, 1)),
        simple_monomial_sum(c2, (1, 2)),
        simple_monomial_sum(d2, (2, 3)),
        simple_monomial_sum(c2, (2, 3)),
    ]
    w = compose(chain, "product", expect_paraunitary=True)
    assert is_paraunitary(w).ok
    t = compose([c2_haar_w(), c2_haar_w()], "tensor", expect_paraunitary=True)
    assert t.rows == 4


def test_compose_sandwich():
    qset = from_group(cyclic(3), Z3)
    pset = from_orthonormal_basis(Z3, [BASIS_V1, BASIS_V2, BASIS_V3])
    q = simple_monomial_sum(qset, (0, 3, 2))
    w = simple_monomial_sum(pset, (2, 1, 3))
    assert is_paraunitary(compose([q, w, q], "product")).ok


def test_specialize_4x4_real():
    w = block_arrangement(
        c2_set(), ArrangementPlan.build(QQ, [[0, 1], [1, 0]], [["x", "y"], ["z", "t"]])
    )
    report = specialize(w, {"x": 1, "y": 1, "z": 1, "t": 1})
    assert report.ok
    assert report.clearing_factor == 2
    assert report.cleared == HADAMARD_4_REAL
    assert report.is_hadamard
    assert report.butson_q == 2


def test_specialize_4x4_complex():
    q0, q1 = complex_pair_q0_q1()
    s = IdempotentSet([q0, q1])
    w = block_arrangement(
        s, ArrangementPlan.build(Z4, [[0, 1], [1, 0]], [["x", "y"], ["z", "t"]])
    )
    report = specialize(w, {"x": 1, "y": 1, "z": 1, "t": 1})
    assert report.ok
    assert report.cleared == hadamard_4_complex()
    assert report.is_hadamard
    assert report.butson_q == 4


def test_specialize_butson_h39():
    s = from_group(cyclic(3), Z3)
    grid = latin_square_from_group(cyclic(3))
    plan = ArrangementPlan.build(Z3, grid, [["x", "y", "z"], ["z", "x", "y"], ["y", "z", "x"]])
    w = block_arrangement(s, plan)
    omega = root_of_unity(Z3, 3)
    for values in ({"x": 1, "y": 1, "z": 1}, {"x": omega, "y": 1, "z": omega * omega}):
        report = specialize(w, values)
        assert report.ok
        assert report.clearing_factor == 3
        assert report.gram_constant == ExactScalar.from_rational(Z3, 9)
        assert report.is_hadamard
        assert report.butson_q == 3


def test_specialize_takes_one_order_per_distinct_entry_of_butson_h39(monkeypatch):
    """The cleared 9x9 of butson-h39 holds 81 entries and 3 distinct values
    (1, omega and omega^2): its Butson type takes three orders, not 81."""
    from paraunitary import hadamard

    calls = []

    def counting(a, cap):
        calls.append(a)
        return multiplicative_order(a, cap=cap)

    monkeypatch.setattr(hadamard, "multiplicative_order", counting)
    s = from_group(cyclic(3), Z3)
    plan = ArrangementPlan.build(Z3, latin_square_from_group(cyclic(3)), [["x", "y", "z"], ["z", "x", "y"], ["y", "z", "x"]])
    report = specialize(block_arrangement(s, plan), {"x": 1, "y": 1, "z": 1})
    assert report.butson_q == 3
    assert len(calls) == 3 and len(set(calls)) == 3


def test_specialize_requires_full_unit_assignment():
    w = c2_haar_w()
    from paraunitary.errors import NotFullyAssigned

    with pytest.raises(NotFullyAssigned):
        specialize(w, {})
    with pytest.raises(NotUnitModulus):
        specialize(w, {"z": 2})


def test_closure_random_products():
    rng = random.Random(31)
    sets = [c2_set(), diagonal_set(QQ, 2)]
    for _ in range(20):
        s = rng.choice(sets)
        w1 = simple_monomial_sum(s, [rng.randint(0, 3) for _ in s.members])
        w2 = simple_monomial_sum(rng.choice(sets), [rng.randint(0, 3) for _ in range(2)])
        assert is_paraunitary(mul(w1, w2)).ok
        assert is_paraunitary(w1.adjoint()).ok
        assert is_paraunitary(w1.transpose()).ok


def test_from_rows_of_tangle():
    a = simple_monomial_sum(c2_set(Z8), (0, 1), var="u")
    b = simple_monomial_sum(diagonal_set(Z8, 2), (1, 2), var="v")
    w = tangle(a, b)
    s = from_matrix_rows(w)
    assert len(s) == 4


def test_tangle_determinant_unimodular():
    from paraunitary.polymatrix import determinant
    from paraunitary.scalars import one

    a = simple_monomial_sum(c2_set(Z8), (0, 1), var="u")
    b = simple_monomial_sum(diagonal_set(Z8, 2), (1, 2), var="v")
    for variant in (TangleVariant(), TangleVariant(order="BA", base="horizontal", perm="rows")):
        det = determinant(tangle(a, b, variant))
        assert det * det.star() == LaurentPoly.constant(one(Z8))


def test_matrix_substitution_equates_variables():
    a = simple_monomial_sum(c2_set(), (0, 1), var="x")
    b = a.substitute({"x": LaurentPoly.variable("z", QQ)})
    assert b == simple_monomial_sum(c2_set(), (0, 1), var="z")
    assert is_paraunitary(b).ok
