"""Tests for matrix operations, paraunitarity checks, and exact rank/det."""

import random
from fractions import Fraction

import pytest

from _random_objects import permute_cols, permute_rows

from paraunitary.errors import DimensionMismatch, NotScalar, NotSquare, ZeroCoefficient
from paraunitary.idempotents import idempotent_inverse
from paraunitary.laurent import LaurentPoly, poly_from_text
from paraunitary.polymatrix import (
    PolyMatrix,
    assemble_blocks,
    combination,
    determinant,
    determinant_cofactor,
    is_paraunitary,
    is_pseudo_paraunitary,
    mul,
    rank,
    tensor,
    trace,
)
from paraunitary.scalars import QQ, ExactScalar, cyclotomic, prime_field

Z4 = cyclotomic(4)


def qmat(rows):
    return PolyMatrix(QQ, [[Fraction(x) for x in row] for row in rows])


def pmat(rows, ring=QQ):
    return PolyMatrix(ring, [[poly_from_text(x, ring) if isinstance(x, str) else x for x in row] for row in rows])


def haar_c2():
    return pmat(
        [
            ["(1/2) + (1/2)*z", "(1/2) - (1/2)*z"],
            ["(1/2) - (1/2)*z", "(1/2) + (1/2)*z"],
        ]
    )


P1 = qmat([("4/9", "2/9", "4/9"), ("2/9", "1/9", "2/9"), ("4/9", "2/9", "4/9")])
P2 = qmat([("1/9", "2/9", "-2/9"), ("2/9", "4/9", "-4/9"), ("-2/9", "-4/9", "4/9")])
P3 = qmat([("4/9", "-4/9", "-2/9"), ("-4/9", "4/9", "2/9"), ("-2/9", "2/9", "1/9")])


def test_adjoint_examples():
    eye = PolyMatrix.identity(QQ, 3)
    assert eye.adjoint() == eye
    w = haar_c2()
    expected = pmat(
        [
            ["(1/2) + (1/2)*z^-1", "(1/2) - (1/2)*z^-1"],
            ["(1/2) - (1/2)*z^-1", "(1/2) + (1/2)*z^-1"],
        ]
    )
    assert w.adjoint() == expected
    assert w.adjoint().adjoint() == w
    m = pmat([["x", "y"], ["x", "-y"]])
    assert m.adjoint() == pmat([["x^-1", "x^-1"], ["y^-1", "-y^-1"]])


def test_adjoint_antimultiplicative():
    rng = random.Random(13)
    for _ in range(20):
        a = PolyMatrix(
            QQ,
            [
                [
                    LaurentPoly(QQ, ("z",), {(rng.randint(-2, 2),): Fraction(rng.randint(-3, 3))})
                    for _ in range(3)
                ]
                for _ in range(2)
            ],
        )
        b = PolyMatrix(
            QQ,
            [
                [
                    LaurentPoly(QQ, ("z",), {(rng.randint(-2, 2),): Fraction(rng.randint(-3, 3))})
                    for _ in range(2)
                ]
                for _ in range(3)
            ],
        )
        assert mul(a, b).adjoint() == mul(b.adjoint(), a.adjoint())


def test_is_paraunitary():
    assert is_paraunitary(haar_c2()).ok
    bad = qmat([(1, 0), (0, 2)])
    report = is_paraunitary(bad)
    assert not report.ok
    assert any("(2,2)" in f for f in report.failures)
    assert report.residual is not None
    with pytest.raises(NotSquare):
        is_paraunitary(PolyMatrix.zeros(QQ, 2, 3))


def test_non_unit_coefficient_breaks_paraunitarity():
    # 2 E_0 z + E_1 fails: the unit-modulus condition is necessary
    e0 = qmat([("1/2", "1/2"), ("1/2", "1/2")])
    e1 = qmat([("1/2", "-1/2"), ("-1/2", "1/2")])
    z = LaurentPoly.variable("z", QQ)
    w = e0.scale(z * 2) + e1
    assert not is_paraunitary(w).ok


def test_pseudo_paraunitary():
    eye = PolyMatrix.identity(QQ, 2)
    p = is_pseudo_paraunitary(eye)
    assert p is not None and p.is_one()
    assert is_pseudo_paraunitary(qmat([(1, 1), (0, 1)])) is None


def test_mul_tensor_blocks():
    w = haar_c2()
    assert is_paraunitary(mul(w, w)).ok
    t = tensor(PolyMatrix.identity(QQ, 2), w)
    assert t.rows == 4
    zero = PolyMatrix.zeros(QQ, 2, 2)
    assert assemble_blocks([[w, zero], [zero, w]]) == t
    assert is_paraunitary(t).ok


@pytest.mark.parametrize("shape", ["ragged", "no rows", "an empty row"])
def test_assemble_blocks_refuses_an_empty_or_ragged_grid(shape):
    # the ragged grid once glued a "4x4" matrix whose last two rows held 2
    # entries each, and the empty ones raised a bare IndexError
    a = PolyMatrix.identity(QQ, 2)
    blocks = {"ragged": [[a, a], [a]], "no rows": [], "an empty row": [[]]}[shape]
    with pytest.raises(DimensionMismatch, match="^ragged or empty block grid$"):
        assemble_blocks(blocks)


def test_combination_equals_the_sum_of_scaled_matrices():
    z = LaurentPoly.variable("z", QQ)
    mats = [P1, P2, P3, pmat([["x", "0", "1"], ["0", "1", "0"], ["z^-1", "0", "0"]])]
    for coeffs in ([2, Fraction(-1, 3), 0, 1], [z, z**-1 + 1, ExactScalar.from_rational(QQ, 5), 0]):
        expected = mats[0].scale(coeffs[0])
        for c, m in zip(coeffs[1:], mats[1:]):
            expected = expected + m.scale(c)
        got = combination(coeffs, mats)
        assert got == expected and got.vars == expected.vars
    # cancelling coefficients drop the variable from the result
    assert combination([z, -z], [P1, P1]) == PolyMatrix.zeros(QQ, 3, 3)
    assert combination([z, -z], [P1, P1]).vars == ()
    with pytest.raises(DimensionMismatch):
        combination([1], [P1, P2])
    with pytest.raises(DimensionMismatch):
        combination([1, 1], [P1, PolyMatrix.identity(QQ, 2)])


def test_structural_ops_keep_the_variables_the_entries_use():
    # scale, negation, transpose and assemble_blocks build without a
    # re-scan of the entries; each result must still carry exactly the
    # variables its entries use, as a fresh PolyMatrix computes them
    m = pmat([["x^-1", "2*x^-1"], ["z*x^-1", "0"]])
    x = LaurentPoly.variable("x", QQ)
    results = {
        "monomial cancels x": (m.scale(x), pmat([["1", "2"], ["z", "0"]])),
        "constant": (m.scale(Fraction(1, 2)), pmat([["(1/2)*x^-1", "x^-1"], ["(1/2)*z*x^-1", "0"]])),
        "zero": (m.scale(0), PolyMatrix.zeros(QQ, 2, 2)),
        "monomial in new variables": (
            m.scale(LaurentPoly.monomial(3, {"y": 2, "w": -1}, QQ)),
            pmat([["3*w^-1*x^-1*y^2", "6*w^-1*x^-1*y^2"], ["3*w^-1*x^-1*y^2*z", "0"]]),
        ),
        "zero matrix times a monomial": (PolyMatrix.zeros(QQ, 2, 2).scale(x), PolyMatrix.zeros(QQ, 2, 2)),
        "negation": (-m, pmat([["-x^-1", "-2*x^-1"], ["-z*x^-1", "0"]])),
        "transpose": (m.transpose(), pmat([["x^-1", "z*x^-1"], ["2*x^-1", "0"]])),
        "blocks": (
            assemble_blocks([[m, PolyMatrix.identity(QQ, 2)], [-m, pmat([["y", "0"], ["0", "1"]])]]),
            pmat([
                ["x^-1", "2*x^-1", "1", "0"], ["z*x^-1", "0", "0", "1"],
                ["-x^-1", "-2*x^-1", "y", "0"], ["-z*x^-1", "0", "0", "1"],
            ]),
        ),
    }
    for label, (got, expected) in results.items():
        assert got == expected, label
        assert got.vars == PolyMatrix(QQ, got.entries).vars == expected.vars, label


def test_constructors_share_one_polynomial_per_distinct_cell(monkeypatch):
    assert len({id(e) for row in PolyMatrix.identity(QQ, 5).entries for e in row}) == 2
    assert len({id(e) for row in PolyMatrix.zeros(QQ, 3, 4).entries for e in row}) == 1
    z = poly_from_text("z^2 + x", QQ)
    calls = []
    original = LaurentPoly.with_vars

    def counted(self, vars):
        calls.append(self)
        return original(self, vars)

    monkeypatch.setattr(LaurentPoly, "with_vars", counted)
    m = PolyMatrix(QQ, [[z] * 6 for _ in range(6)])
    # every cell is on the union already: nothing is re-keyed
    assert not calls and m.vars == ("x", "z")
    assert len({id(e) for row in m.entries for e in row}) == 1
    # two distinct cells off the union: each is re-keyed once
    y = poly_from_text("y", QQ)
    m = PolyMatrix(QQ, [[z] * 6 for _ in range(5)] + [[y, z] * 3])
    assert sorted(map(id, calls)) == sorted([id(z), id(y)]) and m.vars == ("x", "y", "z")
    assert len({id(e) for row in m.entries for e in row}) == 2


def test_rank_trace():
    assert rank(P1) == 1
    assert trace(P1) == ExactScalar.from_rational(QQ, 1)
    assert rank(P1 + P2) == 2
    assert rank(PolyMatrix.zeros(QQ, 3, 3)) == 0
    # rank is over the fraction field, so a Laurent matrix has one; its trace is refused
    assert rank(haar_c2()) == 2
    with pytest.raises(NotScalar):
        trace(haar_c2())


def test_determinant_examples():
    a = P1.scale(2) + P2.scale(3) + P3.scale(5)
    assert determinant(a) == LaurentPoly.constant(ExactScalar.from_rational(QQ, 30))
    assert determinant_cofactor(a) == determinant(a)
    assert determinant(PolyMatrix.identity(QQ, 4)).is_one()
    w = pmat([["x", "y"], ["x", "-y"]])
    assert determinant(w) == poly_from_text("-2*x*y", QQ)
    assert determinant_cofactor(w) == determinant(w)


def test_determinant_multiplicative_and_oracle_agreement():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 4)

        def draw():
            return PolyMatrix(
                QQ,
                [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)],
            )

        a, b = draw(), draw()
        assert determinant(mul(a, b)) == determinant(a) * determinant(b)
    for _ in range(12):
        n = rng.randint(2, 5)
        m = PolyMatrix(
            QQ,
            [
                [
                    LaurentPoly(
                        QQ,
                        ("z",),
                        {
                            (rng.randint(-1, 2),): Fraction(rng.randint(-2, 2))
                            for _ in range(rng.randint(0, 2))
                        },
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ],
        )
        assert determinant(m) == determinant_cofactor(m)


def test_determinant_prime_field():
    f7 = prime_field(7)
    m = PolyMatrix(f7, [[2, 1], [1, 4]])
    assert determinant(m) == LaurentPoly.constant(ExactScalar.from_rational(f7, 0))
    m2 = PolyMatrix(f7, [[2, 1], [1, 5]])
    assert determinant(m2) == LaurentPoly.constant(ExactScalar.from_rational(f7, 2))


def test_determinant_scalar_oracle_agreement_n5():
    rng = random.Random(29)
    for _ in range(10):
        n = 5
        m = PolyMatrix(
            QQ,
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)
            ],
        )
        assert determinant(m) == determinant_cofactor(m)


def test_idempotent_trace_is_rank_as_integer():
    rng = random.Random(31)
    pool = [P1, P2, P3, P1 + P2, qmat([(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    for _ in range(20):
        e = rng.choice(pool)
        t = trace(e)
        assert t.rational_value().denominator == 1 and t.rational_value() >= 0
        assert rank(e) == t.rational_value()


def test_idempotent_inverse():
    e0 = qmat([("1/2", "1/2"), ("1/2", "1/2")])
    e1 = qmat([("1/2", "-1/2"), ("-1/2", "1/2")])
    inv = idempotent_inverse([2, 3], [e0, e1])
    combo = e0.scale(2) + e1.scale(3)
    assert mul(combo, inv) == PolyMatrix.identity(QQ, 2)
    assert inv == e0.scale(Fraction(1, 2)) + e1.scale(Fraction(1, 3))
    assert idempotent_inverse([1, 1], [e0, e1]) == PolyMatrix.identity(QQ, 2)
    with pytest.raises(ZeroCoefficient):
        idempotent_inverse([0, 1], [e0, e1])


def test_permutations_preserve_paraunitarity():
    w = haar_c2()
    assert is_paraunitary(permute_rows(w, [1, 0])).ok
    assert is_paraunitary(permute_cols(w, [1, 0])).ok
    assert is_paraunitary(w.transpose()).ok
    assert is_paraunitary(-w).ok
