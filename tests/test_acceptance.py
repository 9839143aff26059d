"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Every comparison is exact; there are no numerical tolerances
anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from _fixtures import (
    BASIS_V1,
    BASIS_V2,
    BASIS_V3,
    C2_E0,
    C2_E1,
    F3_BLOCKS,
    F5_SET,
    F7_SET_A,
    F7_SET_B,
    HADAMARD_4_REAL,
    P1,
    P2,
    P3,
    S3_E1,
    S3_E2,
    S3_E3,
    c2_haar_w,
    complex_pair_q0_q1,
    hadamard_4_complex,
    laurent_p1,
    laurent_p2,
)
from _random_objects import (
    Z8,
    all_builtin_sets,
    permute_cols,
    permute_rows,
    random_assignment,
    random_paraunitary,
    random_permutation_matrix,
    random_set,
    rational_set_pool,
)
from paraunitary.catalog import CATALOG
from paraunitary.constructors import (
    ArrangementPlan,
    MonomialAssignment,
    TangleVariant,
    all_tangle_variants,
    block_arrangement,
    latin_square_from_group,
    monomial_clear,
    monomial_sum,
    pseudo_from_rows,
    simple_monomial_sum,
    tangle,
)
from paraunitary.errors import (
    IsotropicVector,
    NoSquareRoot,
    NotUnitModulus,
)
from paraunitary.groups import (
    GroupRingElement,
    cyclic,
    dihedral,
    elementary_abelian_2,
    embed_group_ring,
    symmetric_3,
)
from paraunitary.hadamard import specialize
from paraunitary.idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    factor_rank1,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    merge,
    realify,
    tensor_sets,
    verify_set,
)
from paraunitary.laurent import LaurentPoly, poly_from_text
from paraunitary.pipeline import execute_pipeline
from paraunitary.polymatrix import (
    PolyMatrix,
    determinant,
    determinant_cofactor,
    is_paraunitary,
    is_pseudo_paraunitary,
    mul,
    rank,
    tensor,
    trace,
)
from paraunitary.scalars import (
    QQ,
    ExactScalar,
    cyclotomic,
    prime_field,
    root_of_unity,
    sqrt2,
)
from paraunitary.serialize import dumps, matrix_to_json

F7 = prime_field(7)
Z3 = cyclotomic(3)


def _report(num: int, name: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f} s, limit {limit:.0f} s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget: {elapsed:.2f}s"


def _bytes_equal(a: PolyMatrix, b: PolyMatrix) -> bool:
    return a == b and dumps(matrix_to_json(a)) == dumps(matrix_to_json(b))


def test_criterion_1_byte_exact_reproduction():
    started = time.perf_counter()
    # rank-1 projectors of the rational orthonormal basis
    s = from_orthonormal_basis(QQ, [BASIS_V1, BASIS_V2, BASIS_V3])
    for got, want in zip(s.members, (P1, P2, P3)):
        assert _bytes_equal(got, want)
    # order-2 idempotent pair and its degree-one monomial sum
    c2 = from_group(cyclic(2), QQ)
    assert _bytes_equal(c2.members[0], C2_E0)
    assert _bytes_equal(c2.members[1], C2_E1)
    assert _bytes_equal(simple_monomial_sum(c2, (0, 1)), c2_haar_w())
    # symmetric-group matrices
    s3 = from_group(symmetric_3(), QQ)
    for got, want in zip(s3.members, (S3_E1, S3_E2, S3_E3)):
        assert _bytes_equal(got, want)
    # prime-field sets
    f5 = from_orthogonal_basis_finite(prime_field(5), [[2, 1, 2], [1, 2, 3], [2, 3, 4]])
    for got, want in zip(f5.members, F5_SET):
        assert _bytes_equal(got, want)
    f7a = from_orthogonal_basis_finite(F7, [[2, 1, 2], [1, 2, 5], [2, 5, 6]])
    f7b = from_orthogonal_basis_finite(F7, [[1, 2, 1], [1, 6, 1], [1, 0, 6]])
    for got, want in list(zip(f7a.members, F7_SET_A)) + list(zip(f7b.members, F7_SET_B)):
        assert _bytes_equal(got, want)
    # rank-1 Laurent idempotents from rows of the two-variable monomial sum
    p = monomial_sum(
        c2, MonomialAssignment.build(QQ, [1, 1], [{"x": 1}, {"y": 1}])
    )
    rows = from_matrix_rows(p)
    assert _bytes_equal(rows.members[0], laurent_p1())
    assert _bytes_equal(rows.members[1], laurent_p2())
    _report(1, "byte-exact printed matrices", started, 1.0)


def test_criterion_2_verification_suite():
    started = time.perf_counter()
    # re-execute the whole catalog: every pipeline re-proves its identities
    checked_sets = checked_matrices = 0
    for entry in CATALOG:
        env = execute_pipeline(entry.pipeline)
        for value in env.values():
            if isinstance(value, IdempotentSet):
                assert verify_set(value).ok, entry.id
                checked_sets += 1
            elif isinstance(value, PolyMatrix) and value.is_square:
                checked_matrices += 1
    assert checked_sets >= 20 and checked_matrices >= 20
    # the cleared pseudo-paraunitary form satisfies Q Q* = I, i.e.
    # Q (p Q*) = p I with p = x^2 y^2 the star-fixed clearing monomial
    c2 = from_group(cyclic(2), QQ)
    p_matrix = monomial_sum(c2, MonomialAssignment.build(QQ, [1, 1], [{"x": 1}, {"y": 1}]))
    w = pseudo_from_rows(p_matrix, MonomialAssignment.build(QQ, [1, 1], [{"z": 1}, {"t": 1}]))
    mono = is_pseudo_paraunitary(w)
    assert mono is not None and mono.is_one()
    cleared = monomial_clear(w)
    q = cleared.matrix
    p_mono = cleared.product_monomial
    assert p_mono == poly_from_text("x^2*y^2", QQ)
    eye = PolyMatrix.identity(QQ, 2)
    assert mul(q, q.adjoint()) == eye
    assert mul(q, q.adjoint().scale(p_mono)) == eye.scale(p_mono)
    _report(2, "catalog verification", started, 5.0)


def test_criterion_3_rank_and_determinant(seed):
    started = time.perf_counter()
    s3 = from_group(symmetric_3(), QQ)
    ranks = []
    for member in s3.members:
        t = trace(member)
        assert t.ring == QQ and t.rational_value().denominator == 1 and t.rational_value() >= 0
        r = rank(member)
        assert r == t.rational_value()
        ranks.append(r)
    assert ranks == [1, 1, 4]
    combo = s3.members[0].scale(2) + s3.members[1].scale(3) + s3.members[2].scale(5)
    det = determinant(combo)
    expected = LaurentPoly.constant(ExactScalar.from_rational(QQ, 3750))
    assert det == expected
    assert determinant_cofactor(combo) == expected
    assert 3750 == 2 * 3 * 5**4
    # randomized cross-check across every built-in family, n <= 9
    rng = random.Random(seed)
    sets = all_builtin_sets()
    assert max(s.n for s in sets) == 9
    for case in range(50):
        s = sets[case % len(sets)]
        coeffs = [
            ExactScalar.from_rational(
                s.ring, Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 3))
            )
            for _ in s.members
        ]
        combo = s.members[0].scale(coeffs[0])
        for c, e in zip(coeffs[1:], s.members[1:]):
            combo = combo + e.scale(c)
        det = determinant(combo)
        product = ExactScalar.from_rational(s.ring, 1)
        for c, e in zip(coeffs, s.members):
            product = product * c ** rank(e)
        assert det == LaurentPoly.constant(product)
        assert determinant_cofactor(combo) == det
    _report(3, "rank/determinant theorems", started, 30.0)


def test_criterion_4_hadamard():
    started = time.perf_counter()
    c3 = from_group(cyclic(3), Z3)
    plan = ArrangementPlan.build(
        Z3,
        latin_square_from_group(cyclic(3)),
        [["x", "y", "z"], ["z", "x", "y"], ["y", "z", "x"]],
    )
    w = block_arrangement(c3, plan)
    omega = root_of_unity(Z3, 3)
    for values in ({"x": 1, "y": 1, "z": 1}, {"x": omega, "y": omega, "z": omega}):
        report = specialize(w, values)
        assert report.ok and report.is_hadamard
        assert report.gram_constant == ExactScalar.from_rational(Z3, 9)
        assert report.butson_q == 3
        gram = mul(report.cleared, report.cleared.adjoint())
        assert gram == PolyMatrix.identity(Z3, 9).scale(ExactScalar.from_rational(Z3, 9))
    # 4x4 real and complex examples reproduce the printed matrices
    c2 = from_group(cyclic(2), QQ)
    w4 = block_arrangement(
        c2, ArrangementPlan.build(QQ, [[0, 1], [1, 0]], [["x", "y"], ["z", "t"]])
    )
    r4 = specialize(w4, {"x": 1, "y": 1, "z": 1, "t": 1})
    assert _bytes_equal(r4.cleared, HADAMARD_4_REAL)
    q0, q1 = complex_pair_q0_q1()
    wc = block_arrangement(
        IdempotentSet([q0, q1]),
        ArrangementPlan.build(q0.ring, [[0, 1], [1, 0]], [["x", "y"], ["z", "t"]]),
    )
    rc = specialize(wc, {"x": 1, "y": 1, "z": 1, "t": 1})
    assert _bytes_equal(rc.cleared, hadamard_4_complex())
    assert rc.butson_q == 4
    _report(4, "Hadamard specializations", started, 2.0)


def test_criterion_5_tangles(seed):
    started = time.perf_counter()
    # the F_7 tangle with sqrt(2) = 3
    assert sqrt2(F7) == ExactScalar.from_rational(F7, 3)
    sa = IdempotentSet(F7_SET_A)
    sb = IdempotentSet(F7_SET_B)
    a = monomial_sum(
        sa, MonomialAssignment.build(F7, [1, 1, 1], [{"x": 1}, {"y": 1}, {"z": 1}])
    )
    b = monomial_sum(
        sb, MonomialAssignment.build(F7, [1, 1, 1], [{"t": 1}, {"r": 1}, {"s": 1}])
    )
    w = tangle(a, b, TangleVariant(order="AB", base="horizontal", perm="cols"))
    assert is_paraunitary(w).ok
    # exhaustive: all 24 variants on randomized paraunitary pairs, n <= 4
    variants = all_tangle_variants()
    assert len(variants) == 2 * 3 * 2 * 2
    pool = {
        2: [from_group(cyclic(2), Z8), diagonal_set(Z8, 2)],
        3: [diagonal_set(Z8, 3), from_orthonormal_basis(Z8, [BASIS_V1, BASIS_V2, BASIS_V3])],
        4: [
            from_group(elementary_abelian_2(2), Z8),
            diagonal_set(Z8, 4),
            from_group(cyclic(4), Z8),
        ],
    }
    schedule = [2, 3, 4, 2, 3, 2, 3, 4, 2, 3, 2, 3, 4, 2, 2, 3, 3, 4, 2, 3]
    for case in range(20):
        rng = random.Random(seed + case)
        n = schedule[case]
        sets = pool[n]
        s1, s2 = rng.choice(sets), rng.choice(sets)
        a = monomial_sum(s1, random_assignment(rng, s1, ("u", "v")))
        b = monomial_sum(s2, random_assignment(rng, s2, ("w",)))
        for variant in variants:
            t = tangle(a, b, variant)
            assert is_paraunitary(t).ok
            # the recorded rule above; the Gram product of the construction itself here
            report = is_paraunitary(PolyMatrix(t.ring, t.entries))
            assert report.ok and report.certificate == "hermitian-half"
    _report(5, "tangles incl. F_7 and all variants", started, 30.0)


def test_criterion_6_property_suites(seed):
    started = time.perf_counter()
    rng = random.Random(seed)
    pool = rational_set_pool()

    # (i) closure of paraunitarity under product/tensor/adjoint/transpose/permutation
    by_size = {}
    for s in pool:
        by_size.setdefault(s.n, []).append(s)
    sizes = [2, 3, 4] * 60 + [6, 8] * 10  # mostly small with a heavy tail
    for case in range(200):
        n = sizes[case]
        s1, s2 = rng.choice(by_size[n]), rng.choice(by_size[n])
        w1 = monomial_sum(s1, random_assignment(rng, s1, ("z",)))
        w2 = monomial_sum(s2, random_assignment(rng, s2, ("z", "y")))
        op = rng.randrange(5)
        if op == 0 and n <= 6:
            out = mul(w1, w2)
        elif op == 1 and n <= 3:
            out = tensor(w1, w2)
        elif op == 2:
            out = w1.adjoint()
        elif op == 3:
            out = w1.transpose()
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            out = permute_rows(w1, perm) if rng.random() < 0.5 else permute_cols(w1, perm)
        assert is_paraunitary(out).ok

    # (ii) verify_set on every constructor's output
    f5 = prime_field(5)
    for case in range(200):
        kind = case % 8
        if kind == 0:
            grouping = rng.choice([None, [[0], [1, 2]], [[0, 1, 2]], [[1], [0, 2]]])
            s = from_orthonormal_basis(QQ, [BASIS_V1, BASIS_V2, BASIS_V3], grouping)
        elif kind == 1:
            s = random_set(rng, pool)
        elif kind == 2:
            s = diagonal_set(QQ, rng.randint(1, 6))
        elif kind == 3:
            base = rng.choice(pool)
            s = conjugate_set(base, random_permutation_matrix(rng, base.ring, base.n))
        elif kind == 4:
            small = [p for p in pool if p.n <= 3]
            s = tensor_sets(rng.choice(small), rng.choice(small))
        elif kind == 5:
            perm = rng.sample(range(3), 3)
            vectors = [[2, 1, 2], [1, 2, 3], [2, 3, 4]]
            s = from_orthogonal_basis_finite(f5, [vectors[i] for i in perm])
        elif kind == 6:
            conductor = rng.choice([4, 6, 8])
            s = realify(from_group(cyclic(conductor), cyclotomic(conductor)))
        else:
            # rank-1 Laurent projectors square the term count, so stay small
            w = random_paraunitary(rng, [p for p in pool if p.n <= 3])
            s = from_matrix_rows(w)
        assert verify_set(s).ok

    # (iii) the group-ring embedding is a *-homomorphism
    tables = [cyclic(4), cyclic(6), elementary_abelian_2(2), symmetric_3(), dihedral(4)]
    for case in range(200):
        table = tables[case % len(tables)]
        ring = QQ if case % 2 else cyclotomic(12)
        u = GroupRingElement(
            table, ring, [ExactScalar.from_rational(ring, rng.randint(-3, 3)) for _ in range(table.order)]
        )
        v = GroupRingElement(
            table, ring, [ExactScalar.from_rational(ring, rng.randint(-3, 3)) for _ in range(table.order)]
        )
        assert embed_group_ring(u * v) == mul(embed_group_ring(u), embed_group_ring(v))
        assert embed_group_ring(u.transpose()) == embed_group_ring(u).transpose()
        assert embed_group_ring(u.star()) == embed_group_ring(u).adjoint()

    # (iv) rank additivity: sum of ranks is n, merging adds ranks
    for _ in range(200):
        s = random_set(rng, pool)
        ranks = [rank(m) for m in s.members]
        assert sum(ranks) == s.n
        if len(s) > 1:
            i = rng.randrange(len(s) - 1)
            merged = merge(s, [[j] for j in range(len(s)) if j not in (i, i + 1)] + [[i, i + 1]])
            assert sum(rank(m) for m in merged.members) == s.n
            assert rank(s.members[i] + s.members[i + 1]) == ranks[i] + ranks[i + 1]

    # (v) constructed paraunitary matrices have unimodular determinant
    small_pool = [s for s in pool if s.n <= 4]
    big_pool = [s for s in pool if s.n == 6]
    for case in range(200):
        w = random_paraunitary(rng, big_pool if case % 25 == 0 else small_pool)
        det = determinant(w)
        assert det * det.star() == LaurentPoly.constant(ExactScalar.from_rational(QQ, 1))

    # (vi) star/substitute algebra laws
    z4 = cyclotomic(4)
    units4 = [root_of_unity(z4, 4) ** k for k in range(4)]
    for _ in range(200):
        def draw():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = (rng.randint(-3, 3), rng.randint(-3, 3))
                terms[exps] = ExactScalar.from_rational(QQ, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            return LaurentPoly(QQ, ("y", "z"), terms)

        f, g = draw(), draw()
        assert (f * g).star() == f.star() * g.star()
        assert (f + g).star() == f.star() + g.star()
        assert f.star().star() == f
        point = {"y": Fraction(rng.choice([1, -1, 2, 3])), "z": Fraction(rng.choice([1, -1, 2]))}
        assert (f * g).substitute(point) == f.substitute(point) * g.substitute(point)
        # unit-modulus substitution commutes with star up to conjugation
        terms = {(rng.randint(-2, 2),): rng.choice(units4) for _ in range(rng.randint(1, 3))}
        h = LaurentPoly(z4, ("z",), terms)
        u = rng.choice(units4)
        assert h.star().substitute({"z": u}).constant_value() == h.substitute({"z": u}).constant_value().conj()
    _report(6, "property suites (6 x 200 cases)", started, 120.0)


def test_criterion_7_negative_cases():
    started = time.perf_counter()
    c2 = from_group(cyclic(2), QQ)
    # a non-unit coefficient is rejected, and forcing the assembly anyway
    # yields a matrix that is provably not paraunitary
    with pytest.raises(NotUnitModulus):
        MonomialAssignment.build(QQ, [2, 1], [1, 0])
    z = LaurentPoly.variable("z", QQ)
    forced = c2.members[0].scale(z * 2) + c2.members[1]
    assert not is_paraunitary(forced).ok
    # rank-1 factorization fails over F_3 where 2 has no square root
    with pytest.raises(NoSquareRoot):
        factor_rank1(F3_BLOCKS[0])
    # tangles need sqrt(2) in the ring
    x = PolyMatrix(QQ, [[poly_from_text("x", QQ)]])
    y = PolyMatrix(QQ, [[poly_from_text("y", QQ)]])
    with pytest.raises(NoSquareRoot):
        tangle(x, y)
    # isotropic finite-field bases are rejected
    with pytest.raises(IsotropicVector):
        from_orthogonal_basis_finite(prime_field(2), [[1, 1], [1, 1]])
    _report(7, "negative tests", started, 1.0)
