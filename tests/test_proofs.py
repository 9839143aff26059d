"""Proof-carrying constructions: each constructor records the rule that
proves its output.

A rule is recorded only when the premises of its theorem hold, checked on
the inputs; any other input gets the generic check, with its errors and
messages.  Each rule is cross-checked here against that generic check
(``verify_set`` on a set, ``is_paraunitary`` on a proof-free copy of a
matrix) on good inputs over Q, Q(zeta_N) and F_p, Laurent included, and
against broken premises.  One oracle test replaces every rule by the generic
check and runs the whole catalog.  The ``certificate`` of a report, and the
single Gram product of ``hadamard.specialize``, are tested here too.
"""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from _fixtures import (
    F3,
    F5,
    F5_SET,
    F7,
    F7_SET_A,
    F7_SET_B,
    HADAMARD_4_REAL,
    block4_real_w,
    c2_haar_w,
    hadamard_4_complex,
)
from _random_objects import Z8, generic_matrix_report, generic_set_report, permute_rows
from paraunitary import constructors, idempotents, polymatrix
from paraunitary.catalog import CATALOG, catalog_ids, entry_matches, expected_outputs
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
    spectral_unitary,
    tangle,
)
from paraunitary.errors import (
    DimensionMismatch,
    InternalCheckError,
    NegativeExponent,
    NoSquareRoot,
    NotCompleteSet,
    NotParaunitary,
    NotUnitModulus,
    NotUnitVector,
)
from paraunitary.groups import (
    CharacterTable,
    GroupRingElement,
    character_table,
    cyclic,
    dihedral,
    elementary_abelian_2,
    embed_group_ring,
    group_ring_idempotents,
    symmetric_3,
)
from paraunitary.hadamard import hadamard_check, specialize
from paraunitary.idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    factor_rank1,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    idempotent_inverse,
    merge,
    realify,
    tensor_sets,
    verify_set,
)
from paraunitary.laurent import Gram, LaurentPoly, poly_from_text
from paraunitary.polymatrix import (
    PolyMatrix,
    VerificationReport,
    assemble_blocks,
    combination,
    is_paraunitary,
    is_pseudo_paraunitary,
    mul,
    rank,
    tensor,
)
from paraunitary.scalars import QQ, ExactScalar, cyclotomic, sqrt2, zeta
from paraunitary.serialize import dumps, idemset_from_json, matrix_to_json, object_to_json

Z4 = cyclotomic(4)
THIRD = Fraction(1, 3)
Q_BASIS = [
    [2 * THIRD, THIRD, 2 * THIRD],
    [THIRD, 2 * THIRD, -2 * THIRD],
    [2 * THIRD, -2 * THIRD, -THIRD],
]
# over F_7 the involution is the identity: 2*2 + 2*2 = 1, 2*2 + 5*5 = 1, 2*2 + 2*5 = 0
F7_BASIS = [[2, 2], [2, 5]]


def _z8_basis():
    i8, r8 = zeta(Z8, 2), sqrt2(Z8).inverse()
    return [[-i8 * r8, r8], [i8 * r8, r8]]


def _laurent_u():
    """(1/2)[[x+y, x-y], [x-y, x+y]], paraunitary over Q."""
    e = lambda s: poly_from_text(s, QQ)  # noqa: E731
    return PolyMatrix(
        QQ,
        [
            [e("(1/2)*x + (1/2)*y"), e("(1/2)*x - (1/2)*y")],
            [e("(1/2)*x - (1/2)*y"), e("(1/2)*x + (1/2)*y")],
        ],
    )


def _weights(ring, k, names="xyzt"):
    return MonomialAssignment.build(ring, [1] * k, [{names[i]: 1} for i in range(k)])


def _z8_w():
    s = from_group(cyclic(2), Z8)
    return monomial_sum(s, MonomialAssignment.build(Z8, [zeta(Z8, 1), 1], [{"u": 1}, {"v": 2}]))


def _f7_w():
    return monomial_sum(IdempotentSet(F7_SET_A), _weights(F7, 3))


def _rational_rotation():
    """A rational orthogonal 3x3 matrix: the rows of Q_BASIS."""
    return PolyMatrix(QQ, Q_BASIS)


def _haar_z8():
    return PolyMatrix(Z8, [[1, 1], [1, -1]]).scale(sqrt2(Z8).inverse())


def _set_cases():
    """(label, set, rule) of every set rule on good inputs."""
    yield "orthonormal-q", from_orthonormal_basis(QQ, Q_BASIS), "orthonormal-basis"
    yield "orthonormal-q-grouped", from_orthonormal_basis(QQ, Q_BASIS, [[1], [0, 2]]), "orthonormal-basis"
    yield "orthonormal-z8", from_orthonormal_basis(Z8, _z8_basis()), "orthonormal-basis"
    yield "orthonormal-f7", from_orthonormal_basis(F7, F7_BASIS), "orthonormal-basis"
    laurent_rows = [list(row) for row in _laurent_u().entries]
    yield "orthonormal-q-laurent", from_orthonormal_basis(QQ, laurent_rows), "orthonormal-basis"
    yield "orthogonal-f5", from_orthogonal_basis_finite(F5, [[2, 1, 2], [1, 2, 3], [2, 3, 4]]), "orthogonal-basis"
    yield "orthogonal-f7", from_orthogonal_basis_finite(F7, [[1, 2, 1], [1, 6, 1], [1, 0, 6]]), "orthogonal-basis"
    yield "orthogonal-q", from_orthogonal_basis_finite(QQ, [[1, 1, 0], [1, -1, 1], [1, -1, -2]]), "orthogonal-basis"
    yield "rows-q-laurent", from_matrix_rows(_laurent_u()), "paraunitary-rows"
    yield "rows-z8-laurent", from_matrix_rows(_z8_w()), "paraunitary-rows"
    yield "rows-f7-laurent", from_matrix_rows(_f7_w()), "paraunitary-rows"
    yield "diagonal-f3", diagonal_set(F3, 3), "diagonal"
    yield "diagonal-z8", diagonal_set(Z8, 2), "diagonal"
    yield "group-s3-q", from_group(symmetric_3(), QQ), "group-ring"
    yield "group-d8-q", from_group(dihedral(4), QQ), "group-ring"
    yield "group-c4-z4", from_group(cyclic(4), Z4), "group-ring"
    yield "group-c2xc2-f7", from_group(elementary_abelian_2(2), F7), "group-ring"
    yield "group-s3-f7", from_group(symmetric_3(), F7), "group-ring"
    yield "merge-q", merge(from_orthonormal_basis(QQ, Q_BASIS), [[0, 2], [1]]), "merge"
    yield "merge-c6-z6", merge(from_group(cyclic(6), cyclotomic(6)), [[0, 3], [1, 2, 5], [4]]), "merge"
    yield "merge-f7-laurent", merge(from_matrix_rows(_f7_w()), [[0, 1], [2]]), "merge"
    yield "realify-c4-z4", realify(from_group(cyclic(4), Z4)), "realify"
    yield "tensor-f5", tensor_sets(IdempotentSet(F5_SET), diagonal_set(F5, 2)), "tensor"
    yield "tensor-q-laurent", tensor_sets(from_matrix_rows(_laurent_u()), from_group(cyclic(2), QQ)), "tensor"
    yield "conjugate-z8", conjugate_set(diagonal_set(Z8, 2), _haar_z8()), "conjugate"
    yield "conjugate-q", conjugate_set(from_orthonormal_basis(QQ, Q_BASIS, [[0], [1, 2]]), _rational_rotation()), "conjugate"
    yield "conjugate-f7-laurent", conjugate_set(diagonal_set(F7, 3), _f7_w()), "conjugate"


def _matrix_cases():
    """(label, matrix, rule) of every matrix rule on good inputs."""
    yield "monomial-sum-q", monomial_sum(from_orthonormal_basis(QQ, Q_BASIS), _weights(QQ, 3)), "monomial-sum"
    yield "monomial-sum-z8", _z8_w(), "monomial-sum"
    yield "monomial-sum-f7", _f7_w(), "monomial-sum"
    yield "monomial-sum-laurent-set", monomial_sum(from_matrix_rows(_laurent_u()), _weights(QQ, 2, "zt")), "monomial-sum"
    c3 = latin_square_from_group(cyclic(3))
    plan = ArrangementPlan.build(F7, c3, [["x", "y", "z"], ["y", "z", "x"], ["t", "x", "y"]])
    yield "block-f7", block_arrangement(IdempotentSet(F7_SET_A), plan), "block-arrangement"
    z4_cells = [[(zeta(Z4, 1), {"x": 1}), "y"], [(-1, {"z": 2}), "t"]]
    plan = ArrangementPlan.build(Z4, latin_square_from_group(cyclic(2)), z4_cells)
    yield "block-z4", block_arrangement(from_group(cyclic(2), Z4), plan), "block-arrangement"
    yield "spectral-q", spectral_unitary(QQ, Q_BASIS, [1, -1, 1]), "spectral"
    yield "spectral-z8", spectral_unitary(Z8, _z8_basis(), [zeta(Z8, 3), zeta(Z8, 6)]), "spectral"
    p = monomial_sum(from_group(cyclic(2), QQ), _weights(QQ, 2, "xy"))
    yield "pseudo-rows-q", pseudo_from_rows(p, _weights(QQ, 2, "zt")), "monomial-sum"
    yield "compose-product", compose([_checked(c2_haar_w()), _c2_sum_z(), _c2_sum_z()], "product", True), "compose"
    yield "compose-tensor", compose([_f7_w(), _f7_w()], "tensor", True), "compose"
    for label, v in _unit_vectors():
        yield f"belevitch-{label}", belevitch_block(v), "belevitch"
    yield "tangle-z8", tangle(_z8_w(), _checked(_haar_z8()), TangleVariant(order="BA", transpose=True)), "block-gram"
    yield "tangle-f7", tangle(_f7_w(), _f7_w(), TangleVariant(base="horizontal", perm="rows")), "block-gram"


def _unit_vectors():
    """(label, column vector v with v* v = 1) over Q, Q(zeta_8), F_7 and Q(x, y)."""
    yield "q", PolyMatrix.column_vector(QQ, Q_BASIS[0])
    r8 = sqrt2(Z8).inverse()
    yield "z8", PolyMatrix.column_vector(Z8, [zeta(Z8, 1) * r8, r8])
    yield "f7", PolyMatrix.column_vector(F7, F7_BASIS[1])
    # a column of the paraunitary U: U* U = I since U is square
    yield "q-laurent", PolyMatrix.column_vector(QQ, [row[0] for row in _laurent_u().entries])


def _c2_sum_z():
    """A proven rational paraunitary matrix: the C2 monomial sum in z."""
    return monomial_sum(from_group(cyclic(2), QQ), MonomialAssignment.build(QQ, [1, -1], [0, 1]))


def _checked(m: PolyMatrix) -> PolyMatrix:
    """``m`` proven by the generic check, so compose sees a proven part."""
    assert is_paraunitary(m).ok
    return m


# --- each rule against the generic check ------------------------------------

def test_every_set_rule_agrees_with_verify_set():
    rules, rings = set(), set()
    for label, s, rule in _set_cases():
        assert s.proof == rule, label
        report = generic_set_report(s)
        assert report.ok and report.failures == [] and report.certificate == "rank", label
        report = verify_set(s)
        assert report.ok and report.certificate == f"recorded:{rule}", label
        rules.add(rule)
        rings.add((s.ring.kind, any(m.vars for m in s)))
    assert rules == {
        "orthonormal-basis", "orthogonal-basis", "paraunitary-rows", "diagonal",
        "group-ring", "merge", "realify", "tensor", "conjugate",
    }
    kinds = {kind for kind, _ in rings}
    assert kinds == {"rational", "cyclotomic", "prime_field"}
    assert {laurent for _, laurent in rings} == {True, False}


def _count_set_work(monkeypatch):
    """The name of each rank, dot and Gram kernel sum that a set check makes."""
    calls = []
    for owner, name in ((idempotents, "rank"), (idempotents, "dot"), (polymatrix, "dot"), (Gram, "sum")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    return calls


def test_a_proven_set_passes_as_its_recorded_proof_with_no_rank_dot_or_sum(monkeypatch):
    cases = [(label, s) for label, s, _ in _set_cases()]
    cases += [("checked-f7", IdempotentSet(F7_SET_A)), ("checked-laurent", IdempotentSet(from_matrix_rows(_f7_w()).members))]
    generic = {label: generic_set_report(s) for label, s in cases}
    work = _count_set_work(monkeypatch)
    for label, s in cases:
        assert s.proof is not None, label
        report = verify_set(s)
        assert work == [] and report.certificate == f"recorded:{s.proof}", label
        g = generic[label]
        assert (report.ok, report.failures, report.summary()) == (g.ok, g.failures, g.summary()), label
        assert report == g, label
    assert {s.proof for label, s in cases if label.startswith("checked-")} == {"rank"}


def test_a_failed_set_check_is_never_recorded(monkeypatch):
    broken = [(label, _broken(s)) for label, s, _ in _set_cases()]
    work = _count_set_work(monkeypatch)
    for label, b in broken:
        work.clear()
        first = verify_set(b)
        made = len(work)
        assert not first.ok and first.certificate == "rank" and b.proof is None and made > 0, label
        # the second call computes again, as much as the first
        second = verify_set(b)
        assert len(work) == 2 * made and not second.ok and b.proof is None, label
        assert second.failures == first.failures and second.certificate == "rank", label


def test_every_matrix_rule_agrees_with_the_full_check():
    rules = set()
    for label, w, rule in _matrix_cases():
        assert w.proof == rule, label
        assert generic_matrix_report(w).ok, label
        report = is_paraunitary(w)
        assert report.ok and report.certificate == f"recorded:{rule}", label
        rules.add(rule)
    assert rules == {"monomial-sum", "block-arrangement", "spectral", "compose", "belevitch", "block-gram"}


def test_belevitch_of_a_vector_that_is_not_a_unit_is_refused():
    # v* v = 1 is the rule's premise; any other v is an input error, and
    # 1 - v v* + z v v* is then not paraunitary unless v = 0
    for v in [
        PolyMatrix.column_vector(QQ, [1, 1]),
        PolyMatrix.column_vector(QQ, [0, 0]),
        PolyMatrix.column_vector(F7, [1, 1]),
        PolyMatrix.column_vector(Z8, [zeta(Z8, 1), 0]).scale(2),
    ]:
        norm = mul(v.adjoint(), v).entries[0][0]
        with pytest.raises(NotUnitVector, match=f"^v\\* v = {re.escape(str(norm))}$"):
            belevitch_block(v)
        p = mul(v, v.adjoint())
        h = (PolyMatrix.identity(v.ring, v.rows) - p) + p.scale(LaurentPoly.variable("z", v.ring))
        assert is_paraunitary(h).ok == norm.is_zero()


def test_compose_of_one_proven_part_keeps_its_proof():
    w = _f7_w()
    assert compose([w], "product", True) is w and w.proof == "monomial-sum"


def test_from_group_proves_in_the_group_ring_without_verify_set(monkeypatch):
    def refuse(s):
        raise AssertionError("verify_set ran on a group set")

    monkeypatch.setattr(idempotents, "verify_set", refuse)
    products = []
    original = idempotents.mul
    monkeypatch.setattr(idempotents, "mul", lambda a, b: products.append(1) or original(a, b))
    for table, ring in ((symmetric_3(), QQ), (dihedral(4), QQ), (symmetric_3(), F7), (cyclic(4), Z4)):
        s = from_group(table, ring)
        assert s.proof == "group-ring" and products == []


def test_group_ring_orthogonality_over_fp_comes_from_the_products():
    # over F_3, 4 e0 + e1 = e0 + e1 = 1 with nonzero symmetric idempotents,
    # but e0 e0 = e0 != 0: only the pairwise products in FG find it
    e0, e1 = group_ring_idempotents(cyclic(2), F3)
    assert idempotents._group_ring_clauses([e0, e1])
    assert not idempotents._group_ring_clauses([e0, e0, e0, e0, e1])
    # and each other clause is checked
    one = GroupRingElement(cyclic(2), F3, [1, 0])
    zero = GroupRingElement(cyclic(2), F3, [0, 0])
    assert not idempotents._group_ring_clauses([e0, e1, zero])
    assert not idempotents._group_ring_clauses([e0])
    assert not idempotents._group_ring_clauses([one + one, one - one - one])
    # symmetric, nonzero and summing to 1 over Q, but not idempotent
    a = GroupRingElement(cyclic(2), QQ, [Fraction(1, 2), Fraction(3, 2)])
    b = GroupRingElement(cyclic(2), QQ, [Fraction(1, 2), Fraction(-3, 2)])
    assert a.star() == a and b.star() == b and not idempotents._group_ring_clauses([a, b])


# --- broken premises --------------------------------------------------------

def _good_sets():
    yield from_orthonormal_basis(QQ, Q_BASIS)
    yield from_group(cyclic(4), Z4)
    yield IdempotentSet(F7_SET_A)
    yield from_matrix_rows(_f7_w())


def _derivations(t: IdempotentSet):
    """(label, derived object) of every constructor that takes the set ``t``."""
    k, ring = len(t), t.ring
    yield "merge", lambda: merge(t, [list(range(k))])
    yield "tensor-left", lambda: tensor_sets(t, diagonal_set(ring, 1))
    yield "tensor-right", lambda: tensor_sets(diagonal_set(ring, 1), t)
    yield "conjugate", lambda: conjugate_set(t, PolyMatrix.identity(ring, t.n))
    yield "monomial-sum", lambda: monomial_sum(t, _weights(ring, k, "abcd"))
    yield "inverse", lambda: idempotent_inverse(list(range(1, k + 1)), t)
    if k == 2:
        plan = ArrangementPlan.build(ring, latin_square_from_group(cyclic(2)), [["x", "y"], ["z", "t"]])
        yield "block-arrangement", lambda: block_arrangement(t, plan)
    if ring == Z4:
        yield "realify", lambda: realify(t)


def _count_set_checks(monkeypatch):
    """The member tuple of each set check that computes: each sums its
    members first, and a set that carries a proof is not checked."""
    calls = []
    original = idempotents._sums_to_identity
    monkeypatch.setattr(idempotents, "_sums_to_identity", lambda members: calls.append(members) or original(members))
    return calls


def test_an_unchecked_set_is_proven_once_as_a_premise_and_its_derived_objects_get_the_rule(monkeypatch):
    calls = _count_set_checks(monkeypatch)
    sets = [*_good_sets(), IdempotentSet(from_group(cyclic(2), QQ).members)]
    for s in sets:
        for label, _ in _derivations(s):
            t = IdempotentSet(s.members, s.labels, check=False)
            assert t.proof is None
            derive = dict(_derivations(t))[label]
            calls.clear()
            first = derive()
            # the first derivation proves t and records the certificate on it
            assert calls == [t.members] and calls[0] is t.members and t.proof == "rank"
            second = derive()
            assert len(calls) == 1, label
            for out in (first, second):
                if isinstance(out, IdempotentSet):
                    assert out.proof == label.split("-")[0] and generic_set_report(out).ok, label
                elif label == "inverse":
                    combo = combination(list(range(1, len(t) + 1)), t.members)
                    assert out.proof is None and mul(combo, out) == PolyMatrix.identity(t.ring, t.n)
                else:
                    assert out.proof == label and generic_matrix_report(out).ok, label


def _broken(s: IdempotentSet) -> IdempotentSet:
    """``s`` with 1 added to entry (0, 0) of its first member, unchecked."""
    first = s.members[0]
    grid = [list(row) for row in first.entries]
    grid[0][0] = grid[0][0] + LaurentPoly.constant(1, s.ring)
    return IdempotentSet([PolyMatrix(s.ring, grid), *s.members[1:]], s.labels, check=False)


def _set_error(members):
    return verify_set(IdempotentSet(members, check=False)).summary()


def test_derived_sets_of_a_broken_set_raise_the_set_check_of_the_input():
    for s in _good_sets():
        b = _broken(s)
        with pytest.raises(NotCompleteSet) as parent:
            IdempotentSet(b.members, b.labels)
        assert str(parent.value) == _set_error(b.members)
        first, *middle, last = b.members
        rest = middle[0]
        for e in middle[1:]:
            rest = rest + e
        d = diagonal_set(b.ring, 2)
        p = permute_rows(PolyMatrix.identity(b.ring, b.n), [*range(1, b.n), 0])
        cases = [
            (lambda: merge(b, [[0, len(b) - 1], list(range(1, len(b) - 1))]), [first + last, rest]),
            (lambda: tensor_sets(b, d), [tensor(e, f) for e in b.members for f in d.members]),
            (lambda: tensor_sets(d, b), [tensor(f, e) for f in d.members for e in b.members]),
            (lambda: conjugate_set(b, p), [mul(mul(p.adjoint(), e), p) for e in b.members]),
        ]
        for derive, members in cases:
            with pytest.raises(NotCompleteSet) as err:
                derive()
            assert str(err.value) == _set_error(b.members)
            # the members the rule would have built are not a set either
            assert not verify_set(IdempotentSet(members, check=False)).ok
        assert b.proof is None
    # realify: e(chi_0) of C4 is self-conjugate, and stays so when perturbed
    b = _broken(from_group(cyclic(4), Z4))
    m = b.members
    assert m[1].map_entries(LaurentPoly.conj) == m[3]
    with pytest.raises(NotCompleteSet) as err:
        realify(b)
    assert str(err.value) == _set_error(m)
    assert not verify_set(IdempotentSet([m[0], m[1] + m[3], m[2]], check=False)).ok


def test_matrices_from_a_broken_set_raise_the_set_check_of_the_input():
    for s in _good_sets():
        b = _broken(s)
        k = len(b)
        assignment = _weights(b.ring, k, "abcd")
        with pytest.raises(NotCompleteSet) as err:
            monomial_sum(b, assignment)
        assert str(err.value) == _set_error(b.members)
        # W = sum a_i E_i over the broken set is not paraunitary
        assert not is_paraunitary(combination(assignment.monomials, b.members)).ok
        with pytest.raises(NotCompleteSet) as err:
            idempotent_inverse(list(range(1, k + 1)), b)
        assert str(err.value) == _set_error(b.members)
    b = _broken(from_group(cyclic(2), QQ))
    plan = ArrangementPlan.build(QQ, latin_square_from_group(cyclic(2)), [["x", "y"], ["z", "t"]])
    with pytest.raises(NotCompleteSet) as err:
        block_arrangement(b, plan)
    assert str(err.value) == _set_error(b.members)
    blocks = [[b.members[plan.grid[i][j]].scale(plan.cells[i][j]) for j in range(2)] for i in range(2)]
    assert not is_paraunitary(assemble_blocks(blocks)).ok


def _weight_candidates(ring):
    """(weight, whether it is a unit monomial) over ``ring``."""
    z = LaurentPoly.variable("z", ring)
    two = LaurentPoly.constant(2, ring)
    unit_two = ring.kind == "prime_field" and ring.p == 3  # 2 = -1 over F_3
    yield z * 2, unit_two
    yield z + 1, False
    yield two, unit_two
    yield LaurentPoly.zero(ring), False
    yield z, True
    yield -z * z, True
    if ring.kind == "cyclotomic":
        yield z * zeta(ring, 1), True
        yield z * (1 + zeta(ring, 1)), False


def test_weights_that_are_not_unit_monomials_are_refused_and_give_no_paraunitary_sum():
    # the converse behind MonomialAssignment: over a proven set, W = sum a_i E_i
    # is paraunitary exactly when every a_i is a unit monomial
    for label, s, _ in _set_cases():
        k = len(s)
        rest = [LaurentPoly.variable("y", s.ring)] * (k - 1)
        for weight, unit in _weight_candidates(s.ring):
            weights = (weight, *rest)
            w = combination(weights, s.members)
            assert is_paraunitary(w).ok == unit, (label, weight)
            if unit:
                assert monomial_sum(s, MonomialAssignment(weights)).proof == "monomial-sum"
            else:
                with pytest.raises(NotUnitModulus, match=f"^weight {re.escape(str(weight))} is not a unit monomial$"):
                    MonomialAssignment(weights)
    p = monomial_sum(from_group(cyclic(2), QQ), _weights(QQ, 2, "xy"))
    t = LaurentPoly.variable("t", QQ)
    with pytest.raises(NotUnitModulus, match="^weight 2\\*t is not a unit monomial$"):
        pseudo_from_rows(p, MonomialAssignment((t * 2, t)))
    assert is_pseudo_paraunitary(combination((t * 2, t), from_matrix_rows(p).members)) is None
    # a block arrangement's cells: the plan refuses them on construction
    s = from_group(cyclic(2), QQ)
    grid = latin_square_from_group(cyclic(2))
    x, y = LaurentPoly.variable("x", QQ), LaurentPoly.variable("y", QQ)
    for bad in (x * 2, x + 1, LaurentPoly.constant(2, QQ)):
        with pytest.raises(NotUnitModulus, match="^cell .* is not a unit monomial$"):
            ArrangementPlan(grid, ((bad, y), (y, x)))
        blocks = [[s.members[0].scale(bad), s.members[1].scale(y)], [s.members[1].scale(y), s.members[0].scale(x)]]
        assert not is_paraunitary(assemble_blocks(blocks)).ok
    with pytest.raises(NegativeExponent):
        ArrangementPlan(grid, ((x * x.star() * x.star(), y), (y, x)))


# --- the output checks the premises replace, as oracles ---------------------

def _proven_sets():
    """(label, proven set) from every catalog set and every set rule case."""
    for entry_id in catalog_ids():
        for name, obj in expected_outputs(entry_id).items():
            if isinstance(obj, dict) and obj.get("type") == "idempotent_set":
                yield f"{entry_id}:{name}", idemset_from_json(obj)
    for label, s, _ in _set_cases():
        yield label, s


def test_factor_rank1_gives_v_v_star_p_and_v_star_v_one_on_every_rank1_projector():
    factored = {}
    for label, s in _proven_sets():
        for k, e in enumerate(s.members):
            if not e.is_scalar or rank(e) != 1:
                continue
            try:
                v = factor_rank1(e)
            except NoSquareRoot:
                continue
            assert mul(v, v.adjoint()) == e, (label, k)
            assert mul(v.adjoint(), v) == PolyMatrix.identity(e.ring, 1), (label, k)
            factored.setdefault(e.ring.kind, 0)
            factored[e.ring.kind] += 1
    assert set(factored) == {"rational", "cyclotomic", "prime_field"}
    assert min(factored.values()) >= 3


def test_idempotent_inverse_is_the_inverse_on_every_proven_set():
    for label, s in _proven_sets():
        n, k = s.n, len(s)
        p = s.ring.p if s.ring.kind == "prime_field" else None
        coeffs = [(i % (p - 1)) + 1 if p else i + 2 for i in range(k)]
        combo = combination(coeffs, s.members)
        inverse = idempotent_inverse(coeffs, s)
        eye = PolyMatrix.identity(s.ring, n)
        assert mul(combo, inverse) == eye and mul(inverse, combo) == eye, label
        assert idempotent_inverse(coeffs, list(s.members)) == inverse


def test_fewer_vectors_than_coordinates_get_verify_set():
    two = Q_BASIS[:2]
    with pytest.raises(NotCompleteSet) as err:
        from_orthonormal_basis(QQ, two)
    assert str(err.value) == "idempotent-set: FAIL\n  members do not sum to the identity"
    with pytest.raises(NotCompleteSet) as err:
        from_orthogonal_basis_finite(F5, [[2, 1, 2], [1, 2, 3]])
    assert str(err.value) == "idempotent-set: FAIL\n  members do not sum to the identity"
    # U U* is the sum of two rank-1 projectors, rank 2 < 3: an input error
    with pytest.raises(DimensionMismatch, match="^U U\\* = I needs n orthonormal vectors in n coordinates, got 2$"):
        spectral_unitary(QQ, two, [1, 1])


def test_an_orthogonal_basis_with_entries_the_involution_moves_gets_verify_set():
    # over Q(zeta_4), v1 = (1, 2i) and v2 = (-2i, 1) are orthogonal with
    # v v^T = -3, but v^T v is not symmetric under complex conjugation
    i = zeta(Z4, 1)
    with pytest.raises(NotCompleteSet) as err:
        from_orthogonal_basis_finite(Z4, [[1, 2 * i], [-2 * i, 1]])
    assert "member 1 is not symmetric" in str(err.value)


def test_a_non_paraunitary_matrix_carries_no_proof():
    s = diagonal_set(QQ, 2)
    bad = PolyMatrix(QQ, [[1, 1], [0, 1]])
    with pytest.raises(NotParaunitary) as err:
        conjugate_set(s, bad)
    assert str(err.value) == is_paraunitary(bad).summary()
    assert bad.proof is None
    with pytest.raises(NotParaunitary) as err:
        compose([c2_haar_w(), bad], "product", True)
    assert str(err.value) == is_paraunitary(mul(c2_haar_w(), bad)).summary()
    # unproven parts that are paraunitary: the product gets the full check
    w = compose([c2_haar_w(), c2_haar_w()], "product", True)
    assert w.proof == "hermitian-half"
    t = compose([c2_haar_w(), _checked(c2_haar_w())], "tensor", True)
    assert t.proof == "hermitian-half"


@pytest.mark.parametrize(
    "table, ring", [(symmetric_3(), QQ), (cyclic(4), Z4), (elementary_abelian_2(2), F7), (symmetric_3(), F7)]
)
def test_a_wrong_character_table_names_the_failing_clauses(table, ring):
    chars = character_table(table)
    for k, ch in enumerate(chars.characters):
        bad = list(chars.characters)
        bad[k] = replace(ch, dim=2 * ch.dim)
        bad_table = CharacterTable(table, tuple(bad))
        members = [embed_group_ring(e) for e in group_ring_idempotents(table, ring, bad_table)]
        with pytest.raises(InternalCheckError) as err:
            from_group(table, ring, bad_table)
        assert str(err.value) == f"group-ring idempotents of {table.name}: {_set_error(members)}"


# --- the scaled blocks tangle stores on its inputs ---------------------------

def _tangle_pairs():
    """(label, a, b) of a fresh Q(zeta_8) pair and a fresh F_7 pair, each
    matrix proven by its rule and with no tangle blocks stored yet."""
    z8_b = monomial_sum(from_group(cyclic(2), Z8), MonomialAssignment.build(Z8, [1, zeta(Z8, 3)], [{"x": 1}, {"y": 1}]))
    yield "z8", _z8_w(), z8_b
    f7_b = monomial_sum(IdempotentSet(F7_SET_B), _weights(F7, 3, "trs"))
    yield "f7", _f7_w(), f7_b


def _oriented(a, b):
    """The pair in both orders, and ``a`` with itself."""
    return [(a, b), (b, a), (a, a)]


def _fresh_tangle(a: PolyMatrix, b: PolyMatrix, variant: TangleVariant) -> PolyMatrix:
    """The tangle of ``variant`` glued from blocks scaled afresh by 1/sqrt2."""
    f = sqrt2(a.ring).inverse()
    x, y = (a.scale(f), b.scale(f)) if variant.order == "AB" else (b.scale(f), a.scale(f))
    blocks = [[x, y], [x, -y]] if variant.base == "vertical" else [[x, x], [y, -y]]
    if variant.perm == "rows":
        blocks = blocks[::-1]
    elif variant.perm == "cols":
        blocks = [row[::-1] for row in blocks]
    w = assemble_blocks(blocks)
    return w.transpose() if variant.transpose else w


def _perturbed(w: PolyMatrix) -> PolyMatrix:
    """w + e_00: column 0 of a tangle holds a nonzero entry below row 0, so
    the product gains it off the diagonal and the copy is not paraunitary."""
    return w + PolyMatrix(w.ring, [[int(i == j == 0) for j in range(w.cols)] for i in range(w.rows)])


def test_every_tangle_variant_from_the_stored_blocks_is_the_tangle_of_freshly_scaled_blocks():
    for label, a, b in _tangle_pairs():
        for x, y in _oriented(a, b):
            union = tuple(sorted(set(x.vars) | set(y.vars)))
            for call in ("first", "later"):
                for variant in all_tangle_variants():
                    w = tangle(x, y, variant)
                    case = f"{label} {call} {variant}"
                    assert w == _fresh_tangle(x, y, variant) and w.vars == union, case
                    assert w.proof == "block-gram" and generic_matrix_report(w).ok, case
                    assert not generic_matrix_report(_perturbed(w)).ok, case
                assert x._tangle_blocks[0] == y._tangle_blocks[0] == union, label


def test_a_tangle_with_a_partner_on_other_variables_carries_the_new_union():
    for label, a, b in _tangle_pairs():
        c = monomial_sum(
            from_group(cyclic(2), Z8) if label == "z8" else IdempotentSet(F7_SET_A),
            MonomialAssignment.build(a.ring, [1] * a.rows, [{f"c{i}": 1} for i in range(a.rows)]),
        )
        assert not set(c.vars) & (set(a.vars) | set(b.vars)), label
        for partner in (b, c, b):
            union = tuple(sorted(set(a.vars) | set(partner.vars)))
            for variant in all_tangle_variants():
                w = tangle(a, partner, variant)
                assert w.vars == union and w == _fresh_tangle(a, partner, variant), label
                assert generic_matrix_report(w).ok, label
            assert a._tangle_blocks[0] == union, label


def test_a_block_that_is_not_paraunitary_is_refused_on_every_call_and_stores_nothing():
    for label, a, b in _tangle_pairs():
        bad = _perturbed(a)
        assert not is_paraunitary(bad).ok
        for x, y, name in ((bad, b, "a"), (b, bad, "b"), (bad, bad, "a")):
            for variant in all_tangle_variants()[:6]:
                with pytest.raises(NotParaunitary, match=f"^tangle block {name} is not paraunitary:"):
                    tangle(x, y, variant)
        assert bad._tangle_blocks is None and b._tangle_blocks is None, label
        assert bad.proof is None, label


def test_the_stored_blocks_carry_no_proof():
    for label, a, b in _tangle_pairs():
        for x, y in _oriented(a, b):
            for variant in all_tangle_variants():
                tangle(x, y, variant)
        for m in (a, b):
            union, scaled, negated = m._tangle_blocks
            assert scaled.proof is None and negated.proof is None, label
            f = sqrt2(m.ring).inverse()
            assert scaled == m.scale(f) and negated == -m.scale(f), label


def test_the_24_variants_of_a_pair_scale_each_block_once_and_negate_it_at_most_once(monkeypatch):
    scalings, negations = [], []
    original_times, original_neg = polymatrix.times_monomial, PolyMatrix.__neg__
    monkeypatch.setattr(polymatrix, "times_monomial", lambda *a: scalings.append(1) or original_times(*a))
    monkeypatch.setattr(PolyMatrix, "__neg__", lambda m: negations.append(1) or original_neg(m))
    for (label, a, b), (_, c, _) in zip(_tangle_pairs(), _tangle_pairs()):
        for x, y, passes in ((a, b, 2), (c, c, 1)):
            scalings.clear(), negations.clear()
            for variant in all_tangle_variants():
                tangle(x, y, variant)
            assert len(scalings) == passes and len(negations) <= passes, label


def test_a_proven_tangle_block_is_not_checked_again(monkeypatch):
    """The first variant of an unproven pair checks each block once and
    records its proof; every later variant, and every variant of a pair
    proven by its rule, builds no report and sums no Gram entry."""
    pairs, reports, entries = list(_tangle_pairs()), [], []
    report_init, gram_sum = VerificationReport.__init__, Gram.sum
    monkeypatch.setattr(
        VerificationReport, "__init__", lambda self, *a, **k: reports.append(1) or report_init(self, *a, **k)
    )
    monkeypatch.setattr(Gram, "sum", lambda self, i, j: entries.append(1) or gram_sum(self, i, j))
    for label, a, b in pairs:
        x, y = PolyMatrix(a.ring, a.entries), PolyMatrix(b.ring, b.entries)
        assert (x.proof, y.proof) == (None, None), label
        tangle(x, y)
        assert len(reports) == 2 and entries and (x.proof, y.proof) == ("hermitian-half",) * 2, label
        reports.clear(), entries.clear()
        for variant in all_tangle_variants():
            for p, q in ((x, y), (a, b)):
                assert tangle(p, q, variant).proof == "block-gram", label
        assert not reports and not entries, label


# --- the glue against an index formula that shares no code with it -----------

def _glued_by_index(blocks) -> list[list[LaurentPoly]]:
    """The entry grid of a full grid of equal-size blocks, cell by cell:
    W[i][j] = blocks[i // br][j // bc][i % br][j % bc]."""
    br, bc = blocks[0][0].rows, blocks[0][0].cols
    return [
        [blocks[i // br][j // bc].entries[i % br][j % bc] for j in range(len(blocks[0]) * bc)]
        for i in range(len(blocks) * br)
    ]


def _tangle_by_index(a: PolyMatrix, b: PolyMatrix, variant: TangleVariant) -> list[list[LaurentPoly]]:
    """The entry grid of the tangle of ``variant``, from blocks scaled afresh
    by 1/sqrt2, glued by :func:`_glued_by_index` and never by the package."""
    f = sqrt2(a.ring).inverse()
    x, y = (a.scale(f), b.scale(f)) if variant.order == "AB" else (b.scale(f), a.scale(f))
    blocks = [[x, y], [x, -y]] if variant.base == "vertical" else [[x, x], [y, -y]]
    if variant.perm == "rows":
        blocks = blocks[::-1]
    elif variant.perm == "cols":
        blocks = [row[::-1] for row in blocks]
    grid = _glued_by_index(blocks)
    return [list(col) for col in zip(*grid)] if variant.transpose else grid


def _assert_glued(w: PolyMatrix, grid, vars, case):
    assert w.vars == vars and (w.rows, w.cols) == (len(grid), len(grid[0])), case
    assert all(len(row) == w.cols for row in w.entries), case
    for i, (got, expected) in enumerate(zip(w.entries, grid)):
        assert all(e.vars == vars for e in got), (case, i)
        assert list(got) == expected, (case, i)


def test_every_tangle_variant_is_the_index_formula_of_its_blocks():
    for label, a, b in _tangle_pairs():
        for x, y in _oriented(a, b):
            union = tuple(sorted(set(x.vars) | set(y.vars)))
            for variant in all_tangle_variants():
                _assert_glued(tangle(x, y, variant), _tangle_by_index(x, y, variant), union, f"{label} {variant}")


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (3, 3)], ids=["1x1", "1x3", "3x1", "3x3"])
def test_assemble_blocks_is_the_index_formula_of_blocks_on_other_variables(shape):
    # five 2x3 blocks, each on its own variables; a block repeats across a
    # 3x3 grid, and the glued matrix carries the union of what its blocks use
    bank = [
        PolyMatrix(QQ, [[poly_from_text(t.format(k=k), QQ) for t in row] for row in texts])
        for k, texts in enumerate([
            [["x{k}", "1", "0"], ["{k} + x{k}*y^-1", "(1/2)", "x{k}^2"]],
            [["u{k}", "0", "0"], ["0", "0", "u{k}^-1"]],
            [["1", "2", "3"], ["4", "5", "6"]],
            [["x{k} - w", "w^3", "-(1/3)"], ["0", "1", "w*x{k}"]],
            [["z", "z^-1", "0"], ["0", "0", "z"]],
        ])
    ]
    rows, cols = shape
    blocks = [[bank[(3 * r + c) % len(bank)] for c in range(cols)] for r in range(rows)]
    vars = tuple(sorted(set().union(*(blk.vars for row in blocks for blk in row))))
    _assert_glued(assemble_blocks(blocks), _glued_by_index(blocks), vars, shape)


def test_tangle_variants_after_the_first_glue_the_stored_entries_and_rekey_nothing(monkeypatch):
    calls = []

    def counting(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for label, a, b in _tangle_pairs():
        # the first variant of each order scales its blocks and negates one
        tangle(a, b, TangleVariant(order="AB"))
        tangle(a, b, TangleVariant(order="BA"))
        stored = {id(e) for m in (a, b) for blk in m._tangle_blocks[1:] for row in blk.entries for e in row}
        with monkeypatch.context() as patch:
            patch.setattr(LaurentPoly, "with_vars", counting("with_vars", LaurentPoly.with_vars))
            patch.setattr(PolyMatrix, "_with_vars", counting("_with_vars", PolyMatrix._with_vars))
            patch.setattr(polymatrix, "_map_distinct", counting("_map_distinct", polymatrix._map_distinct))
            for variant in all_tangle_variants():
                w = tangle(a, b, variant)
                assert all(id(e) in stored for row in w.entries for e in row), f"{label} {variant}"
        assert calls == [], label


# --- the whole catalog with every rule replaced by the generic check ----------

def test_every_catalog_entry_passes_when_each_rule_runs_the_generic_check(monkeypatch):
    fired = []

    def generic_set(cls, members, labels, rule):
        fired.append(rule)
        return cls(members, labels)

    def generic_matrix(w, rule):
        fired.append(rule)
        report = is_paraunitary(w)
        if not report.ok:
            raise InternalCheckError(f"{rule} failed its paraunitarity check:\n{report.summary()}")
        return w

    monkeypatch.setattr(IdempotentSet, "_proven", classmethod(generic_set))
    monkeypatch.setattr(constructors, "_record", generic_matrix)
    for entry in CATALOG:
        ok, diff = entry_matches(entry)
        assert ok, f"{entry.id}:\n{diff}"
    assert len(CATALOG) == 37
    assert set(fired) >= {
        "orthonormal-basis", "orthogonal-basis", "paraunitary-rows", "diagonal", "group-ring",
        "realify", "monomial-sum", "block-arrangement", "spectral", "compose", "belevitch",
        "block-gram",
    }
    # and each rule case above builds the same objects under the generic check
    for label, s, _ in _set_cases():
        assert s.proof in ("trace-rank", "rank"), label
    for label, w, _ in _matrix_cases():
        assert w.proof == "hermitian-half", label


# --- the certificate of a report --------------------------------------------

def test_reports_name_their_certificate():
    w = c2_haar_w()
    assert is_paraunitary(w).certificate == "hermitian-half"
    assert is_paraunitary(w).certificate == "recorded:hermitian-half"
    # row 1 has norm 2, which proves the failure; the rows of the second
    # have norm 1, so the Gram kernel finds entry (1,2) = 1
    assert is_paraunitary(PolyMatrix(QQ, [[1, 1], [0, 1]])).certificate == "row-norm"
    assert is_paraunitary(PolyMatrix(QQ, [[1, 0], [1, 0]])).certificate == "hermitian-half"
    assert is_paraunitary(_f7_w()).certificate == "recorded:monomial-sum"
    assert generic_set_report(from_group(symmetric_3(), QQ)).certificate == "rank"
    assert verify_set(from_group(symmetric_3(), QQ)).certificate == "recorded:group-ring"
    assert generic_set_report(IdempotentSet(F7_SET_A)).certificate == "rank"
    assert verify_set(IdempotentSet(F7_SET_A)).certificate == "recorded:rank"
    assert verify_set(_broken(IdempotentSet(F7_SET_A))).certificate == "rank"
    assert IdempotentSet(F7_SET_A).proof == "rank"
    assert IdempotentSet(from_group(symmetric_3(), QQ).members).proof == "rank"


def test_the_certificate_is_not_in_the_summary_json_or_equality():
    report = is_paraunitary(_f7_w())
    assert report.summary() == "paraunitary: PASS"
    assert object_to_json(report) == {"type": "report", "kind": "paraunitary", "ok": True, "failures": []}
    assert report == VerificationReport("paraunitary", True)
    s = verify_set(IdempotentSet(F7_SET_A))
    assert set(object_to_json(s)) == {"type", "kind", "ok", "failures"}


def test_the_certificate_is_not_on_stdout(tmp_path, capsys):
    f = tmp_path / "w.json"
    f.write_text(dumps(matrix_to_json(c2_haar_w())))
    assert main(["verify", str(f), "--mode", "paraunitary"]) == 0
    out = capsys.readouterr()
    assert out.out == "paraunitary: PASS\n" and out.err == ""
    pipeline = tmp_path / "p.json"
    pipeline.write_text(
        '{"ring": {"kind": "rational"}, "steps": ['
        '{"op": "group_set", "bind": "s", "family": "cyclic", "order": 2},'
        '{"op": "monomial_sum", "bind": "W", "set": "$s", "coeffs": ["1", "1"], "exponents": [0, 1]},'
        '{"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},'
        '{"op": "verify_idemset", "bind": "set_check", "set": "$s"}]}'
    )
    assert main(["build", str(pipeline)]) == 0
    out = capsys.readouterr()
    for word in ("certificate", "recorded", "hermitian-half", "trace-rank", "group-ring", "monomial-sum"):
        assert word not in out.out and word not in out.err


# --- one Gram product in hadamard.specialize ---------------------------------

def _hadamard_inputs():
    yield HADAMARD_4_REAL  # H H* = 4 I: not unitary, Hadamard once cleared
    yield HADAMARD_4_REAL.scale(Fraction(1, 2))  # unitary
    yield hadamard_4_complex()
    yield hadamard_4_complex().scale(ExactScalar.from_rational(Z4, Fraction(1, 2)))
    yield PolyMatrix(QQ, [[1, 2], [3, 4]])  # gram not constant
    yield PolyMatrix(QQ, [[1, 0], [0, 2]])  # constant first entry, not a multiple of I
    yield PolyMatrix(F7, [[2, 2], [2, 5]])  # unitary over F_7
    yield PolyMatrix(F7, [[1, 1], [1, 6]])  # H H* = 2 I over F_7


def _kernel_sums(monkeypatch) -> list:
    """A list that gains one item per sum of products the kernels form: each
    entry sum of the Gram kernel (``Gram.sum``, the one sum loop of its
    decision) and each ``dot`` call of ``polymatrix``."""
    calls = []
    total, dot = Gram.sum, polymatrix.dot
    monkeypatch.setattr(Gram, "sum", lambda self, i, j: calls.append(1) or total(self, i, j))
    monkeypatch.setattr(polymatrix, "dot", lambda *a: calls.append(1) or dot(*a))
    return calls


@pytest.mark.parametrize("h", list(_hadamard_inputs()), ids=lambda h: f"{h.ring}-{h.rows}")
def test_specialize_forms_one_gram_product(h, monkeypatch):
    n = h.rows
    product, identity = mul(h, h.adjoint()), PolyMatrix.identity(h.ring, n)
    differing = sum(product.entries[i][j] != identity.entries[i][j] for i in range(n) for j in range(i, n))
    calls = _kernel_sums(monkeypatch)
    report = hadamard_check(h)
    # each upper entry is summed once, and a failed check's report also
    # forms, by dot, each entry that differs
    assert len(calls) == n * (n + 1) // 2 + differing
    monkeypatch.undo()
    # the fields equal those of the two-product path: the check of H, then
    # the product H' H'* of the cleared matrix
    assert report.unitary.ok == (mul(h, h.adjoint()) == PolyMatrix.identity(h.ring, n))
    gram = mul(report.cleared, report.cleared.adjoint())
    c = gram.entries[0][0]
    expected = None
    if c.is_constant() and gram == PolyMatrix.identity(h.ring, n).scale(c.constant_value()):
        expected = c.constant_value()
    assert report.gram_constant == expected
    assert report.is_hadamard == (expected is not None and expected == ExactScalar.from_rational(h.ring, n))


def test_specialize_of_a_laurent_matrix_forms_one_gram_product(monkeypatch):
    calls = _kernel_sums(monkeypatch)
    report = specialize(block4_real_w(), {"x": 1, "y": -1, "z": 1, "t": -1})
    assert len(calls) == 10 and report.ok and report.is_hadamard and report.butson_q == 2


def test_monomial_clear_forms_one_gram_product(monkeypatch):
    # W' = x^-1 y^-2 W for the paraunitary 4x4 W: m = x y^2 clears it back to W
    w = block4_real_w()
    shifted = w.scale(poly_from_text("x^-1*y^-2", QQ))
    calls = _kernel_sums(monkeypatch)
    cleared = monomial_clear(shifted)
    assert len(calls) == 4 * 5 // 2
    monkeypatch.undo()
    assert cleared.matrix == w and cleared.clearing_monomial == poly_from_text("x*y^2", QQ)
    # the second check the rule replaces: the cleared matrix keeps W W* = p I
    assert is_pseudo_paraunitary(cleared.matrix) == is_pseudo_paraunitary(shifted)


def test_a_proven_matrix_passes_the_pseudo_check_with_no_kernel_sum(monkeypatch):
    for label, m, _ in _matrix_cases():
        calls = _kernel_sums(monkeypatch)
        assert m.proof is not None and is_pseudo_paraunitary(m) == 1 and not calls, label
        monkeypatch.undo()
        assert is_pseudo_paraunitary(PolyMatrix(m.ring, m.entries)) == 1, label


def test_cli_basis_short_of_the_dimension_is_refused_by_the_set_check(tmp_path, capsys):
    f = tmp_path / "v.json"
    f.write_text('{"vectors": [[1, 0, 0], [0, 1, 0]]}')
    assert main(["idem", "basis", "--vectors", str(f)]) == 1  # a failed set check, as through build
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: idempotent-set: FAIL\n  members do not sum to the identity\n"
