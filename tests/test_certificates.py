"""The fast exact certificates must agree with the generic full check.

``is_paraunitary`` decides M M* = I from the entries on and above the
diagonal (the ``hermitian-half`` certificate), and ``tangle`` proves its
result from f conj(f) = 1/2, XX* = I and YY* = I (the ``block-gram``
certificate).  Those tests compare them with ``mul(m, m.adjoint())``
against the identity, on good inputs and on broken ones: the verdicts must
agree, and a failure report must carry the full product's residual and
failure lines.

``verify_set`` proves a set from its sum, the symmetry of its members and
their ranks, on every ring (the ``rank`` certificate), and forms no product.
Its failure report decides each member's clauses from the upper triangle of
its square (the ``upper-half`` argument), a pair of symmetric idempotents
over Q or Q(zeta_N) by a trace (the ``trace-form``) and any other pair up to
its first nonzero entry.  Its tests compare it with the k^2 pairwise check
written out below: the verdicts and the failure lists must be equal.

``orthonormal_rows`` and ``from_orthogonal_basis_finite`` read the upper
triangle of one Gram product; their tests compare the first error raised
with that of the pairwise loop over every ordered pair of vectors.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from _fixtures import F3, F3_BLOCKS, F5, F5_SET, F7, F7_SET_A, F7_SET_B
from _random_objects import Z8, random_assignment, zeros
from paraunitary import constructors, idempotents
from paraunitary.catalog import catalog_ids, expected_outputs
from paraunitary.constructors import (
    MonomialAssignment,
    TangleVariant,
    all_tangle_variants,
    monomial_sum,
    tangle,
)
from paraunitary.errors import (
    ExactAlgebraError,
    InternalCheckError,
    IsotropicVector,
    NotCompleteSet,
    NotOrthogonal,
    NotOrthonormal,
    NotParaunitary,
)
from paraunitary.groups import (
    CharacterTable,
    character_table,
    cyclic,
    elementary_abelian_2,
    symmetric_3,
)
from paraunitary.idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    merge,
    orthonormal_rows,
    realify,
    tensor_sets,
    verify_set,
)
from paraunitary.laurent import Gram, LaurentPoly, poly_from_text
from paraunitary.polymatrix import (
    PolyMatrix,
    VerificationReport,
    _trace_of_product,
    assemble_blocks,
    is_paraunitary,
    is_pseudo_paraunitary,
    mul,
)
from paraunitary.scalars import QQ, ExactScalar, cyclotomic, sqrt2, zeta
from paraunitary.serialize import (
    dumps,
    idemset_from_json,
    matrix_from_json,
    matrix_to_json,
    object_to_json,
)


def _full_report(m: PolyMatrix) -> VerificationReport:
    """The generic check: the whole product M M* against the identity."""
    product = mul(m, m.adjoint())
    residual = product - PolyMatrix.identity(m.ring, m.rows)
    failures = [
        f"entry ({i + 1},{j + 1}): product is {product.entries[i][j]}"
        for i in range(m.rows)
        for j in range(m.cols)
        if not residual.entries[i][j].is_zero()
    ]
    ok = product == PolyMatrix.identity(m.ring, m.rows)
    assert ok == (not failures)
    return VerificationReport("paraunitary", ok, None if ok else residual, failures)


def _assert_agrees(m: PolyMatrix) -> bool:
    """The fast report equals the full one, down to the bytes the CLI and
    the report JSON print (the residual's text included)."""
    fast, full = is_paraunitary(m), _full_report(m)
    assert fast.ok == full.ok
    assert fast.failures == full.failures
    assert fast.summary() == full.summary()
    assert dumps(object_to_json(fast)) == dumps(object_to_json(full))
    if full.ok:
        assert fast.residual is None
    else:
        assert fast.residual == full.residual
        assert str(fast.residual) == str(full.residual)
        assert matrix_to_json(fast.residual) == matrix_to_json(full.residual)
    return full.ok


def _assembled(a: PolyMatrix, b: PolyMatrix, variant: TangleVariant) -> PolyMatrix:
    """A tangle assembled by hand, with no check at all."""
    x, y = (a, b) if variant.order == "AB" else (b, a)
    blocks = [[x, y], [x, -y]] if variant.base == "vertical" else [[x, x], [y, -y]]
    if variant.perm == "rows":
        blocks = blocks[::-1]
    elif variant.perm == "cols":
        blocks = [row[::-1] for row in blocks]
    w = assemble_blocks(blocks).scale(sqrt2(a.ring).inverse())
    return w.transpose() if variant.transpose else w


def _perturbed(m: PolyMatrix, i: int, j: int) -> PolyMatrix:
    grid = [list(row) for row in m.entries]
    grid[i][j] = grid[i][j] + LaurentPoly.constant(1, m.ring)
    return PolyMatrix(m.ring, grid)


def _z8_pair():
    rng = random.Random(5)
    s1 = from_group(cyclic(2), Z8)
    s2 = diagonal_set(Z8, 2)
    a = monomial_sum(s1, random_assignment(rng, s1, ("u", "v")))
    b = monomial_sum(s2, random_assignment(rng, s2, ("w",)))
    return a, b


def _f7_pair():
    a = monomial_sum(
        IdempotentSet(F7_SET_A),
        MonomialAssignment.build(F7, [1, 1, 1], [{"x": 1}, {"y": 1}, {"z": 1}]),
    )
    b = monomial_sum(
        IdempotentSet(F7_SET_B),
        MonomialAssignment.build(F7, [1, 1, 1], [{"t": 1}, {"r": 1}, {"s": 1}]),
    )
    return a, b


PAIRS = {"z8": _z8_pair, "f7": _f7_pair}


@pytest.mark.parametrize("field", sorted(PAIRS))
def test_block_gram_proves_all_variants(field):
    a, b = PAIRS[field]()
    # the rule is recorded on the W returned, after the transpose, and the
    # generic check on a proof-free copy agrees with it
    for variant in all_tangle_variants():
        w = tangle(a, b, variant)
        assert w.proof == "block-gram", variant
        assert w == _assembled(a, b, variant)
        copy = PolyMatrix(w.ring, w.entries)
        assert copy.proof is None and _assert_agrees(copy)


@pytest.mark.parametrize("field", sorted(PAIRS))
def test_hermitian_half_on_perturbed_tangles(field):
    a, b = PAIRS[field]()
    w = tangle(a, b, TangleVariant(order="BA", base="horizontal", perm="rows"))
    last = w.rows - 1
    # off the diagonal first, then on it, at both ends of the matrix
    for i, j in [(0, 1), (last, 0), (0, 0), (last, last)]:
        broken = _perturbed(w, i, j)
        assert not _assert_agrees(broken)


@pytest.mark.parametrize("field", sorted(PAIRS))
def test_cli_report_of_a_perturbed_tangle_is_that_of_the_full_product(field, tmp_path, capsys):
    from paraunitary.cli import main

    a, b = PAIRS[field]()
    w = tangle(a, b, TangleVariant(order="BA", base="vertical", perm="cols", transpose=True))
    last = w.rows - 1
    for i, j in [(0, last), (last, 1), (0, 0), (last, last)]:
        broken = _perturbed(w, i, j)
        full = _full_report(broken)
        f = tmp_path / "m.json"
        f.write_text(dumps(matrix_to_json(broken)))
        assert main(["verify", str(f), "--mode", "paraunitary"]) == 1
        expected = f"{full.summary()}\nresidual (M M* - I):\n{full.residual}\n"
        assert capsys.readouterr().out == expected


def test_hermitian_half_finds_rows_of_unit_norm_that_are_not_orthogonal():
    # every diagonal entry of M M* is 1; only the entries off it fail
    a, b = _z8_pair()
    w = assemble_blocks([[a, b], [a, b]]).scale(sqrt2(Z8).inverse())
    assert not _assert_agrees(w)
    assert not _assert_agrees(PolyMatrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 1, 0]]))


def test_hermitian_half_finds_a_failure_in_the_last_entry():
    eye = PolyMatrix.identity(QQ, 4)
    for k in range(4):
        m = PolyMatrix.diagonal(QQ, [2 if i == k else 1 for i in range(4)])
        assert not _assert_agrees(m)
    assert _assert_agrees(eye)


@pytest.mark.parametrize("field", sorted(PAIRS))
@pytest.mark.parametrize("variant", [TangleVariant(), TangleVariant("BA", "horizontal", "cols", True)])
def test_tangle_of_a_non_paraunitary_block_raises_as_before(field, variant, monkeypatch):
    # W W* = I holds exactly when both blocks are paraunitary, so a bad block
    # is an input fault: NotParaunitary names the argument and carries the
    # block's own report, which is that of its full product; W is never checked
    a, b = PAIRS[field]()
    checked = []
    original = constructors.is_paraunitary
    monkeypatch.setattr(constructors, "is_paraunitary", lambda m: checked.append(m.rows) or original(m))
    for bad in (b.scale(2), _perturbed(b, 0, 1)):
        assert not _full_report(_assembled(a, bad, variant)).ok
        report = _full_report(bad)
        assert not report.ok
        for args, name in (((a, bad), "b"), ((bad, a), "a")):
            with pytest.raises(NotParaunitary) as err:
                tangle(*args, variant)
            assert str(err.value) == (
                f"tangle block {name} is not paraunitary:\n{report.summary()}"
            )
    assert checked and set(checked) == {a.rows}


def _catalog_matrices():
    for entry_id in catalog_ids():
        for name, obj in expected_outputs(entry_id).items():
            if not isinstance(obj, dict):
                continue
            kind = obj.get("type")
            if kind == "matrix":
                yield f"{entry_id}:{name}", matrix_from_json(obj)
            elif kind == "idempotent_set":
                for k, member in enumerate(obj["members"]):
                    yield f"{entry_id}:{name}[{k}]", matrix_from_json(member)
            elif kind == "hadamard_report":
                for part in ("scaled", "cleared"):
                    yield f"{entry_id}:{name}.{part}", matrix_from_json(obj[part])
            elif kind == "cleared_matrix":
                yield f"{entry_id}:{name}.matrix", matrix_from_json(obj["matrix"])


def test_hermitian_half_on_every_catalog_matrix():
    verdicts = {}
    for label, m in _catalog_matrices():
        if m.is_square:
            verdicts[label] = _assert_agrees(m)
    # both verdicts occur: paraunitary outputs and idempotent members
    assert sum(verdicts.values()) >= 10
    assert len(verdicts) - sum(verdicts.values()) >= 10


def test_hermitian_half_bounds_its_digits_by_the_norm_of_the_starred_rows():
    """Over Q(zeta_105) the row of zeta^-1 in the power basis has L1 norm 34
    (``_Layout.conj_norm``), so a starred entry's coefficients grow 34-fold:
    a digit width that left that factor out would carry between digits and
    read W W* = I as a failure.  Both matrices are paraunitary, and a copy
    with 1 added to an entry is not; the kernel must agree with the full
    product on all four.  Runs in about 0.01 s."""
    ring = cyclotomic(105)
    one = PolyMatrix(ring, [[poly_from_text("zeta*x", ring)]])
    assert one.entries[0][0]._lay.conj_norm == 34
    diagonal = PolyMatrix.diagonal(ring, [poly_from_text(f"zeta^{j}*x{j}", ring) for j in range(1, 5)])
    for m in (one, diagonal):
        assert _assert_agrees(m)
        assert not _assert_agrees(_perturbed(m, 0, 0))


def test_a_check_that_fails_early_stars_only_the_rows_it_reads(monkeypatch):
    # the frozen 32x32 W of tangle-32x32 with entry (1,1) changed from c*x0 to
    # c*x0 + 1: entry (1,1) of W W* decides it, and reads row 1 of W starred
    w = _perturbed(matrix_from_json(expected_outputs("tangle-32x32")["W"]), 0, 0)
    stars = []
    star = LaurentPoly.star
    monkeypatch.setattr(LaurentPoly, "star", lambda f: stars.append(f) or star(f))
    report = is_paraunitary(w)
    assert not report.ok and len(stars) <= 64
    assert is_pseudo_paraunitary(w) is None and len(stars) <= 128
    # the deferred report stars each row still missing once, and the entries
    # below the diagonal, and equals the eager one
    before = len(stars)
    assert report.residual is not None
    assert len(stars) - before <= 31 * 32 + 32 * 31 // 2
    full = _full_report(w)
    assert report.residual == full.residual
    assert report.failures == full.failures
    assert report.residual == mul(w, w.adjoint()) - PolyMatrix.identity(w.ring, w.rows)


def test_a_report_stars_no_row_above_the_first_failing_one(monkeypatch):
    # the frozen 32x32 W of tangle-32x32 with its last row doubled: rows
    # stay orthogonal, and only entry (32,32) of W W* is 4, not 1, so the
    # report forms row 32 of W W* alone and needs no star of rows 1 to 31
    w = matrix_from_json(expected_outputs("tangle-32x32")["W"])
    last = w.rows - 1
    two = LaurentPoly.constant(2, w.ring)
    w = PolyMatrix(w.ring, [*w.entries[:last], [two * e for e in w.entries[last]]])
    above = {id(e) for row in w.entries[:last] for e in row} - {id(e) for e in w.entries[last]}
    assert len(above) >= 32
    report = is_paraunitary(w)
    assert not report.ok
    stars = []
    star = LaurentPoly.star
    monkeypatch.setattr(LaurentPoly, "star", lambda f: stars.append(f) or star(f))
    assert report.failures == ["entry (32,32): product is 4"]
    assert stars and not any(id(f) in above for f in stars)


def test_the_pseudo_check_makes_the_sums_of_one_pass_on_a_matrix_without_p(monkeypatch):
    # the frozen 32x32 W with 1 added to entry (6,8): row 6 is no longer
    # orthogonal to row 1, so the pass for p = 1 fails at entry (1,6) after
    # 6 sums, and entry (1,1) = 1 rules out p = -1 with no pass of its own
    w = _perturbed(matrix_from_json(expected_outputs("tangle-32x32")["W"]), 5, 7)
    sums = []
    total = Gram.sum
    monkeypatch.setattr(Gram, "sum", lambda g, i, j: sums.append((i, j)) or total(g, i, j))
    assert is_pseudo_paraunitary(w) is None
    assert sums == [(0, j) for j in range(6)]


def _full_pseudo(m: PolyMatrix):
    """The generic pseudo check: the whole product M M* against p I."""
    product = mul(m, m.adjoint())
    p = product.entries[0][0]
    if p.is_unit_monomial() is None or product != PolyMatrix.identity(m.ring, m.rows).scale(p):
        return None
    return p


def test_pseudo_half_on_every_catalog_matrix_and_its_perturbed_copies():
    verdicts = []
    for label, m in _catalog_matrices():
        if not m.is_square:
            continue
        last = m.rows - 1
        for t in (m, _perturbed(m, 0, 0), _perturbed(m, last, last), _perturbed(m, 0, last)):
            fast, full = is_pseudo_paraunitary(t), _full_pseudo(t)
            assert (fast is None) == (full is None), label
            if fast is not None:
                assert fast == full and fast.vars == full.compact().vars, label
            verdicts.append(fast is not None)
    assert sum(verdicts) >= 10 and len(verdicts) - sum(verdicts) >= 10


def test_pseudo_check_finds_p_minus_one_over_a_prime_field(tmp_path, capsys):
    """diag(2, 2) over F_5: W W* = 4 I = -I, so p = -1, the sign that
    occurs only over F_p; W plus 1 at entry (1,2) has no p."""
    from paraunitary.cli import main

    w = PolyMatrix.diagonal(F5, [2, 2])
    p = is_pseudo_paraunitary(w)
    assert p == _full_pseudo(w) == 4 and p.vars == ()
    bad = _perturbed(w, 0, 1)
    assert is_pseudo_paraunitary(bad) is None and _full_pseudo(bad) is None
    f = tmp_path / "w.json"
    f.write_text(dumps(matrix_to_json(w)))
    assert main(["verify", str(f), "--mode", "pseudo"]) == 0
    assert capsys.readouterr().out == "pseudo-paraunitary: PASS with p = 4\n"


# --- verify_set: the rank certificate ---------------------------------------

def _naive_set_failures(s: IdempotentSet) -> list[str]:
    """The generic check: every clause, every ordered pair of members."""
    failures = []
    zero = zeros(s.ring, s.n, s.n)
    for i, e in enumerate(s.members):
        if e == zero:
            failures.append(f"member {i + 1} is zero")
        if mul(e, e) != e:
            failures.append(f"member {i + 1} is not idempotent")
        if e.adjoint() != e:
            failures.append(f"member {i + 1} is not symmetric")
    for i, e in enumerate(s.members):
        for j, f in enumerate(s.members):
            if i != j and mul(e, f) != zero:
                failures.append(f"members {i + 1},{j + 1} are not orthogonal")
    total = s.members[0]
    for e in s.members[1:]:
        total = total + e
    if total != PolyMatrix.identity(s.ring, s.n):
        failures.append("members do not sum to the identity")
    return failures


def _assert_set_agrees(s: IdempotentSet) -> bool:
    fast, naive = verify_set(s), _naive_set_failures(s)
    assert fast.kind == "idempotent-set"
    assert fast.ok == (not naive)
    assert fast.failures == naive
    assert fast.residual is None
    return fast.ok


def _with_member(s: IdempotentSet, k: int, member: PolyMatrix) -> IdempotentSet:
    members = list(s.members)
    members[k] = member
    return IdempotentSet(members, check=False)


def _broken_copies(s: IdempotentSet):
    """One member perturbed: on the diagonal (still symmetric), off it (no
    longer symmetric), and a symmetric transfer between two members that
    keeps the sum at I."""
    last = s.n - 1
    for k in sorted({0, len(s) - 1}):
        yield _with_member(s, k, _perturbed(s.members[k], 0, 0))
        if s.n > 1:
            yield _with_member(s, k, _perturbed(s.members[k], 0, last))
    if len(s) > 1:
        d = PolyMatrix.diagonal(s.ring, [1] + [0] * last)
        members = list(s.members)
        members[0], members[-1] = members[0] + d, members[-1] - d
        yield IdempotentSet(members, check=False)


def _catalog_sets():
    for entry_id in catalog_ids():
        for name, obj in expected_outputs(entry_id).items():
            if isinstance(obj, dict) and obj.get("type") == "idempotent_set":
                yield f"{entry_id}:{name}", idemset_from_json(obj, check=False)


def test_rank_certificate_on_every_catalog_set():
    sets = dict(_catalog_sets())
    assert len(sets) >= 25
    rings = set()
    for label, s in sets.items():
        assert _assert_set_agrees(s), label
        rings.add(s.ring.kind)
        for broken in _broken_copies(s):
            assert not _assert_set_agrees(broken), label
    assert rings == {"rational", "cyclotomic", "prime_field"}


def _constructor_outputs():
    third = Fraction(1, 3)
    v1 = [2 * third, third, 2 * third]
    v2 = [third, 2 * third, -2 * third]
    v3 = [2 * third, -2 * third, -third]
    laurent_u = PolyMatrix(
        QQ,
        [
            [poly_from_text("(1/2)*x + (1/2)*y", QQ), poly_from_text("(1/2)*x - (1/2)*y", QQ)],
            [poly_from_text("(1/2)*x - (1/2)*y", QQ), poly_from_text("(1/2)*x + (1/2)*y", QQ)],
        ],
    )
    f7_w, _ = _f7_pair()
    z8_w, _ = _z8_pair()
    haar = PolyMatrix(Z8, [[1, 1], [1, -1]]).scale(sqrt2(Z8).inverse())
    i8, r8 = zeta(Z8, 2), sqrt2(Z8).inverse()
    basis = from_orthonormal_basis(QQ, [v1, v2, v3])
    yield "orthonormal", basis
    yield "orthonormal-grouped", from_orthonormal_basis(QQ, [v1, v2, v3], [[0], [1, 2]])
    yield "orthonormal-z8", from_orthonormal_basis(Z8, [[-i8 * r8, r8], [i8 * r8, r8]])
    yield "orthogonal-f5", from_orthogonal_basis_finite(F5, [[2, 1, 2], [1, 2, 3], [2, 3, 4]])
    yield "orthogonal-f7", from_orthogonal_basis_finite(F7, [[1, 2, 1], [1, 6, 1], [1, 0, 6]])
    yield "rows-q-laurent", from_matrix_rows(laurent_u)
    yield "rows-z8-laurent", from_matrix_rows(z8_w)
    yield "rows-f7-laurent", from_matrix_rows(f7_w)
    yield "diagonal-f3", diagonal_set(F3, 3)
    yield "group-s3", from_group(symmetric_3(), QQ)
    yield "group-c4-z4", from_group(cyclic(4), cyclotomic(4))
    yield "group-c2xc2-f7", from_group(elementary_abelian_2(2), F7)
    yield "merge", merge(basis, [[0, 2], [1]])
    yield "realify", realify(from_group(cyclic(4), cyclotomic(4)))
    yield "tensor-f5", tensor_sets(IdempotentSet(F5_SET), diagonal_set(F5, 2))
    yield "conjugate-z8", conjugate_set(diagonal_set(Z8, 2), haar)
    yield "conjugate-f7-laurent", conjugate_set(diagonal_set(F7, 3), f7_w)
    yield "f3-blocks", IdempotentSet(F3_BLOCKS)


def test_rank_certificate_on_every_constructor_output():
    for label, s in _constructor_outputs():
        assert _assert_set_agrees(s), label
        for broken in _broken_copies(s):
            assert not _assert_set_agrees(broken), label


def _duplicated_copies(s: IdempotentSet):
    """Sets of symmetric idempotents that are not orthogonal: one member
    repeated at the end, and the first member put in place of the last."""
    yield IdempotentSet([*s.members, s.members[0]], check=False)
    if len(s) > 1:
        yield IdempotentSet([*s.members[:-1], s.members[0]], check=False)


def test_trace_form_reports_equal_the_product_path_on_catalog_sets(monkeypatch):
    # over Q and Q(zeta_N) the failure report decides a pair of symmetric
    # idempotents by tr(E_i E_j); the lists must equal the k^2 product check's
    products = _counting(monkeypatch, "_product_is_zero")
    checked, traced = 0, 0
    for label, s in list(_catalog_sets()) + list(_constructor_outputs()):
        for t in [s, *_broken_copies(s), *_duplicated_copies(s)]:
            products.clear()
            assert verify_set(t).failures == _naive_set_failures(t), label
            checked += 1
            if t.ring.kind != "prime_field" and not products:
                traced += not verify_set(t).ok
    assert checked >= 400 and traced >= 80


def test_trace_form_decides_each_pair_as_the_product_does():
    pairs = 0
    for label, s in list(_catalog_sets()) + list(_constructor_outputs()):
        if s.ring.kind == "prime_field":
            continue
        zero = zeros(s.ring, s.n, s.n)
        members = list(s.members) + [s.members[0]]
        for a in members:
            for b in members:
                assert _trace_of_product(a, b).is_zero() == (mul(a, b) == zero), label
                pairs += 1
    assert pairs >= 600


def test_trace_form_is_used_only_where_it_is_a_theorem():
    # over F_3, tr(I I) = 3 = 0 although I I != 0: the form is not definite
    eye = PolyMatrix.identity(F3, 3)
    assert not _assert_set_agrees(IdempotentSet([eye, eye], check=False))
    # over Q, tr(D I) = 0 for the symmetric D = diag(1, -1), which is not
    # idempotent, although D I != 0
    d = PolyMatrix.diagonal(QQ, [1, -1])
    assert not _assert_set_agrees(IdempotentSet([d, PolyMatrix.identity(QQ, 2)], check=False))


def test_rank_certificate_on_a_member_that_is_not_symmetric():
    # E1 E2 = 0 but E2 E1 != 0: the pair must be multiplied both ways
    e1 = PolyMatrix(QQ, [[1, 0], [1, 0]])
    e2 = PolyMatrix(QQ, [[0, 0], [0, 1]])
    assert mul(e1, e2) == zeros(QQ, 2, 2)
    assert not _assert_set_agrees(IdempotentSet([e1, e2], check=False))
    assert verify_set(IdempotentSet([e1, e2], check=False)).failures == [
        "member 1 is not symmetric",
        "members 2,1 are not orthogonal",
        "members do not sum to the identity",
    ]
    # idempotent, sums to I, orthogonal, yet not symmetric
    f1 = PolyMatrix(QQ, [[1, 1], [0, 0]])
    f2 = PolyMatrix(QQ, [[0, -1], [0, 1]])
    assert not _assert_set_agrees(IdempotentSet([f1, f2], check=False))


def _counting(monkeypatch, name):
    calls = []
    original = getattr(idempotents, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(idempotents, name, counted)
    return calls


def test_f3_set_whose_ranks_over_count_fails_by_rank(monkeypatch):
    # idempotent, symmetric, sums to I over F_3 (4 + 1 = 2 mod 3 on the
    # diagonal), and its traces sum to n mod 3; only the ranks (5 > 2) fail
    e, f = PolyMatrix(F3, [[1, 0], [0, 0]]), PolyMatrix(F3, [[0, 0], [0, 1]])
    s = IdempotentSet([e, e, e, e, f], check=False)
    ranks = _counting(monkeypatch, "rank")
    products = _counting(monkeypatch, "mul")
    assert not verify_set(s).ok
    assert len(ranks) == 5 and products == []
    assert not _assert_set_agrees(s)
    with pytest.raises(NotCompleteSet):
        IdempotentSet([e, e, e, e, f])


def test_f3_laurent_set_fails_by_ranks_without_a_pairwise_product(monkeypatch):
    # P is a symmetric idempotent over F_3 with trace 1, and
    # 4P + (I - P) = I + 3P = I; but P P = P != 0.  Over F_3(z) the ranks
    # sum to 4 + 1 = 5 > 2, so the rank certificate fails.
    p = _f3_projector()
    q = PolyMatrix.identity(F3, 2) - p
    assert mul(p, p) == p and p.adjoint() == p
    ranks = _counting(monkeypatch, "rank")
    products = _counting(monkeypatch, "mul")
    s = IdempotentSet([p, p, p, p, q], check=False)
    assert not verify_set(s).ok
    assert len(ranks) == 5 and products == []
    assert not _assert_set_agrees(s)


def _f3_projector():
    """P = (1/2)[[1, z], [z^-1, 1]], a symmetric Laurent idempotent over F_3."""
    half = ExactScalar.from_rational(F3, Fraction(1, 2))
    z = LaurentPoly.monomial(half, {"z": 1})
    return PolyMatrix(F3, [[half, z], [z.star(), half]])


def _fp_laurent_sets():
    f7_w = _f7_pair()[0]
    p = _f3_projector()
    q = PolyMatrix.identity(F3, 2) - p
    yield "rows-f7-laurent", from_matrix_rows(f7_w)
    yield "conjugate-f7-laurent", conjugate_set(diagonal_set(F7, 3), f7_w)
    yield "f3-projector", IdempotentSet([p, q])
    yield "f3-projector-over-counted", IdempotentSet([p, p, p, p, q], check=False)


def test_rank_verdict_equals_the_pairwise_verdict_on_fp_laurent_sets():
    seen = set()
    for label, s in _fp_laurent_sets():
        for t in [s, *_broken_copies(s)]:
            failures = verify_set(t).failures
            assert failures == _naive_set_failures(t), label
            assert verify_set(t).ok == (not failures), label
            premise = not any("idempotent" in f or "symmetric" in f or "sum" in f for f in failures)
            if premise:  # symmetric idempotents summing to I: the ranks decide orthogonality
                pairwise = not any("orthogonal" in f for f in failures)
                assert verify_set(t).ok == pairwise, label
                seen.add(pairwise)
    assert seen == {True, False}


def _oracle_sets():
    """The catalog and constructor sets, and members that make each
    decision go each way: non-symmetric idempotents, symmetric
    non-idempotents and a diagonal entry the involution moves, over Q,
    Q(zeta_8) and F_7(z), each with the complement that keeps the sum at I."""
    yield from _catalog_sets()
    yield from _constructor_outputs()
    yield from _fp_laurent_sets()
    for c in [LaurentPoly.constant(1, QQ), LaurentPoly.constant(zeta(Z8, 1)), LaurentPoly.variable("z", F7)]:
        eye = PolyMatrix.identity(c.ring, 2)
        for grid in [[[1, c], [0, 0]], [[1, c], [c.star(), 1]], [[c, 0], [0, 0]]]:
            e = PolyMatrix(c.ring, grid)
            yield f"{c.ring}:{e}", IdempotentSet([e, eye - e], check=False)


def test_entrywise_decisions_equal_the_full_products():
    seen_clauses, seen_products = set(), set()
    for label, s in _oracle_sets():
        for t in [s, *_broken_copies(s)]:
            assert verify_set(t).failures == _naive_set_failures(t), label
            zero = zeros(t.ring, t.n, t.n)
            for a in t.members:
                clauses = idempotents._member_clauses(a)
                assert clauses == (mul(a, a) == a, a.adjoint() == a), label
                seen_clauses.add(clauses)
                for b in t.members:
                    product_is_zero = idempotents._product_is_zero(a, b)
                    assert product_is_zero == (mul(a, b) == zero), label
                    seen_products.add(product_is_zero)
    assert seen_clauses == {(True, True), (True, False), (False, True), (False, False)}
    assert seen_products == {True, False}


def test_a_passing_set_costs_k_ranks(monkeypatch):
    # each member of a passing set costs one rank, and no member's square and
    # no pair is multiplied, over Q, F_p and F_p(z) alike
    dots = _counting(monkeypatch, "dot")
    ranks = _counting(monkeypatch, "rank")
    clauses = _counting(monkeypatch, "_member_clauses")
    for s in (from_group(symmetric_3(), QQ), IdempotentSet(F7_SET_A), from_matrix_rows(_f7_pair()[0])):
        dots.clear(), ranks.clear(), clauses.clear()
        assert verify_set(s).ok
        assert dots == [] and clauses == []
        assert sorted(id(e) for (e,) in ranks) == sorted(map(id, s.members))


def test_the_verdict_of_a_set_forms_no_product(monkeypatch):
    # {diag(2, 0), diag(-1, 1)} over Q sums to I and is symmetric, but its
    # ranks sum to 3, not 2: neither member is idempotent and the pair is not
    # orthogonal; {I, 0} has ranks summing to 2 with a zero member
    dots = _counting(monkeypatch, "dot")
    clauses = _counting(monkeypatch, "_member_clauses")
    ranks = _counting(monkeypatch, "rank")
    eye = PolyMatrix.identity(QQ, 2)
    cases = [
        (IdempotentSet([PolyMatrix.diagonal(QQ, [2, 0]), PolyMatrix.diagonal(QQ, [-1, 1])], check=False), False),
        (IdempotentSet([eye, zeros(QQ, 2, 2)], check=False), False),
        (from_group(symmetric_3(), QQ), True),
    ]
    for s, ok in cases:
        dots.clear(), clauses.clear(), ranks.clear()
        assert verify_set(s).ok == ok
        assert dots == [] and clauses == [] and len(ranks) == len(s)
        assert _assert_set_agrees(s) == ok
    assert verify_set(cases[0][0]).failures == [
        "member 1 is not idempotent",
        "member 2 is not idempotent",
        "members 1,2 are not orthogonal",
        "members 2,1 are not orthogonal",
    ]


def _deciding_dots(full: PolyMatrix, target: PolyMatrix, cells) -> int:
    """The dots of an entry-by-entry check of full == target over ``cells``
    in order: up to and including the first cell that differs."""
    for count, (i, j) in enumerate(cells, 1):
        if full.entries[i][j] != target.entries[i][j]:
            return count
    return len(cells)


def _square_dots(e: PolyMatrix) -> int:
    """The kernel dots that decide E E = E: the upper triangle of E E when
    E is symmetric, all n^2 entries when not, up to the first that differs."""
    n = e.rows
    symmetric = e.adjoint() == e
    cells = [(i, j) for i in range(n) for j in range(i if symmetric else 0, n)]
    return _deciding_dots(mul(e, e), e, cells)


def _expected_dots(s: IdempotentSet) -> int:
    """The kernel dots verify_set makes on a failing set s once its
    failures are read, from the full products: each member's square
    (:func:`_square_dots`), and each pair that neither the symmetric
    transfer nor the trace form decides, up to its first nonzero entry."""
    n, zero = s.n, zeros(s.ring, s.n, s.n)
    square = [(i, j) for i in range(n) for j in range(n)]
    total, symmetric, sound = 0, [], []
    for e in s.members:
        symmetric.append(e.adjoint() == e)
        sound.append(symmetric[-1] and mul(e, e) == e)
        total += _square_dots(e)
    char0 = s.ring.kind != "prime_field"
    for i, a in enumerate(s.members):
        for j, b in enumerate(s.members):
            if i == j or (j < i and symmetric[i] and symmetric[j]) or (char0 and sound[i] and sound[j]):
                continue
            total += _deciding_dots(mul(a, b), zero, square)
    return total


def test_a_failing_set_pays_for_its_verdict_then_its_report_once(monkeypatch):
    # reading ok makes no dot and decides no member's clauses; reading
    # failures then decides them, each member's clauses once in all, and a
    # second read decides nothing
    dots = _counting(monkeypatch, "dot")
    clauses = _counting(monkeypatch, "_member_clauses")
    ranks = _counting(monkeypatch, "rank")
    p = _f3_projector()
    over_counted = IdempotentSet([p, p, p, p, PolyMatrix.identity(F3, 2) - p], check=False)
    sets = [from_group(symmetric_3(), QQ), IdempotentSet(F7_SET_A), from_matrix_rows(_f7_pair()[0])]
    cases = [t for s in sets for t in _broken_copies(s)] + [over_counted]
    deciding = set()
    for t in cases:
        dots.clear(), clauses.clear(), ranks.clear()
        report = verify_set(t)
        assert not report.ok
        assert dots == [] and clauses == []
        deciding.add(len(ranks) > 0)
        failures = report.failures
        assert failures == _naive_set_failures(t)
        assert len(dots) == _expected_dots(t)
        assert sorted(id(e) for (e,) in clauses) == sorted(map(id, t.members))
        assert report.failures is failures and report.summary().split("\n  ")[1:] == failures
        assert len(dots) == _expected_dots(t)
    # the sum decides some verdicts alone, and the ranks the others
    assert deciding == {True, False}


@pytest.mark.parametrize(
    "table, ring", [(symmetric_3(), QQ), (cyclic(4), cyclotomic(4)), (elementary_abelian_2(2), F7)]
)
def test_group_set_from_a_wrong_character_table_is_an_internal_error(table, ring):
    # the check of the embedded matrices is the only proof of the group-ring
    # idempotents, so a wrong table (one dim doubled) still ends in exit 3
    chars = character_table(table)
    assert len(from_group(table, ring, chars)) == len(chars.characters)
    for k, ch in enumerate(chars.characters):
        bad = list(chars.characters)
        bad[k] = replace(ch, dim=2 * ch.dim)
        with pytest.raises(InternalCheckError):
            from_group(table, ring, CharacterTable(table, tuple(bad)))


# --- orthonormality: the upper triangle of one Gram product ------------------

def _pairwise_orthonormal_error(ring, vectors):
    """The generic check: v_i v_j* for every ordered pair, row-major."""
    rows = [v if isinstance(v, PolyMatrix) else PolyMatrix.row_vector(ring, list(v)) for v in vectors]
    for i, u in enumerate(rows):
        for j, w in enumerate(rows):
            prod = mul(u, w.adjoint()).entries[0][0]
            if not (prod.is_one() if i == j else prod.is_zero()):
                return NotOrthonormal, f"v_{i + 1} v_{j + 1}* = {prod}"
    return None


def _pairwise_orthogonal_error(ring, vectors):
    """The generic check: v_i v_j^T for every ordered pair, row-major."""
    rows = [PolyMatrix.row_vector(ring, list(v)) for v in vectors]
    for i, u in enumerate(rows):
        for j, w in enumerate(rows):
            prod = mul(u, w.transpose()).entries[0][0]
            if i == j:
                if prod.is_zero():
                    return IsotropicVector, f"v_{i + 1} has self inner product 0"
            elif not prod.is_zero():
                return NotOrthogonal, f"v_{i + 1} v_{j + 1}^T = {prod}"
    return None


def _gram_error(fn, ring, vectors):
    try:
        fn(ring, vectors)
    except (NotOrthonormal, NotOrthogonal, IsotropicVector) as exc:
        return type(exc), str(exc)
    except ExactAlgebraError:  # a later clause, e.g. the set check of the projectors
        pass
    return None


def _vector_sets():
    third = Fraction(1, 3)
    i8, r8 = zeta(Z8, 2), sqrt2(Z8).inverse()
    yield QQ, [[2 * third, third, 2 * third], [third, 2 * third, -2 * third], [2 * third, -2 * third, -third]]
    yield Z8, [[-i8 * r8, r8], [i8 * r8, r8]]
    yield F7, [[2, 2, 0], [2, 5, 0], [0, 0, 6]]
    yield F5, [[2, 1, 2], [1, 2, 3], [2, 3, 4]]


def _perturbed_vector_sets(ring, vectors):
    """The set, each coordinate plus 1, each vector doubled, each vector
    replaced by its neighbour."""
    yield vectors
    k, n = len(vectors), len(vectors[0])
    for i in range(k):
        for c in range(n):
            yield [[x + 1 if (r, col) == (i, c) else x for col, x in enumerate(v)] for r, v in enumerate(vectors)]
        yield [[2 * x for x in v] if r == i else v for r, v in enumerate(vectors)]
        yield [vectors[(i + 1) % k] if r == i else v for r, v in enumerate(vectors)]


def test_orthonormality_raises_the_first_error_of_the_pairwise_loop():
    seen = set()
    for ring, vectors in _vector_sets():
        for vs in _perturbed_vector_sets(ring, vectors):
            for fn, naive in (
                (orthonormal_rows, _pairwise_orthonormal_error),
                (from_orthogonal_basis_finite, _pairwise_orthogonal_error),
            ):
                expected = naive(ring, vs)
                assert _gram_error(fn, ring, vs) == expected, (ring, vs)
                seen.add(expected[0] if expected else None)
    assert seen == {None, NotOrthonormal, NotOrthogonal, IsotropicVector}


def test_orthonormality_of_laurent_rows_raises_the_first_error_of_the_pairwise_loop():
    u = _f7_pair()[0]
    rows = [PolyMatrix.row_vector(F7, list(r)) for r in u.entries]
    cases = [rows] + [
        [_perturbed(r, 0, c) if k == i else r for k, r in enumerate(rows)]
        for i in range(len(rows))
        for c in range(u.cols)
    ]
    errors = 0
    for vs in cases:
        expected = _pairwise_orthonormal_error(F7, vs)
        assert _gram_error(orthonormal_rows, F7, vs) == expected
        errors += expected is not None
    assert errors == len(cases) - 1


# --- lazy failure reports ----------------------------------------------------

# a report's first read: ``ok`` alone, or one of the two deferred fields
# (summary(), the report JSON and repr read them too)
_FIRST_READS = (lambda r: r.ok, lambda r: r.residual, lambda r: r.failures)


def _reads(report: VerificationReport):
    """Every field of a report as the CLI, the report JSON and a caller read them."""
    residual = report.residual
    shown = None if residual is None else (str(residual), dumps(matrix_to_json(residual)))
    return report.ok, residual, shown, report.failures, report.summary(), dumps(object_to_json(report))


def _assert_lazy_equals_eager(check, obj, eager: VerificationReport):
    """A fresh report of ``check(obj)`` for each first read equals ``eager``,
    whose fields were given when it was made."""
    for first in _FIRST_READS:
        lazy = check(obj)
        first(lazy)
        assert _reads(lazy) == _reads(eager)
        assert lazy == eager and eager == lazy
        assert lazy.failures is lazy.failures


def _square_catalog_matrices():
    for label, m in _catalog_matrices():
        if m.is_square:
            last = m.rows - 1
            yield label, m
            for i, j in sorted({(0, 0), (last, last), (0, last)}):
                yield f"{label}+e{i}{j}", _perturbed(m, i, j)


def test_lazy_paraunitary_reports_equal_the_eager_ones_on_the_catalog(tmp_path, capsys):
    from paraunitary.cli import main

    f = tmp_path / "m.json"
    verdicts = set()
    for label, m in _square_catalog_matrices():
        eager = _full_report(m)
        _assert_lazy_equals_eager(is_paraunitary, m, eager)
        f.write_text(dumps(matrix_to_json(m)))
        code = main(["verify", str(f), "--mode", "paraunitary"])
        out = capsys.readouterr()
        expected = eager.summary() + "\n"
        if not eager.ok:
            expected += f"residual (M M* - I):\n{eager.residual}\n"
        assert (code, out.out, out.err) == (0 if eager.ok else 1, expected, ""), label
        verdicts.add(eager.ok)
    assert verdicts == {True, False}


def test_lazy_set_reports_equal_the_eager_ones_on_the_catalog(tmp_path, capsys):
    from paraunitary.cli import main
    from paraunitary.serialize import idemset_to_json

    f = tmp_path / "s.json"
    verdicts = set()
    for label, s in _catalog_sets():
        for t in [s, *_broken_copies(s)]:
            naive = _naive_set_failures(t)
            eager = VerificationReport("idempotent-set", not naive, None, naive)
            _assert_lazy_equals_eager(verify_set, t, eager)
            f.write_text(dumps(idemset_to_json(t)))
            code = main(["verify", str(f), "--mode", "idemset"])
            out = capsys.readouterr()
            assert (code, out.out, out.err) == (0 if eager.ok else 1, eager.summary() + "\n", ""), label
            verdicts.add(eager.ok)
    assert verdicts == {True, False}


def _paraunitary_dots(m: PolyMatrix) -> tuple[int, int]:
    """The kernel sums (Gram entry sums) of a check of M M* = I: those that
    decide it (the upper triangle, row by row, up to the first entry that
    differs from I) and those of the whole report (the full upper
    triangle)."""
    n = m.rows
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    return _deciding_dots(mul(m, m.adjoint()), PolyMatrix.identity(m.ring, n), upper), len(upper)


def test_a_failed_paraunitary_check_pays_for_its_verdict_then_its_report_once(monkeypatch):
    import paraunitary.polymatrix as polymatrix

    checked = 0
    for label, m in _square_catalog_matrices():
        deciding, whole = _paraunitary_dots(m)
        dots = []
        total, dot = Gram.sum, polymatrix.dot
        monkeypatch.setattr(Gram, "sum", lambda self, i, j: dots.append(1) or total(self, i, j))
        monkeypatch.setattr(polymatrix, "dot", lambda *a: dots.append(1) or dot(*a))
        report = is_paraunitary(m)
        if report.ok:
            monkeypatch.undo()
            continue
        assert len(dots) == deciding, label
        residual = report.residual
        # the entry that differs is summed once to decide and once by dot to print
        assert len(dots) == whole + 1, label
        report.failures, report.summary(), object_to_json(report)
        assert report.residual is residual and len(dots) == whole + 1, label
        monkeypatch.undo()
        checked += deciding < whole
    assert checked >= 10
