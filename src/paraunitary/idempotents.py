"""Complete symmetric orthogonal sets of idempotent matrices.

Constructors cover orthonormal bases, orthogonal bases over finite fields,
rows of paraunitary matrices, diagonal units, group rings, tensor products,
conjugation, merging, and conjugate-pair realification, plus the rank-1
factorization P = v v*.

Every constructor proves its output.  Each is a proposition: it checks
its premises on its inputs (an unproven input set once, by :func:`_prove`)
and records its rule as the set's ``proof`` (:meth:`IdempotentSet._proven`).
Only where a premise fails on a basis, or in ``from_group``, does
:func:`verify_set` check the output.  It never reads ``proof``.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    IncompatibleRings,
    InternalCheckError,
    IsotropicVector,
    NotAPartition,
    NotCompleteSet,
    NotOrthogonal,
    NotOrthonormal,
    NotParaunitary,
    NotScalar,
    NotSquare,
    ParseError,
    ZeroCoefficient,
)
from .groups import (
    CharacterTable,
    GroupRingElement,
    GroupTable,
    character_table,
    embed_group_ring,
    group_ring_idempotents,
)
from .laurent import Gram, LaurentPoly, dot
from .polymatrix import (
    PolyMatrix,
    VerificationReport,
    _check_size,
    _first_off_identity,
    _map_distinct,
    _record,
    _sums_to_identity,
    _term_count,
    _trace_of_product,
    combination,
    is_paraunitary,
    mul,
    rank,
    tensor,
)
from .scalars import (
    PRIME_FIELD,
    RingDescriptor,
    as_scalar,
    scalar_sqrt,
    scalar_is_negative,
)


class IdempotentSet:
    """Ordered complete symmetric orthogonal family of idempotent matrices.

    ``proof`` names what proved the four clauses: the certificate of
    :func:`verify_set` (``rank``) when the set was built with
    ``check=True`` or later by :func:`_prove`, a constructor's rule
    when :meth:`_proven` built it, and None until then; a copy or an
    unpickled set starts without it.  A set is a value by the contract of
    ``PolyMatrix``, whose read-only ``proof`` it shares: its plain slots
    are set when it is built, and only ``polymatrix._record`` writes
    ``_proof``, once.
    """

    __slots__ = ("ring", "n", "members", "labels", "_proof")
    proof = PolyMatrix.proof

    def __init__(self, members, labels=None, check: bool = True):
        members = tuple(members)
        if not members:
            raise ParseError("empty member list")
        ring = members[0].ring
        n = members[0].rows
        for m in members:
            if m.ring != ring:
                raise IncompatibleRings("members must share one ring")
            if m.rows != n or m.cols != n:
                raise NotSquare("members must be square of one size")
        if labels is None:
            labels = tuple(f"E{i + 1}" for i in range(len(members)))
        else:
            labels = tuple(labels)
            if len(labels) != len(members) or not all(isinstance(x, str) for x in labels):
                raise ValueError("one string label per member required")
        self.ring, self.n, self.members, self.labels, self._proof = ring, n, members, labels, None
        if check:
            _prove(self)

    @classmethod
    def _proven(cls, members, labels, rule: str) -> "IdempotentSet":
        """A set whose four clauses the theorem named ``rule`` proves from
        premises its caller has checked; the set is not checked again."""
        return _record(cls(members, labels, check=False), rule)

    def __reduce__(self):
        # copy, deepcopy and unpickling rebuild the set unchecked and unproven:
        # a proof is never carried over
        return IdempotentSet, (self.members, self.labels, False)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i) -> PolyMatrix:
        return self.members[i]

    def __eq__(self, other):
        return (
            isinstance(other, IdempotentSet)
            and self.ring == other.ring
            and self.members == other.members
        )

    def __repr__(self):
        return f"IdempotentSet({len(self.members)} members, {self.n}x{self.n} over {self.ring})"


def _prove(s: IdempotentSet) -> IdempotentSet:
    """``s``, proven: a set without a proof is checked once by
    :func:`verify_set`, NotCompleteSet with its summary on a failure, and
    a pass is recorded on ``s`` (as ``is_paraunitary`` records one)."""
    if s.proof is None:
        _record(s, verify_set(s).require(NotCompleteSet).certificate)
    return s


def verify_set(s: IdempotentSet) -> VerificationReport:
    """Check all four clauses exactly: nonzero idempotents, pairwise
    orthogonality, completeness, and symmetry under the involution.

    Certificate ``rank``: the set passes when its members sum to I, each
    member is symmetric, and the ranks are all positive and sum to n.
    ``ok`` is decided in that order, the cheapest clause first, and the
    check returns at the first clause that fails.  The sum is compared
    with I cell by cell, one sum per distinct tuple of the members'
    entries, up to the first cell that differs
    (``polymatrix._sums_to_identity``).  Symmetry is decided by
    :func:`_symmetric`, and then one :func:`rank` per member, over the
    fraction field of the entries, decides the rest: no product E E or
    E_i E_j is formed.

    The argument (the matrix form of Cochran's theorem): let E_1 .. E_k be
    n x n matrices over a field F with E_1 + .. + E_k = I.  Every v in F^n
    is sum_i E_i v, so the images im(E_i) span F^n and
    sum_i rank(E_i) >= n, with equality exactly when the sum of the images
    is direct.  If it is direct, then for each j and v the vector E_j v
    splits as

        E_j v = sum_i E_i (E_j v),

    with the i-th term in im(E_i) and E_j v itself in im(E_j), so
    directness gives E_j E_j v = E_j v and E_i E_j v = 0 for i != j: each
    E_j is idempotent and the members are pairwise orthogonal.
    Conversely, orthogonal idempotents summing to I split F^n directly
    (for v_i in im(E_i), E_j v_i is v_j for i = j and 0 otherwise, so
    applying E_j to sum_i v_i = 0 gives v_j = 0), and their ranks sum to
    n.  A member is nonzero exactly when its rank is positive.  The
    argument holds over any field, so over Q, Q(zeta_N) and F_p alike, and
    the entries lie in the rational-function field F(x, ..) of the scalar
    field, so it covers Laurent members too.

    ``upper-half`` (:func:`_member_clauses`, for the report): E* = E
    exactly when star(E[j][i]) = E[i][j] for i <= j, each distinct entry
    starred once.  Then (E E)* = E E, so entry (j, i) of E E and of E are
    the stars of entry (i, j): the entries with i <= j, each one dot,
    decide E E = E.  A member that is not symmetric takes all n^2
    entries.  Each identity stops at the first entry that differs.

    A failing set has its clauses and pairwise products decided only to
    build the report, on the first read of its ``failures`` (see
    ``polymatrix.VerificationReport``): a caller that reads ``ok`` alone
    pays for the deciding clauses only.  ``failures`` lists every failing
    clause in the order of the full k^2 check (each member's clauses, then
    each ordered pair, then the sum).  For symmetric E_i and E_j,
    (E_i E_j)* = E_j* E_i* = E_j E_i, so E_i E_j = 0 exactly when
    E_j E_i = 0: such a pair is decided once and both of its messages are
    emitted.

    ``trace-form``, characteristic 0: for symmetric idempotents E_i and
    E_j, E_i E_j = 0 exactly when tr(E_i E_j) = 0, which is one dot over
    n^2 entry pairs instead of an n x n product.  Put X = E_i E_j; then
    X* X = E_j E_i E_i E_j = E_j E_i E_j, so tr(X* X) = tr(E_i E_j).  The
    constant coefficient of tr(X* X) is the sum of c conj(c) over every
    term c z^t of every entry of X, and conj is complex conjugation under
    every embedding of Q(zeta_N), so that sum is 0 only when X = 0.  Over
    F_p the involution is the identity and the form is not definite, and a
    pair with a member that is not a symmetric idempotent has no such
    argument: those pairs are multiplied entry by entry up to the first
    nonzero entry (:func:`_product_is_zero`).
    """
    complete = _sums_to_identity(s.members)
    if complete and all(_symmetric(e) for e in s.members):
        ranks = [rank(e) for e in s.members]
        if all(ranks) and sum(ranks) == s.n:
            return VerificationReport("idempotent-set", True, certificate="rank")
    return VerificationReport(
        "idempotent-set", False, certificate="rank", explain=lambda: (None, _set_failures(s, complete))
    )


def _set_failures(s: IdempotentSet, complete: bool) -> list[str]:
    """The ``failures`` of a failing set (see :func:`verify_set`), each
    member's clauses decided once."""
    members = s.members
    k = len(members)
    char0 = s.ring.kind != PRIME_FIELD
    failures, symmetric, sound = [], [], []
    for i, e in enumerate(members):
        nonzero, idempotent, sym = _clauses(e)
        if not nonzero:
            failures.append(f"member {i + 1} is zero")
        if not idempotent:
            failures.append(f"member {i + 1} is not idempotent")
        if not sym:
            failures.append(f"member {i + 1} is not symmetric")
        symmetric.append(sym)
        sound.append(idempotent and sym)
    nonzero = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if j < i and symmetric[i] and symmetric[j]:
                # E_i E_j = (E_j E_i)*, and E_j E_i was decided already
                nonzero[i, j] = nonzero[j, i]
            elif char0 and sound[i] and sound[j]:
                nonzero[i, j] = not _trace_of_product(members[i], members[j]).is_zero()
            else:
                nonzero[i, j] = not _product_is_zero(members[i], members[j])
            if nonzero[i, j]:
                failures.append(f"members {i + 1},{j + 1} are not orthogonal")
    if not complete:
        failures.append("members do not sum to the identity")
    return failures


def _clauses(e: PolyMatrix) -> tuple[bool, bool, bool]:
    """(E != 0, E E = E, E* = E) of one member."""
    return (any(not x.is_zero() for row in e.entries for x in row), *_member_clauses(e))


def _symmetric(e: PolyMatrix) -> bool:
    """E* = E, from the stars of the entries on and below the diagonal,
    each distinct entry starred once (``upper-half``, :func:`verify_set`)."""
    rows, n = e.entries, e.rows
    starred = _map_distinct(lambda cells: [x.star() for (x,) in cells], [row[: j + 1] for j, row in enumerate(rows)])
    return all(starred[j][i] == rows[i][j] for i in range(n) for j in range(i, n))


def _member_clauses(e: PolyMatrix) -> tuple[bool, bool]:
    """(E E = E, E* = E), by the ``upper-half`` argument of :func:`verify_set`."""
    ring, vars, rows, n = e.ring, e.vars, e.entries, e.rows
    symmetric = _symmetric(e)
    cols = tuple(zip(*rows))
    idempotent = all(
        dot(ring, vars, rows[i], cols[j]) == rows[i][j]
        for i in range(n)
        for j in range(i if symmetric else 0, n)
    )
    return idempotent, symmetric


def _product_is_zero(a: PolyMatrix, b: PolyMatrix) -> bool:
    """Whether A B = 0, one entry at a time up to the first nonzero one."""
    a, b = a._aligned_pair(b)
    cols = tuple(zip(*b.entries))
    return all(dot(a.ring, a.vars, row, col).is_zero() for row in a.entries for col in cols)


def _as_row(ring: RingDescriptor, v) -> PolyMatrix:
    if isinstance(v, PolyMatrix):
        if v.rows != 1:
            raise ValueError("row vector expected")
        return v
    return PolyMatrix.row_vector(ring, list(v))


def orthonormal_rows(ring: RingDescriptor, vectors) -> list[PolyMatrix]:
    """The vectors as row matrices; NotOrthonormal unless v_i v_j* is 1 for
    i = j and 0 otherwise, decided from the sums of the Gram kernel of
    V V*, where V stacks the rows, alone (``polymatrix._first_off_identity``).

    (V V*)[j][i] is the star of (V V*)[i][j], so an entry below the
    diagonal is zero exactly when its mirror is, and the first entry in
    row-major order that breaks orthonormality always lies in the upper
    triangle.  The message forms that one entry by :func:`dot`.
    """
    rows = [_as_row(ring, v) for v in vectors]
    if rows:
        v = PolyMatrix(ring, [r.entries[0] for r in rows])
        failed = _first_off_identity(Gram(ring, v.vars, v.entries))
        if failed:
            i, j = failed
            entry = dot(ring, v.vars, v.entries[i], [e.star() for e in v.entries[j]])
            raise NotOrthonormal(f"v_{i + 1} v_{j + 1}* = {entry}")
    return rows


def projection(v: PolyMatrix) -> PolyMatrix:
    """The rank-1 projector v* v of a row vector v."""
    return mul(v.adjoint(), v)


def from_orthonormal_basis(ring: RingDescriptor, vectors, grouping=None) -> IdempotentSet:
    """Projectors v* v of orthonormal rows, optionally summed by groups.

    ``grouping`` is a partition of the 0-based vector indices; singletons by
    default.

    Rule ``orthonormal-basis``, for k = n vectors in F^n: stack them as the
    rows of V.  V V* = I is the Gram identity just proven, and V is square,
    so V* is its inverse and V* V = I: the projectors sum to I.  Each
    v_i* v_i is symmetric and nonzero (it maps v_i* to itself), and
    (v_i* v_i)(v_j* v_j) = v_i* (v_i v_j*) v_j is P_i for i = j and 0
    otherwise; summing by a partition keeps all four clauses.  With fewer
    vectors than coordinates the sum is short of I, and :func:`verify_set`
    reports it.
    """
    rows = orthonormal_rows(ring, vectors)
    projs = [projection(v) for v in rows]
    if grouping is None:
        grouping = [[i] for i in range(len(projs))]
    _check_partition(grouping, len(projs))
    members = [combination([1] * len(grp), [projs[i] for i in grp]) for grp in grouping]
    if rows and len(rows) == rows[0].cols:
        return IdempotentSet._proven(members, None, "orthonormal-basis")
    return IdempotentSet(members)


def from_orthogonal_basis_finite(ring: RingDescriptor, vectors) -> IdempotentSet:
    """Projectors t_i^-1 v_i^T v_i of a pairwise-orthogonal basis; no square
    roots are needed, but every self inner product t_i must be nonzero.

    Rule ``orthogonal-basis``, for k = n scalar vectors whose entries the
    involution fixes (every vector over Q or F_p): stack them as the rows
    of V.  V V^T = D = diag(t_i) is invertible, so V is too, and
    V^T D^-1 V = V^-1 (V V^T) D^-1 V = I: the projectors sum to I.  With
    P_i = t_i^-1 v_i^T v_i, P_i P_j = t_i^-1 t_j^-1 v_i^T (v_i v_j^T) v_j is
    P_i for i = j and 0 otherwise, each P_i is nonzero, and P_i* = P_i
    because the involution fixes every entry.  Any other input is proven
    by :func:`verify_set`.
    """
    rows = [_as_row(ring, v) for v in vectors]
    norms, v = [], PolyMatrix(ring, [r.entries[0] for r in rows]) if rows else None
    # V V^T is symmetric: its upper entries, row by row, decide it
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            prod = dot(ring, v.vars, v.entries[i], v.entries[j])
            if i == j:
                if prod.is_zero():
                    raise IsotropicVector(f"v_{i + 1} has self inner product 0")
                norms.append(prod.constant_value())
            elif not prod.is_zero():
                raise NotOrthogonal(f"v_{i + 1} v_{j + 1}^T = {prod}")
    members = [
        mul(u.transpose(), u).scale(t.inverse()) for u, t in zip(rows, norms)
    ]
    if rows and len(rows) == rows[0].cols and all(u.is_scalar and u.entrywise_star() == u for u in rows):
        return IdempotentSet._proven(members, None, "orthogonal-basis")
    return IdempotentSet(members)


def from_matrix_rows(u: PolyMatrix) -> IdempotentSet:
    """Rank-1 Laurent idempotents v_i* v_i from the rows of a paraunitary matrix.

    Rule ``paraunitary-rows``: U U* = I, proven here, makes the rows
    orthonormal, and U is square, so U* U = I; the argument of
    :func:`from_orthonormal_basis` then proves the set.
    """
    is_paraunitary(u).require(NotParaunitary)
    members = []
    for i in range(u.rows):
        row = PolyMatrix.row_vector(u.ring, list(u.entries[i]))
        members.append(projection(row))
    return IdempotentSet._proven(members, None, "paraunitary-rows")


def diagonal_set(ring: RingDescriptor, n: int) -> IdempotentSet:
    """The diagonal units E_11 .. E_nn (rule ``diagonal``: E_ii E_jj is
    E_ii for i = j and 0 otherwise, and they sum to I)."""
    members = []
    for i in range(n):
        members.append(
            PolyMatrix(
                ring,
                [[1 if (r == c == i) else 0 for c in range(n)] for r in range(n)],
            )
        )
    return IdempotentSet._proven(members, [f"E{i + 1}{i + 1}" for i in range(n)], "diagonal")


def from_group(
    table: GroupTable,
    ring: RingDescriptor,
    chars: CharacterTable | None = None,
) -> IdempotentSet:
    """Embedded primitive central idempotents of the group ring FG.

    Each idempotent must be symmetric, e* = e, before it is embedded.  Over
    Q(zeta_N) that is a theorem; over F_p the involution is the identity on
    coefficients, so e(chi)* = e(chi) exactly when chi(g^-1) = chi(g), and a
    character that is not self-conjugate there is refused with its name.

    Rule ``group-ring``: the other clauses are proven once, in FG, on the k
    idempotents (:func:`_group_ring_clauses`), and carried to the matrices
    by the embedding w -> E(w), an injective *-homomorphism with
    E(ab) = E(a) E(b), E(a*) = E(a)*, E(1) = I and w's coefficient vector
    as row 1 of E(w).  So e e = e, e f = 0, sum e = 1, e* = e and e != 0
    each hold for the embedded matrices exactly when they hold in FG.  With
    a correct character table every clause holds, so a failure comes from
    a wrong table: :func:`verify_set` then reports the failing clauses of
    the embedded matrices, raised as InternalCheckError.
    """
    if chars is None:
        chars = character_table(table)
    elems = group_ring_idempotents(table, ring, chars)
    for ch, e in zip(chars.characters, elems):
        if e.star() != e:
            raise NotCompleteSet(
                f"e({ch.name}) is not symmetric: character {ch.name} is not "
                f"self-conjugate under the involution of {ring}"
            )
    members = [embed_group_ring(e) for e in elems]
    labels = [f"e({ch.name})" for ch in chars.characters]
    try:
        if _group_ring_clauses(elems):
            return IdempotentSet._proven(members, labels, "group-ring")
        return IdempotentSet(members, labels)
    except NotCompleteSet as exc:
        raise InternalCheckError(f"group-ring idempotents of {table.name}: {exc}") from exc


def _group_ring_clauses(elems) -> bool:
    """Whether symmetric elements e_1 .. e_k of FG are nonzero idempotents
    summing to 1 and pairwise orthogonal.

    In characteristic 0 orthogonality follows from the other clauses.
    Embedded as matrices, an idempotent E is diagonalizable with
    eigenvalues 0 and 1, so trace(E) = rank(E) * 1, and the sum to I gives
    sum_i rank(E_i) * 1 = trace(I) = n * 1, so the ranks sum to n: the
    images of the E_i split F^n directly, and E_i E_j = 0 for i != j (the
    rank argument of :func:`verify_set`).  Over F_p a trace gives the rank
    only mod p, so the products e_i e_j with i < j are formed: for
    symmetric e_i and e_j, e_j e_i = (e_i e_j)*, so they decide every pair.
    """
    first = elems[0]
    # element 0 of a group table is the identity
    one = GroupRingElement(first.table, first.ring, [1] + [0] * (first.table.order - 1))
    if sum(elems[1:], first) != one or any(e.is_zero() or e * e != e for e in elems):
        return False
    if first.ring.kind != PRIME_FIELD:
        return True
    return all(
        (elems[i] * elems[j]).is_zero()
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
    )


def _check_partition(groups, count: int):
    seen = sorted(i for grp in groups for i in grp)
    if seen != list(range(count)) or not all(groups):
        raise NotAPartition(count)


def merge(s: IdempotentSet, groups) -> IdempotentSet:
    """Sum members by a partition of the indices; rank is additive.

    Rule ``merge``, for a proven set: a sum of pairwise orthogonal
    symmetric idempotents is one, it is nonzero (F E_i = E_i for each of
    its summands E_i), sums over disjoint groups are orthogonal, and a
    partition keeps the total at I.
    """
    _check_partition(groups, len(s.members))
    _prove(s)
    members = [combination([1] * len(grp), [s.members[i] for i in grp]) for grp in groups]
    labels = ["+".join(s.labels[i] for i in grp) for grp in groups]
    return IdempotentSet._proven(members, labels, "merge")


def realify(s: IdempotentSet) -> IdempotentSet:
    """Sum complex-conjugate member pairs, keeping self-conjugate members.

    Pairing is by entrywise coefficient conjugation; a member without a
    conjugate partner in the set is an error.  Rule ``realify``, for a
    proven set: each member lands in exactly one output, so the output is a
    merge by a partition (see :func:`merge`).
    """
    _prove(s)
    members = list(s.members)
    used = [False] * len(members)
    out, labels = [], []
    for i, e in enumerate(members):
        if used[i]:
            continue
        used[i] = True
        ebar = e.map_entries(LaurentPoly.conj)
        if ebar == e:
            out.append(e)
            labels.append(s.labels[i])
            continue
        partner = None
        for j in range(i + 1, len(members)):
            if not used[j] and members[j] == ebar:
                partner = j
                break
        if partner is None:
            raise NotCompleteSet(
                f"member {i + 1} has no complex-conjugate partner in the set"
            )
        used[partner] = True
        out.append(e + members[partner])
        labels.append(f"{s.labels[i]}+{s.labels[partner]}")
    return IdempotentSet._proven(out, labels, "realify")


def tensor_sets(s: IdempotentSet, t: IdempotentSet) -> IdempotentSet:
    """All pairwise tensor products, lexicographic in (i, j).

    Rule ``tensor``, for two proven sets: (E (x) F)(E' (x) F') =
    E E' (x) F F', (E (x) F)* = E* (x) F*, the sum is I (x) I = I, and
    E (x) F != 0 since the Laurent ring over a field has no zero divisors.
    Its k members of n x n, k n^2 entries, and the term products that form
    them are held to ``MAX_ENTRIES`` each, checked before any is built.
    """
    if s.ring != t.ring:
        raise IncompatibleRings(f"{s.ring} vs {t.ring}")
    k, n = len(s.members) * len(t.members), s.n * t.n
    terms = [sum(_term_count(m) for m in u.members) for u in (s, t)]
    _check_size(f"the tensor set of {k} members of {n}x{n}", k * n * n, terms[0] * terms[1])
    _prove(s)
    _prove(t)
    members, labels = [], []
    for i, e in enumerate(s.members):
        for j, f in enumerate(t.members):
            members.append(tensor(e, f))
            labels.append(f"{s.labels[i]}x{t.labels[j]}")
    return IdempotentSet._proven(members, labels, "tensor")


def conjugate_set(s: IdempotentSet, p: PolyMatrix) -> IdempotentSet:
    """The set P* E_i P for a paraunitary P.

    Rule ``conjugate``, for a proven set and P proven here: P P* = I and P
    is square, so P* P = I.  Then (P* E_i P)(P* E_j P) = P* E_i E_j P, the
    sum is P* I P = I, each member is symmetric, and P (P* E_i P) P* = E_i
    is nonzero.
    """
    is_paraunitary(p).require(NotParaunitary)
    _prove(s)
    padj = p.adjoint()
    members = [mul(mul(padj, e), p) for e in s.members]
    return IdempotentSet._proven(members, s.labels, "conjugate")


def factor_rank1(p: PolyMatrix) -> PolyMatrix:
    """Column vector v with v v* = P and v* v = 1 for a symmetric rank-1
    idempotent, anchored at the first row whose diagonal entry is nonzero.

    Needs a square root of the anchor diagonal entry in the ring; the sign is
    normalized so the anchor coordinate of v is not negative.  Any other
    rank, computed by :func:`rank`, is refused.

    The premises prove v, which is not checked.  For the anchor a, a root
    r of P_aa and v_j = conj(P_aj) / r = P_ja / r (P* = P; a sign flip
    changes nothing), rank 1 gives P_ij P_aa = P_ia P_aj, so
    (v v*)_ij = P_ia P_aj / (r conj(r)) = P_ij P_aa / (r conj(r)) and
    v* v = (P P)_aa / (r conj(r)) = P_aa / (r conj(r)).  Both need only
    r conj(r) = P_aa.  Over F_p conj is the identity, so r conj(r) = r^2.
    In characteristic 0, P_aa = (P P)_aa = sum_k P_ak conj(P_ak) is totally
    positive (conj is complex conjugation under every embedding), and
    conj(r)^2 = P_aa gives conj(r) = +-r, where -r would make every image
    of P_aa = -r conj(r) negative: ``scalar_sqrt`` returns a root fixed by
    conj, and r conj(r) = r^2 = P_aa.
    """
    if not p.is_scalar:
        raise NotScalar("rank-1 factorization applies to scalar matrices")
    if not all(_member_clauses(p)):
        raise NotCompleteSet("input must be a symmetric idempotent")
    anchor = None
    for i in range(p.rows):
        if not p.entries[i][i].is_zero():
            anchor = i
            break
    if anchor is None:
        raise NotCompleteSet("zero diagonal: input has rank 0")
    r = rank(p)
    if r != 1:
        raise NotCompleteSet(f"input has rank {r}, not 1")
    b = [p.entries[anchor][j].constant_value() for j in range(p.cols)]
    root = scalar_sqrt(b[anchor])  # may raise NoSquareRoot
    inv_root = root.inverse()
    coords = [bj.conj() * inv_root for bj in b]
    if scalar_is_negative(coords[anchor]):
        coords = [-c for c in coords]
    return PolyMatrix.column_vector(p.ring, coords)


def idempotent_inverse(coeffs, iset) -> PolyMatrix:
    """Inverse of sum(a_i E_i) as sum(a_i^-1 E_i); zero coefficients are refused.

    ``iset``, an IdempotentSet or a sequence of matrices, is proven as a
    set (:func:`_prove`; NotCompleteSet if it is none), and then
    (sum a_i E_i)(sum a_i^-1 E_i) = sum E_i = I, either way round.
    """
    s = iset if isinstance(iset, IdempotentSet) else IdempotentSet(iset, check=False)
    if len(coeffs) != len(s.members):
        raise DimensionMismatch("one coefficient per idempotent required")
    scalars = []
    for a in coeffs:
        a = as_scalar(s.ring, a)
        if a.is_zero():
            raise ZeroCoefficient("zero coefficient: the combination is a zero-divisor")
        scalars.append(a)
    _prove(s)
    return combination([a.inverse() for a in scalars], s.members)
