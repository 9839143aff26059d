"""Complete symmetric orthogonal sets of idempotent matrices.

Constructors cover orthonormal bases, orthogonal bases over finite fields,
rows of paraunitary matrices, diagonal units, group rings, tensor products,
conjugation, merging, and conjugate-pair realification, plus the rank-1
factorization P = v v*.  Every constructor re-verifies its output.
"""

from __future__ import annotations

from .errors import (
    IncompatibleRings,
    InternalCheckError,
    IsotropicVector,
    NotAPartition,
    NotCompleteSet,
    NotOrthogonal,
    NotOrthonormal,
    NotParaunitary,
)
from .groups import (
    CharacterTable,
    GroupTable,
    character_table,
    embed_group_ring,
    group_ring_idempotents,
)
from .laurent import LaurentPoly
from .polymatrix import (
    PolyMatrix,
    VerificationReport,
    _gram_upper,
    combination,
    is_paraunitary,
    mul,
    rank,
    tensor,
)
from .scalars import (
    PRIME_FIELD,
    RingDescriptor,
    scalar_sqrt,
    scalar_is_negative,
)


class IdempotentSet:
    """Ordered complete symmetric orthogonal family of idempotent matrices."""

    __slots__ = ("ring", "n", "members", "labels")

    def __init__(self, members, labels=None, check: bool = True):
        members = tuple(members)
        if not members:
            raise NotCompleteSet("empty member list")
        ring = members[0].ring
        n = members[0].rows
        for m in members:
            if m.ring != ring:
                raise IncompatibleRings("members must share one ring")
            if m.rows != n or m.cols != n:
                raise NotCompleteSet("members must be square of one size")
        if labels is None:
            labels = tuple(f"E{i + 1}" for i in range(len(members)))
        else:
            labels = tuple(labels)
            if len(labels) != len(members) or not all(isinstance(x, str) for x in labels):
                raise ValueError("one string label per member required")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "labels", labels)
        if check:
            report = verify_set(self)
            if not report.ok:
                raise NotCompleteSet(report.summary())

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("IdempotentSet is immutable")

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


def verify_set(s: IdempotentSet) -> VerificationReport:
    """Check all four clauses exactly: nonzero idempotents, pairwise
    orthogonality, completeness, and symmetry under the involution.

    One pass computes the sum of the members and each member's clauses
    once: E != 0, E E = E and E* = E.  When all of them hold, the
    certificate of the ring's characteristic decides orthogonality, so a
    passing set is proven in k matrix products instead of k^2.

    The certificate: let E_1 .. E_k be idempotent n x n matrices over a
    field F with E_1 + .. + E_k = I.  Every v in F^n is sum_i E_i v, so
    the images im(E_i) span F^n and sum_i rank(E_i) >= n, with equality
    exactly when the sum of the images is direct.  If it is direct, then
    for each j and v the vector E_j v = E_j E_j v splits as

        E_j v = sum_i E_i (E_j v),  so  0 = sum_{i != j} E_i E_j v

    with the i-th term in im(E_i); directness makes each term zero, so
    E_i E_j = 0 for i != j.  Orthogonality thus follows from
    sum_i rank(E_i) = n, over any field F.  The entries lie in the
    rational-function field F(x, ..) of the scalar field, so the proof
    covers Laurent members too.

    - ``trace-rank``, characteristic 0 (Q and Q(zeta_N)): an idempotent is
      diagonalizable with eigenvalues 0 and 1, so trace(E) = rank(E) * 1,
      and sum_i rank(E_i) * 1 = trace(I) = n * 1 gives sum_i rank(E_i) = n.
      The member clauses and the sum therefore already imply
      orthogonality, and no product or rank is needed.
    - ``rank``, characteristic p (F_p): a trace gives the rank only mod p,
      so the exact ranks over F_p(x, ..) are summed, one :func:`rank` per
      member, for scalar and Laurent members alike.

    Only a failing set has its pairwise products computed, to build the
    report: ``failures`` lists every failing clause in the order of the
    full k^2 check (each member's clauses, then each ordered pair, then
    the sum).  For symmetric E_i and E_j, (E_i E_j)* = E_j* E_i* =
    E_j E_i, so E_i E_j = 0 exactly when E_j E_i = 0: such a pair is
    multiplied once and both of its messages are emitted.
    """
    members = s.members
    k = len(members)
    zero = PolyMatrix.zeros(s.ring, s.n, s.n)
    complete = combination([1] * k, members) == PolyMatrix.identity(s.ring, s.n)
    failures, symmetric = [], []
    for i, e in enumerate(members):
        if e == zero:
            failures.append(f"member {i + 1} is zero")
        if mul(e, e) != e:
            failures.append(f"member {i + 1} is not idempotent")
        symmetric.append(e.adjoint() == e)
        if not symmetric[i]:
            failures.append(f"member {i + 1} is not symmetric")
    if complete and not failures and _orthogonal(s):
        return VerificationReport("idempotent-set", True)
    nonzero = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if j < i and symmetric[i] and symmetric[j]:
                # E_i E_j = (E_j E_i)*, and E_j E_i was multiplied already
                nonzero[i, j] = nonzero[j, i]
            else:
                nonzero[i, j] = mul(members[i], members[j]) != zero
            if nonzero[i, j]:
                failures.append(f"members {i + 1},{j + 1} are not orthogonal")
    if not complete:
        failures.append("members do not sum to the identity")
    return VerificationReport("idempotent-set", not failures, None, failures)


def _orthogonal(s: IdempotentSet) -> bool:
    """Pairwise orthogonality of a set already known to consist of
    symmetric idempotents summing to I (see :func:`verify_set`)."""
    if s.ring.kind != PRIME_FIELD:
        return True
    return sum(rank(e) for e in s.members) == s.n


def _as_row(ring: RingDescriptor, v) -> PolyMatrix:
    if isinstance(v, PolyMatrix):
        if v.rows != 1:
            raise ValueError("row vector expected")
        return v
    return PolyMatrix.row_vector(ring, list(v))


def _gram(ring: RingDescriptor, rows, starred: bool):
    """Entries (i, j, v_i w_j) with i <= j of V V* (``starred``) or V V^T,
    where V stacks the row matrices ``rows``, row by row.

    (V V*)[j][i] is the star of (V V*)[i][j] and V V^T is symmetric, so an
    entry below the diagonal is zero exactly when its mirror is, and the
    first entry in row-major order that breaks orthonormality (or
    orthogonality) always lies in the upper triangle.
    """
    if not rows:
        return
    v = PolyMatrix(ring, [r.entries[0] for r in rows])
    w = [[e.star() for e in row] for row in v.entries] if starred else v.entries
    yield from _gram_upper(v, w)


def orthonormal_rows(ring: RingDescriptor, vectors) -> list[PolyMatrix]:
    """The vectors as row matrices; NotOrthonormal unless v_i v_j* is 1 for
    i = j and 0 otherwise."""
    rows = [_as_row(ring, v) for v in vectors]
    for i, j, prod in _gram(ring, rows, True):
        if not (prod.is_one() if i == j else prod.is_zero()):
            raise NotOrthonormal(f"v_{i + 1} v_{j + 1}* = {prod}")
    return rows


def projection(v: PolyMatrix) -> PolyMatrix:
    """The rank-1 projector v* v of a row vector v."""
    return mul(v.adjoint(), v)


def from_orthonormal_basis(ring: RingDescriptor, vectors, grouping=None, labels=None) -> IdempotentSet:
    """Projectors v* v of orthonormal rows, optionally summed by groups.

    ``grouping`` is a partition of the 0-based vector indices; singletons by
    default.
    """
    projs = [projection(v) for v in orthonormal_rows(ring, vectors)]
    if grouping is None:
        grouping = [[i] for i in range(len(projs))]
    _check_partition(grouping, len(projs))
    members = [combination([1] * len(grp), [projs[i] for i in grp]) for grp in grouping]
    return IdempotentSet(members, labels)


def from_orthogonal_basis_finite(ring: RingDescriptor, vectors, labels=None) -> IdempotentSet:
    """Projectors t_i^-1 v_i^T v_i of a pairwise-orthogonal basis; no square
    roots are needed, but every self inner product t_i must be nonzero."""
    rows = [_as_row(ring, v) for v in vectors]
    norms = []
    for i, j, prod in _gram(ring, rows, False):
        if i == j:
            if prod.is_zero():
                raise IsotropicVector(f"v_{i + 1} has self inner product 0")
            norms.append(prod.constant_value())
        elif not prod.is_zero():
            raise NotOrthogonal(f"v_{i + 1} v_{j + 1}^T = {prod}")
    members = [
        mul(u.transpose(), u).scale(t.inverse()) for u, t in zip(rows, norms)
    ]
    return IdempotentSet(members, labels)


def from_matrix_rows(u: PolyMatrix, labels=None) -> IdempotentSet:
    """Rank-1 Laurent idempotents v_i* v_i from the rows of a paraunitary matrix."""
    report = is_paraunitary(u)
    if not report.ok:
        raise NotParaunitary(report.summary())
    members = []
    for i in range(u.rows):
        row = PolyMatrix.row_vector(u.ring, list(u.entries[i]))
        members.append(projection(row))
    return IdempotentSet(members, labels)


def diagonal_set(ring: RingDescriptor, n: int) -> IdempotentSet:
    """The diagonal units E_11 .. E_nn."""
    members = []
    for i in range(n):
        members.append(
            PolyMatrix(
                ring,
                [[1 if (r == c == i) else 0 for c in range(n)] for r in range(n)],
            )
        )
    return IdempotentSet(members, [f"E{i + 1}{i + 1}" for i in range(n)])


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

    The four clauses are then proven once, on the embedded matrices, by
    :func:`verify_set`.  That proves them in the group ring too: the
    embedding w -> E(w) is an injective *-homomorphism, with
    E(ab) = E(a) E(b), E(a*) = E(a)*, E(1) = I and w's coefficient vector
    as row 1 of E(w).  So e e = e, e f = 0, sum e = 1, e* = e and e != 0
    each hold in FG exactly when they hold for the embedded matrices.  With
    a correct character table every clause holds, so a failure here comes
    from a wrong table and is raised as InternalCheckError.
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
        return IdempotentSet(members, labels)
    except NotCompleteSet as exc:
        raise InternalCheckError(f"group-ring idempotents of {table.name}: {exc}") from exc


def _check_partition(groups, count: int):
    seen = sorted(i for grp in groups for i in grp)
    if seen != list(range(count)) or not all(groups):
        raise NotAPartition(count)


def merge(s: IdempotentSet, groups) -> IdempotentSet:
    """Sum members by a partition of the indices; rank is additive."""
    _check_partition(groups, len(s.members))
    members = [combination([1] * len(grp), [s.members[i] for i in grp]) for grp in groups]
    labels = ["+".join(s.labels[i] for i in grp) for grp in groups]
    return IdempotentSet(members, labels)


def realify(s: IdempotentSet) -> IdempotentSet:
    """Sum complex-conjugate member pairs, keeping self-conjugate members.

    Pairing is by entrywise coefficient conjugation; a member without a
    conjugate partner in the set is an error.
    """
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
    return IdempotentSet(out, labels)


def tensor_sets(s: IdempotentSet, t: IdempotentSet) -> IdempotentSet:
    """All pairwise tensor products, lexicographic in (i, j)."""
    if s.ring != t.ring:
        raise IncompatibleRings(f"{s.ring} vs {t.ring}")
    members, labels = [], []
    for i, e in enumerate(s.members):
        for j, f in enumerate(t.members):
            members.append(tensor(e, f))
            labels.append(f"{s.labels[i]}x{t.labels[j]}")
    return IdempotentSet(members, labels)


def conjugate_set(s: IdempotentSet, p: PolyMatrix) -> IdempotentSet:
    """The set P* E_i P for a paraunitary P."""
    report = is_paraunitary(p)
    if not report.ok:
        raise NotParaunitary(report.summary())
    padj = p.adjoint()
    members = [mul(mul(padj, e), p) for e in s.members]
    return IdempotentSet(members, s.labels)


def factor_rank1(p: PolyMatrix) -> PolyMatrix:
    """Column vector v with v v* = P and v* v = 1 for a symmetric rank-1
    idempotent, anchored at the first row whose diagonal entry is nonzero.

    Needs a square root of the anchor diagonal entry in the ring; the sign is
    normalized so the anchor coordinate of v is not negative.
    """
    if not p.is_scalar:
        raise NotCompleteSet("rank-1 factorization applies to scalar matrices")
    if mul(p, p) != p or p.adjoint() != p:
        raise NotCompleteSet("input must be a symmetric idempotent")
    anchor = None
    for i in range(p.rows):
        if not p.entries[i][i].is_zero():
            anchor = i
            break
    if anchor is None:
        raise NotCompleteSet("zero diagonal: input has rank 0")
    b = [p.entries[anchor][j].constant_value() for j in range(p.cols)]
    root = scalar_sqrt(b[anchor])  # may raise NoSquareRoot
    inv_root = root.inverse()
    coords = [bj.conj() * inv_root for bj in b]
    if scalar_is_negative(coords[anchor]):
        coords = [-c for c in coords]
    v = PolyMatrix.column_vector(p.ring, coords)
    if mul(v, v.adjoint()) != p:
        raise InternalCheckError("rank-1 factorization failed v v* = P")
    norm = mul(v.adjoint(), v).entries[0][0]
    if not norm.is_one():
        raise InternalCheckError("rank-1 factorization failed v* v = 1")
    return v
