"""The benchmark's three workloads, each a seeded, fixed list of verdicts.

A verdict is one public call (or one in-process CLI call) whose outcome is
known before it runs, because the benchmark built its input: a valid
construction must PASS, an input perturbed after it was built must FAIL (or
exit 1), a catalog entry must reproduce its frozen bytes. The expected
outcome never comes from the code under test.

``BUILDERS[name](pkg, seed, rounds, workdir)`` returns the verdict list. Each
workload's round has a fixed composition, so the mix of sizes and verdict
kinds is the same for every seed; the seed picks the content (bases, phases,
exponents, coefficients, perturbed entries) and the order.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


@dataclass
class Verdict:
    id: str
    kind: str
    expected: Any
    run: Callable[[], Any]


def _modules(pkg):
    """The package's submodules, resolved from the freshly imported package."""
    names = ("scalars", "laurent", "polymatrix", "idempotents", "constructors",
             "groups", "cli", "catalog")
    return {n: importlib.import_module(f"{pkg.__name__}.{n}") for n in names}


def _perturb(M, ring, m, i, j):
    """m + e_ij, with M the polymatrix module. When column j of m has a
    nonzero entry in a row k != i, this breaks m m* = I: entry (k, i) of the
    product gains m_kj, which is nonzero in the Laurent ring (a domain)."""
    delta = [[1 if (r, c) == (i, j) else 0 for c in range(m.cols)] for r in range(m.rows)]
    return m + M.PolyMatrix(ring, delta)


# --- tangle_z8 -------------------------------------------------------------

# Fixed row-mixing schedules: every seed gives the same sparsity, so each size
# class costs about the same on every seed.
Z8_MIX = {2: [(0, 1)], 3: [(0, 1), (1, 2)], 4: [(0, 1), (2, 3), (0, 2)]}
Z8_MONOMIALS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]
# One round: pairs per size n over Q(zeta_8) at 2:4:1, plus one F_7 pair,
# 200 verdicts. By count the n=2 and F_7 verdicts with the 8 builds (80) sit
# below the median, the n=3 verdicts (96) hold it, and the n=4 verdicts hold
# the top 12%, so p50 and p95 each fall inside one size class.
TANGLE_ROUND = [("z8", 2)] * 2 + [("z8", 3)] * 4 + [("z8", 4)] + [("f7", 3)]
TANGLE_PERTURBED_PER_PAIR = 4  # of the 24 variants: one verdict in six


def _z8_unitary_rows(mods, ring, rng, n):
    S = mods["scalars"]
    zero = S.ExactScalar.from_rational(ring, 0)
    rows = [[S.one(ring) if i == j else zero for j in range(n)] for i in range(n)]
    half_root2 = S.sqrt2(ring).inverse()
    for i, j in Z8_MIX[n]:
        phase = S.zeta(ring, rng.randrange(8))
        a, b = rows[i], rows[j]
        rows[i] = [(x + phase * y) * half_root2 for x, y in zip(a, b)]
        rows[j] = [(x - phase * y) * half_root2 for x, y in zip(a, b)]
    order = list(range(n))
    rng.shuffle(order)
    out = []
    for p in order:
        phase = S.zeta(ring, rng.randrange(8))
        out.append([phase * x for x in rows[p]])
    return out


def _orthogonal_basis_mod_p(rng, p, n):
    """Pairwise-orthogonal vectors over F_p with nonzero self products."""
    vectors = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    dot = lambda u, w: sum(a * b for a, b in zip(u, w)) % p  # noqa: E731
    while True:
        rng.shuffle(vectors)
        basis = []
        for v in vectors:
            if dot(v, v) and all(dot(v, w) == 0 for w in basis):
                basis.append(v)
                if len(basis) == n:
                    return [list(v) for v in basis]


def _tangle_pair_inputs(mods, rng, field, n):
    """Two idempotent sets and monomial assignments for one tangle pair."""
    S, I, C = mods["scalars"], mods["idempotents"], mods["constructors"]
    out = []
    if field == "z8":
        ring = S.cyclotomic(8)
        for _ in range(2):
            s = I.from_orthonormal_basis(ring, _z8_unitary_rows(mods, ring, rng, n))
            coeffs = [S.zeta(ring, rng.randrange(8)) for _ in range(n)]
            exps = [dict(zip("uvw", e)) for e in rng.sample(Z8_MONOMIALS, n)]
            out.append((s, C.MonomialAssignment.build(ring, coeffs, exps)))
    else:
        ring = S.prime_field(7)
        for names in ("xyz", "trs"):
            s = I.from_orthogonal_basis_finite(ring, _orthogonal_basis_mod_p(rng, 7, n))
            coeffs = [rng.choice((1, 6)) for _ in range(n)]
            exps = [{v: 1} for v in rng.sample(names, n)]
            out.append((s, C.MonomialAssignment.build(ring, coeffs, exps)))
    return ring, out


def build_tangle_z8(pkg, seed, rounds, workdir):
    mods = _modules(pkg)
    C, M = mods["constructors"], mods["polymatrix"]
    rng = random.Random(f"tangle_z8:{seed}")
    variants = C.all_tangle_variants()
    schedule = TANGLE_ROUND * rounds
    rng.shuffle(schedule)
    verdicts = []
    for p, (field, n) in enumerate(schedule):
        ring, ((sa, wa), (sb, wb)) = _tangle_pair_inputs(mods, rng, field, n)
        pair = {}

        def build_pair(pair=pair, sa=sa, wa=wa, sb=sb, wb=wb):
            pair["a"] = C.monomial_sum(sa, wa)
            pair["b"] = C.monomial_sum(sb, wb)
            return "PASS"

        verdicts.append(Verdict(f"p{p}-{field}-n{n}-build", f"build-n{n}", "PASS", build_pair))
        perturbed = set(rng.sample(range(len(variants)), TANGLE_PERTURBED_PER_PAIR))
        for v, variant in enumerate(variants):
            # every column of a tangle holds a nonzero entry of X (or Y) twice,
            # so any (i, j) gives a provable failure
            spot = (rng.randrange(2 * n), rng.randrange(2 * n)) if v in perturbed else None

            def check(pair=pair, variant=variant, spot=spot, ring=ring):
                w = C.tangle(pair["a"], pair["b"], variant)
                if spot is not None:
                    w = _perturb(M, ring, w, *spot)
                return "PASS" if M.is_paraunitary(w).ok else "FAIL"

            verdicts.append(Verdict(
                f"p{p}-{field}-n{n}-v{v}", f"tangle-n{n}" + ("-perturbed" if spot else ""),
                "PASS" if spot is None else "FAIL", check,
            ))
    return verdicts


# --- sets_mixed ------------------------------------------------------------

PYTHAGOREAN = [(3, 4, 5), (5, 12, 13)]


def _rational_orthonormal_rows(rng, n):
    """Rows of a rational orthogonal matrix: rotations on seeded disjoint
    coordinate pairs, then a seeded signed permutation. The rotation angles
    are fixed, so the entries' sizes (and the cost) do not depend on the seed."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    idx = list(range(n))
    rng.shuffle(idx)
    for k, (i, j) in enumerate(zip(idx[0::2], idx[1::2])):
        a, b, c = PYTHAGOREAN[k]
        ca, sb = Fraction(a, c), Fraction(b, c)
        ri, rj = rows[i], rows[j]
        rows[i] = [ca * x + sb * y for x, y in zip(ri, rj)]
        rows[j] = [-sb * x + ca * y for x, y in zip(ri, rj)]
    rng.shuffle(rows)
    signs = [rng.choice((1, -1)) for _ in rows]
    return [[x * sign for x in r] for r, sign in zip(rows, signs)]


def _partition(rng, sizes):
    idx = list(range(sum(sizes)))
    rng.shuffle(idx)
    out, k = [], 0
    for s in sizes:
        out.append(sorted(idx[k:k + s]))
        k += s
    return out


@dataclass
class SetCase:
    """One seeded idempotent set: how to build it and what it must satisfy."""

    name: str
    ring: Any
    construct: Callable[[], Any]
    ranks: list[int] | None  # None: read pairs off realify's "a+b" labels
    det_coeffs: list  # one (q, t) per member: c_i = q * z^t
    oracle: bool  # also check determinant_cofactor (n <= 6)
    wrong: str | None  # "rank" or "det": the known-false claim this case carries
    group: Any = None  # group table for the *-homomorphism check
    laurent: bool = False  # Laurent members: rank() does not apply


def _set_cases(mods, rng):
    """The fixed schedule of one sets_mixed round, with seeded content.

    Every set gets a perturbed copy; seven of the fourteen also carry a
    known-false rank or determinant claim, so about one verdict in four is
    expected to FAIL."""
    S, I, G, M, C = (mods[k] for k in ("scalars", "idempotents", "groups", "polymatrix", "constructors"))
    QQ, F5, F7 = S.QQ, S.prime_field(5), S.prime_field(7)
    Z3, Z4, Z6, Z8 = S.cyclotomic(3), S.cyclotomic(4), S.cyclotomic(6), S.cyclotomic(8)

    def coeffs(ring, k):
        if ring.kind == "prime_field":
            return [(rng.randrange(1, ring.p), rng.randrange(3)) for _ in range(k)]
        return [(Fraction(rng.choice((1, -1)) * rng.randrange(1, 4), rng.randrange(1, 3)),
                 rng.randrange(3)) for _ in range(k)]

    cases = []

    # orthonormal basis over Q, grouped 2+1+1
    rows = _rational_orthonormal_rows(rng, 4)
    groups = _partition(rng, [2, 1, 1])
    cases.append(SetCase("basis-q4", QQ, lambda: I.from_orthonormal_basis(QQ, rows, groups),
                         [len(g) for g in groups], coeffs(QQ, 3), True, "rank"))

    # orthonormal basis over Q(zeta_8), grouped 1+2
    zrows = _z8_unitary_rows(mods, Z8, rng, 3)
    zgroups = _partition(rng, [1, 2])
    cases.append(SetCase("basis-z8", Z8, lambda: I.from_orthonormal_basis(Z8, zrows, zgroups),
                         [len(g) for g in zgroups], coeffs(Z8, 2), True, None))

    # group families; rank of e_chi in the regular representation is dim(chi)^2
    for name, family, order, ring, wrong in (
        ("group-c4-z4", "cyclic", 4, Z4, None),
        ("group-s3-f7", "s3", None, F7, "det"),
        ("group-d8-q", "dihedral", 8, QQ, None),
        ("group-c2k4-f5", "c2k", 4, F5, None),
    ):
        table = G.builtin_group(family, order)
        dims = [ch.dim ** 2 for ch in G.character_table(table).characters]
        cases.append(SetCase(name, ring, lambda t=table, r=ring: I.from_group(t, r), dims,
                             coeffs(ring, len(dims)), table.order <= 6, wrong, group=table))

    cases.append(SetCase("diagonal-f5", F5, lambda: I.diagonal_set(F5, 5), [1] * 5,
                         coeffs(F5, 5), True, "rank"))

    # merge of the C6 group set over Q(zeta_6) into 3+2+1
    c6 = G.builtin_group("cyclic", 6)
    mgroups = _partition(rng, [3, 2, 1])
    cases.append(SetCase("merge-c6-z6", Z6, lambda: I.merge(I.from_group(c6, Z6), mgroups),
                         [len(g) for g in mgroups], coeffs(Z6, 3), True, "det"))

    # conjugation of a grouped rational basis set by a rational orthogonal P
    base_rows = _rational_orthonormal_rows(rng, 4)
    cgroups = _partition(rng, [1, 3])
    p_rows = _rational_orthonormal_rows(rng, 4)
    cases.append(SetCase(
        "conjugate-q4", QQ,
        lambda: I.conjugate_set(I.from_orthonormal_basis(QQ, base_rows, cgroups), M.PolyMatrix(QQ, p_rows)),
        [len(g) for g in cgroups], coeffs(QQ, 2), True, None))

    # tensor of a 2x2 rational basis set and the C3 set over Q(zeta_3)
    two = _rational_orthonormal_rows(rng, 2)
    c3 = G.builtin_group("cyclic", 3)
    cases.append(SetCase(
        "tensor-z3", Z3,
        lambda: I.tensor_sets(I.from_orthonormal_basis(Z3, two), I.from_group(c3, Z3)),
        [1] * 6, coeffs(Z3, 6), True, None))

    # realification of C4 over Q(zeta_4): the conjugate pair a, a^3 merges
    def realified():
        return I.realify(I.from_group(G.builtin_group("cyclic", 4), Z4))

    cases.append(SetCase("realify-c4-z4", Z4, realified, None, coeffs(Z4, 3), True, "rank"))

    # rank-1 Laurent idempotents from the rows of a paraunitary monomial sum
    urows = _rational_orthonormal_rows(rng, 3)
    u_exps = [{"x": e} for e in rng.sample(range(3), 3)]

    def rows_set():
        u = C.monomial_sum(I.from_orthonormal_basis(QQ, urows), C.MonomialAssignment.build(QQ, [1, 1, 1], u_exps))
        return I.from_matrix_rows(u)

    cases.append(SetCase("rows-q3", QQ, rows_set, [1, 1, 1], coeffs(QQ, 3), False, "det", laurent=True))

    # orthogonal bases over F_7 (n=3) and F_5 (n=4)
    for name, ring, n, wrong in (("finite-f7", F7, 3, None), ("finite-f5", F5, 4, "det")):
        vecs = _orthogonal_basis_mod_p(rng, ring.p, n)
        cases.append(SetCase(name, ring, lambda r=ring, v=vecs: I.from_orthogonal_basis_finite(r, v),
                             [1] * n, coeffs(ring, n), True, wrong))
    return cases


def _det_claim(L, S, ring, det_coeffs, ranks, off_by_one=False):
    """prod c_i^rank_i for c_i = q_i z^t_i, computed in plain Python."""
    q, e = Fraction(1), 0
    for (qi, ti), r in zip(det_coeffs, ranks):
        q *= Fraction(qi) ** r
        e += ti * r
    if ring.kind == "prime_field":
        q = Fraction(q.numerator % ring.p)
    return L.LaurentPoly.monomial(S.ExactScalar.from_rational(ring, q), {"z": e + int(off_by_one)}, ring)


def _case_verdicts(mods, rng, c, prefix):
    S, L, I, M, G = (mods[k] for k in ("scalars", "laurent", "idempotents", "polymatrix", "groups"))
    ring = c.ring
    st = {}
    member = rng.randrange(len(c.det_coeffs))
    spot = (rng.randrange(1 << 20), rng.randrange(1 << 20))

    def construct():
        st["set"] = c.construct()
        return "PASS"

    def verify():
        return "PASS" if I.verify_set(st["set"]).ok else "FAIL"

    def verify_perturbed():
        # adding e_ij to one member breaks "members sum to I"
        s = st["set"]
        members = list(s.members)
        members[member] = _perturb(M, ring, members[member], spot[0] % s.n, spot[1] % s.n)
        return "PASS" if I.verify_set(I.IdempotentSet(members, s.labels, check=False)).ok else "FAIL"

    def claimed_ranks():
        if c.ranks is not None:
            return list(c.ranks)
        return [label.count("+") + 1 for label in st["set"].labels]

    def rank_claim(over=False):
        s = st["set"]
        ranks = claimed_ranks()
        if over:
            ranks[member] += 1
        actual = [M.rank(e) for e in s.members]
        traces_ok = all(M.trace(e) == r for e, r in zip(s.members, actual))
        ok = traces_ok and actual == ranks and sum(ranks) == s.n
        return "PASS" if ok else "FAIL"

    def det_claim(off_by_one=False, oracle=False):
        s = st["set"]
        z = L.LaurentPoly.variable("z", ring)
        m = None
        for e, (q, t) in zip(s.members, c.det_coeffs):
            term = e.scale(z ** t * S.ExactScalar.from_rational(ring, q))
            m = term if m is None else m + term
        claim = _det_claim(L, S, ring, c.det_coeffs, claimed_ranks(), off_by_one)
        det = M.determinant_cofactor(m) if oracle else M.determinant(m)
        return "PASS" if det == claim else "FAIL"

    out = [
        Verdict(f"{prefix}-construct", "construct", "PASS", construct),
        Verdict(f"{prefix}-verify", "verify_set", "PASS", verify),
        Verdict(f"{prefix}-verify-perturbed", "verify_set-perturbed", "FAIL", verify_perturbed),
    ]
    if not c.laurent:
        out.append(Verdict(f"{prefix}-rank", "rank", "PASS", rank_claim))
        if c.wrong == "rank":
            out.append(Verdict(f"{prefix}-rank-overcount", "rank-overcount", "FAIL",
                               lambda: rank_claim(over=True)))
    out.append(Verdict(f"{prefix}-det", "determinant", "PASS", det_claim))
    if c.wrong == "det":
        out.append(Verdict(f"{prefix}-det-wrong", "determinant-wrong", "FAIL",
                           lambda: det_claim(off_by_one=True)))
    if c.oracle:
        out.append(Verdict(f"{prefix}-det-cofactor", "determinant_cofactor", "PASS",
                           lambda: det_claim(oracle=True)))
    if c.group is not None:
        coeffs_a = [rng.randrange(-2, 3) for _ in range(c.group.order)]
        coeffs_b = [rng.randrange(-2, 3) for _ in range(c.group.order)]

        def group_hom():
            # the regular representation is a *-homomorphism of the group ring
            a = G.GroupRingElement(c.group, ring, coeffs_a)
            b = G.GroupRingElement(c.group, ring, coeffs_b)
            ea = G.embed_group_ring(a)
            ok = (G.embed_group_ring(a * b) == M.mul(ea, G.embed_group_ring(b))
                  and G.embed_group_ring(a.star()) == ea.adjoint())
            return "PASS" if ok else "FAIL"

        out.append(Verdict(f"{prefix}-group-hom", "group-hom", "PASS", group_hom))
    return out


def build_sets_mixed(pkg, seed, rounds, workdir):
    mods = _modules(pkg)
    rng = random.Random(f"sets_mixed:{seed}")
    blocks = []
    for r in range(rounds):
        cases = _set_cases(mods, rng)
        for c in cases:
            blocks.append(_case_verdicts(mods, rng, c, f"r{r}-{c.name}"))
    rng.shuffle(blocks)
    return [v for block in blocks for v in block]


# --- catalog_cli -----------------------------------------------------------

CATALOG_PERTURBED_PER_ROUND = 9  # 100 verdicts per round
# Files above this JSON size (the 32x32 tangle W and the two C6 sets) are
# verified but never perturbed: a perturbed copy of one of them would put one
# more slow verdict among the top 5% on some seeds only, and move p95.
PERTURB_MAX_CHARS = 1500


def _cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _perturb_text(rng, doc, mode):
    """Add 1 to one polynomial entry of a matrix or set file, in its text.

    For an idempotent set the members then no longer sum to I. For a
    paraunitary matrix the entry (i, j) is chosen so that column j has a
    nonzero entry in another row k, which makes entry (k, i) of M M* nonzero.
    """
    doc = json.loads(json.dumps(doc))
    if mode == "idemset":
        target = rng.choice(doc["members"])
        i, j = rng.randrange(target["rows"]), rng.randrange(target["cols"])
    else:
        target = doc
        entries = target["entries"]
        spots = [
            (i, j)
            for i in range(target["rows"])
            for j in range(target["cols"])
            if any(entries[k][j] != "0" for k in range(target["rows"]) if k != i)
        ]
        i, j = rng.choice(spots)
    text = target["entries"][i][j]
    target["entries"][i][j] = "1" if text == "0" else f"{text} + 1"
    return doc


def _stratified(rng, candidates, k):
    """k candidates, one from each of k size bands (by JSON length), so that
    every seed perturbs files of the same sizes."""
    ordered = sorted(candidates, key=lambda c: (len(json.dumps(c[2])), c[0]))
    bands = [ordered[i * len(ordered) // k:(i + 1) * len(ordered) // k] for i in range(k)]
    return [rng.choice(band) for band in bands]


def build_catalog_cli(pkg, seed, rounds, workdir):
    mods = _modules(pkg)
    cat, cli = mods["catalog"], mods["cli"]
    rng = random.Random(f"catalog_cli:{seed}")
    data_dir = Path(cat.__file__).parent / "catalog_data"
    workdir.mkdir(parents=True, exist_ok=True)
    first_line = {"idemset": "idempotent-set", "paraunitary": "paraunitary"}

    def verify(path, mode):
        code, out = _cli(cli, ["verify", str(path), "--mode", mode])
        return code, out.split("\n", 1)[0]

    round_verdicts = []  # (id, kind, expected, run) of one round
    candidates = []  # (name, mode, doc) that may be perturbed
    for entry in cat.CATALOG:
        round_verdicts.append((
            f"catalog-{entry.id}", "catalog-run", (0, f"{entry.id}: PASS\n"),
            lambda eid=entry.id: _cli(cli, ["catalog", "run", "--id", eid]),
        ))
        outputs = json.loads((data_dir / f"{entry.id}.json").read_text())["outputs"]
        files = [
            (name, "idemset") for name, obj in outputs.items()
            if isinstance(obj, dict) and obj.get("type") == "idempotent_set"
        ]
        files += [
            (step["matrix"].lstrip("$"), "paraunitary")
            for step in entry.pipeline["steps"]
            if step["op"] == "verify_paraunitary"
        ]
        for name, mode in files:
            doc = outputs[name]
            path = workdir / f"{entry.id}-{name}.json"
            path.write_text(json.dumps(doc))
            round_verdicts.append((
                f"verify-{entry.id}-{name}", f"verify-{mode}", (0, f"{first_line[mode]}: PASS"),
                lambda p=path, m=mode: verify(p, m),
            ))
            if len(json.dumps(doc)) <= PERTURB_MAX_CHARS:
                candidates.append((f"{entry.id}-{name}", mode, doc))

    verdicts = []
    for r in range(rounds):
        block = [Verdict(f"r{r}-{vid}", kind, expected, run) for vid, kind, expected, run in round_verdicts]
        for k, (name, mode, doc) in enumerate(_stratified(rng, candidates, CATALOG_PERTURBED_PER_ROUND)):
            path = workdir / f"perturbed-r{r}-{k}-{name}.json"
            path.write_text(json.dumps(_perturb_text(rng, doc, mode)))
            block.append(Verdict(
                f"r{r}-perturbed-{name}", f"verify-{mode}-perturbed", (1, f"{first_line[mode]}: FAIL"),
                lambda p=path, m=mode: verify(p, m),
            ))
        # no shuffle: in the catalog's fixed order the first use of a lazily
        # built table (a cyclotomic basis, a character table) falls on the
        # same verdict on every seed
        verdicts.extend(block)
    return verdicts


BUILDERS = {
    "tangle_z8": build_tangle_z8,
    "sets_mixed": build_sets_mixed,
    "catalog_cli": build_catalog_cli,
}
