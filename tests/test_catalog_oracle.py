"""Every square matrix and every idempotent set of the catalog, decided by an
oracle outside the package.

The oracle computes its answers with ``json`` and sympy alone: it reads each
``catalog_data/*.json`` file and parses each entry text with sympy, ``^``
read as ``**`` and every name a symbol.  The package is imported only to
give its own verdict, which must equal the oracle's: ``is_paraunitary`` on
``matrix_from_json``'s reading of a matrix, and ``verify_set`` on an
unproven reading of a set (``idemset_from_json(..., check=False)``).  Each
output that passes is changed by +1 in one entry, and then both sides must
say FAIL; a set is also changed by +1 in a member and -1 in another, which
keeps its sum and its symmetry.  Every recorded report must carry the
oracle's verdict on the output its step checked (read from the entry's
``catalog_pipelines/*.json``), and the outputs of ``s3-determinant`` must
satisfy its claim, det(sum c_i E_i) = prod c_i^rank(E_i) with the inverse
sum E_i / c_i, in sympy's exact rationals.

A matrix over R[x^+-1], R one of Q, Q(zeta_N) and F_p, is held as P g^-s:
g runs over its variables and, over Q(zeta_N), over zeta too; s clears
every negative exponent, so P is a matrix of sparse polynomials over Q (over
GF(p) for F_p).  The star of an entry inverts every generator: conj fixes
Q and F_p and sends zeta to zeta^-1.  With d the largest degree of P in each
generator, P~ = g^d P(1/g) is a polynomial and star(P) = P~ g^-d.  Two
polynomials are equal over Q(zeta_N) when their difference is 0 mod
Phi_N(zeta), which is monic in zeta.  So, for an n x n matrix M = P g^-s:

- M M* = I when sum_k P_ik P~_jk = [i = j] g^d for all i, j;

and for the members E_a = P_a g^-s of a set (one s and one d for them all):

- E_a E_b = [a = b] E_a when P_a P_b = [a = b] P_a g^s;
- E_a* = E_a when (P~_a)_ji g^(2s) = (P_a)_ij g^d;
- sum_a E_a = I when sum_a P_a = g^s I.

These are the four clauses of the definition, decided by products: a
different theorem from the package's rank certificate for sets.
"""

import json
import re
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.rings import ring as poly_ring  # noqa: E402

from paraunitary.idempotents import verify_set  # noqa: E402
from paraunitary.polymatrix import is_paraunitary  # noqa: E402
from paraunitary.serialize import idemset_from_json, matrix_from_json  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "paraunitary" / "catalog_data"
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
ZETA = sympy.Symbol("zeta")


def _outputs(kind: str) -> list[tuple[str, dict]]:
    """(id, document) of every catalog output of ``kind``."""
    found = []
    for path in sorted(DATA.glob("*.json")):
        for bind, value in sorted(json.loads(path.read_text())["outputs"].items()):
            if isinstance(value, dict) and value.get("type") == kind:
                found.append((f"{path.stem}:{bind}", value))
    return found


MATRICES = [(key, doc) for key, doc in _outputs("matrix") if doc["rows"] == doc["cols"]]
SETS = _outputs("idempotent_set")
REPORTS = _outputs("report")
PIPELINES = DATA.parent / "catalog_pipelines"


class _Oracle:
    """The sympy side for the matrices of one document, all over one ring."""

    def __init__(self, ring: dict, grids: list[list[list[str]]]):
        texts = {text for grid in grids for row in grid for text in row}
        names = sorted({name for text in texts for name in NAME.findall(text)} - {"zeta"})
        symbols = {name: sympy.Symbol(name) for name in names}
        gens = [symbols[name] for name in names]
        domain = sympy.QQ
        self.phi = None
        if ring["kind"] == "cyclotomic":
            gens.append(ZETA)
            symbols["zeta"] = ZETA
        elif ring["kind"] == "prime_field":
            domain = sympy.GF(ring["p"])
        self.R, *_ = poly_ring(gens, domain)
        if ring["kind"] == "cyclotomic":
            self.phi = self.R.from_expr(sympy.cyclotomic_poly(ring["conductor"], ZETA))
        exprs = {text: sympy.expand(sympy.parse_expr(text.replace("^", "**"), local_dict=symbols)) for text in texts}
        # s: the largest negative exponent of each generator, made positive
        self.s = [0] * len(gens)
        for expr in exprs.values():
            for term in sympy.Add.make_args(expr):
                powers = term.as_powers_dict()
                for i, g in enumerate(gens):
                    self.s[i] = max(self.s[i], -powers.get(g, 0))
        shift = sympy.Mul(*(g**e for g, e in zip(gens, self.s)))
        polys = {text: self.R.from_expr(sympy.expand(expr * shift)) for text, expr in exprs.items()}
        self.grids = [[[polys[text] for text in row] for row in grid] for grid in grids]
        self.d = [0] * len(gens)
        for grid in self.grids:
            for row in grid:
                for f in row:
                    for monom in f.itermonoms():
                        self.d = [max(a, b) for a, b in zip(self.d, monom)]

    def monomial(self, exps):
        """The polynomial g^exps."""
        return self.R({tuple(exps): self.R.domain.one})

    def tilde(self, f):
        """g^d f(1/g): the polynomial of star(f) g^d."""
        return self.R({tuple(d - e for d, e in zip(self.d, monom)): c for monom, c in f.iterterms()})

    def equal(self, f, g) -> bool:
        diff = f - g
        if self.phi is not None:
            diff = diff.rem(self.phi)
        return not diff


def oracle_is_paraunitary(doc: dict) -> bool:
    o = _Oracle(doc["ring"], [doc["entries"]])
    (p,) = o.grids
    n = len(p)
    tildes = [[o.tilde(f) for f in row] for row in p]
    gd = o.monomial(o.d)
    for i in range(n):
        for j in range(n):
            total = sum((a * b for a, b in zip(p[i], tildes[j])), o.R.zero)
            if not o.equal(total, gd if i == j else o.R.zero):
                return False
    return True


def oracle_is_idempotent_set(doc: dict) -> bool:
    o = _Oracle(doc["ring"], [m["entries"] for m in doc["members"]])
    ps, n = o.grids, len(o.grids[0])
    gs, g2s, gd = o.monomial(o.s), o.monomial([2 * e for e in o.s]), o.monomial(o.d)
    zero = o.R.zero
    for i in range(n):  # the sum
        for j in range(n):
            total = sum((p[i][j] for p in ps), zero)
            if not o.equal(total, gs if i == j else zero):
                return False
    for p in ps:  # E* = E
        for i in range(n):
            for j in range(n):
                if not o.equal(o.tilde(p[j][i]) * g2s, p[i][j] * gd):
                    return False
    for a, pa in enumerate(ps):  # E_a E_b = [a = b] E_a
        for b, pb in enumerate(ps):
            for i in range(n):
                for j in range(n):
                    total = sum((pa[i][k] * pb[k][j] for k in range(n)), zero)
                    if not o.equal(total, pa[i][j] * gs if a == b else zero):
                        return False
    return True


def _plus(grid: list[list[str]], c: int = 1) -> list[list[str]]:
    """The grid with ``c`` added to entry (1, 1)."""
    rows = [list(row) for row in grid]
    rows[0][0] = f"({rows[0][0]}) + {c}"
    return rows


def test_every_square_matrix_set_and_report_of_the_catalog_is_decided():
    assert (len(MATRICES), len(SETS), len(REPORTS)) == (55, 42, 28)


@pytest.mark.parametrize("doc", [doc for _, doc in MATRICES], ids=[key for key, _ in MATRICES])
def test_the_oracle_decides_m_m_star_as_is_paraunitary_does(doc):
    verdict = oracle_is_paraunitary(doc)
    assert is_paraunitary(matrix_from_json(doc)).ok == verdict
    if verdict:
        bad = {**doc, "entries": _plus(doc["entries"])}
        assert (oracle_is_paraunitary(bad), is_paraunitary(matrix_from_json(bad)).ok) == (False, False)


@pytest.mark.parametrize("doc", [doc for _, doc in SETS], ids=[key for key, _ in SETS])
def test_the_oracle_decides_the_four_clauses_as_verify_set_does(doc):
    verdict = oracle_is_idempotent_set(doc)
    assert verify_set(idemset_from_json(doc, check=False)).ok == verdict
    if verdict:
        # +1 on member 1 breaks the sum; +1 on member 1 and -1 on member 2
        # keep the sum and the symmetry, and break the products
        for moved in ([(0, 1)], [(0, 1), (1, -1)]):
            members = [dict(m) for m in doc["members"]]
            for a, c in moved:
                members[a]["entries"] = _plus(members[a]["entries"], c)
            bad = {**doc, "members": members}
            assert (oracle_is_idempotent_set(bad), verify_set(idemset_from_json(bad, check=False)).ok) == (False, False)


def _checked_document(key: str) -> tuple[str, dict]:
    """The op of the catalog step that bound the report ``key`` and the
    output document it checked, read from the entry's pipeline."""
    entry, bind = key.split(":")
    steps = json.loads((PIPELINES / f"{entry}.json").read_text())["steps"]
    (step,) = [step for step in steps if step["bind"] == bind]
    (ref,) = [value for value in step.values() if isinstance(value, str) and value.startswith("$")]
    return step["op"], json.loads((DATA / f"{entry}.json").read_text())["outputs"][ref[1:]]


@pytest.mark.parametrize("key,report", REPORTS, ids=[key for key, _ in REPORTS])
def test_the_oracle_decides_every_recorded_report(key, report):
    op, doc = _checked_document(key)
    kind, oracle = {
        "verify_paraunitary": ("paraunitary", oracle_is_paraunitary),
        "verify_idemset": ("idempotent-set", oracle_is_idempotent_set),
    }[op]
    verdict = oracle(doc)
    assert (report["kind"], report["ok"], report["failures"] == []) == (kind, verdict, verdict)


def test_the_oracle_proves_the_s3_determinant_claim():
    # det(sum c_i E_i) = prod c_i^rank(E_i) for a complete set of orthogonal
    # idempotents, and its inverse is sum E_i / c_i: with the ranks 1, 1
    # and 4 of the set of S_3, det(2 E_1 + 3 E_2 + 5 E_3) = 2 * 3 * 5^4
    steps = json.loads((PIPELINES / "s3-determinant.json").read_text())["steps"]
    outputs = json.loads((DATA / "s3-determinant.json").read_text())["outputs"]

    def matrix(doc):
        return sympy.Matrix([[sympy.Rational(sympy.sympify(text)) for text in row] for row in doc["entries"]])

    (coeffs,) = [[sympy.Rational(c) for c in step["coeffs"]] for step in steps if step["op"] == "combine"]
    members = [matrix(m) for m in outputs["set"]["members"]]
    a, inverse = matrix(outputs["A"]), matrix(outputs["Ainv"])
    ranks = [e.rank() for e in members]
    assert ranks == [1, 1, 4]
    assert a == sum((c * e for c, e in zip(coeffs, members)), sympy.zeros(6, 6))
    claimed = sympy.Mul(*(c**r for c, r in zip(coeffs, ranks)))
    assert a.det() == claimed == sympy.Rational(outputs["det"]["poly"]) == 3750
    assert inverse == sum((e / c for c, e in zip(coeffs, members)), sympy.zeros(6, 6))
    assert a * inverse == sympy.eye(6)
