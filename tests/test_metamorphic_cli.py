"""Metamorphic properties of the CLI on the frozen catalog documents.

``tests/test_cli_fuzz.py`` asserts that every command exits 0, 1 or 2 with
no traceback; a check that wrongly answers PASS passes that.  Here each
relation ties two runs of ``cli.main`` together on their text, so a wrong
verdict on either side shows.  P is a random signed permutation or a
diagonal of unit monomials c x^e with |c| = 1, paraunitary by construction
(P P* = P* P = I), and M is a square frozen output of at most 9x9:

- ``verify --mode paraunitary`` gives P M the verdict of M;
- ``det`` of P M is det(P) det(M);
- ``rank`` of P M is the rank of M, for a scalar P;
- ``verify --mode idemset`` gives {P* E_i P} the verdict and the failure
  lines of {E_i}: each clause (E = E*, E E = E, E_i E_j = 0, sum E = I)
  holds for one set exactly when it holds for the other;
- and each stays so on a perturbed copy, which FAILs: a row of M set to
  zero or replaced by another row (either way M becomes singular; a
  doubled row would keep its norm over F_3), or a member of the set
  doubled (4 E = 2 E only for E = 0) or replaced by another member (E E =
  E is not 0).

Hypothesis runs derandomized (the profile in ``conftest.py``).  The whole
file takes about 5 s.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paraunitary.catalog import catalog_ids, expected_outputs  # noqa: E402
from paraunitary.cli import main  # noqa: E402
from paraunitary.idempotents import IdempotentSet  # noqa: E402
from paraunitary.laurent import LaurentPoly, poly_from_text  # noqa: E402
from paraunitary.polymatrix import PolyMatrix, mul  # noqa: E402
from paraunitary.scalars import CYCLOTOMIC, as_scalar, zeta  # noqa: E402
from paraunitary.serialize import dumps, idemset_from_json, idemset_to_json, matrix_from_json, matrix_to_json  # noqa: E402

MAX_N = 9


def _frozen(kind: str) -> list[tuple[str, dict]]:
    """``(entry:name, document)`` of every frozen matrix (square, at most
    MAX_N rows) or idempotent set (of at most MAX_N x MAX_N members)."""
    out = []
    for entry_id in catalog_ids():
        for name, doc in expected_outputs(entry_id).items():
            if not isinstance(doc, dict) or doc.get("type") != kind:
                continue
            doc = {k: v for k, v in doc.items() if k != "type"}
            n = doc["n"] if kind == "idempotent_set" else doc["rows"]
            if n <= MAX_N and (kind == "idempotent_set" or doc["cols"] == n):
                out.append((f"{entry_id}:{name}", doc))
    return out


MATRICES = _frozen("matrix")
SETS = _frozen("idempotent_set")
SCALAR_MATRICES = [(name, doc) for name, doc in MATRICES if not doc["vars"]]


def _cli(tmp, doc: dict, *argv) -> tuple[int, str]:
    """(exit code, stdout) of ``cli.main`` on ``doc`` written to a file;
    ``{}`` in ``argv`` stands for its path."""
    path = tmp / "doc.json"
    path.write_text(dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "{}" else a for a in argv])
    assert code in (0, 1), (argv, code, err.getvalue())
    return code, out.getvalue()


@st.composite
def unitary(draw, ring, n: int, scalar: bool = False) -> PolyMatrix:
    """A paraunitary n x n matrix over ``ring``: a signed permutation, or a
    diagonal of unit monomials (unit scalars when ``scalar``)."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        return PolyMatrix(ring, [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)])
    cells = []
    for _ in range(n):
        if ring.kind == CYCLOTOMIC:
            c = zeta(ring, draw(st.integers(0, ring.conductor - 1)))
        else:
            c = as_scalar(ring, draw(st.sampled_from((1, -1))))
        exps = {} if scalar else draw(st.dictionaries(st.sampled_from(("z", "t")), st.integers(-2, 2), max_size=2))
        cells.append(LaurentPoly.monomial(c, exps, ring))
    return PolyMatrix.diagonal(ring, cells)


@st.composite
def perturbed(draw, items: list, change) -> list:
    """``items`` with one of them changed by ``change``, or replaced by another one."""
    i = draw(st.integers(0, len(items) - 1))
    j = draw(st.integers(0, len(items) - 1))
    if i == j:
        return [change(x) if k == i else x for k, x in enumerate(items)]
    return [items[j] if k == i else x for k, x in enumerate(items)]


@settings(max_examples=150)
@given(data=st.data())
def test_a_paraunitary_factor_keeps_the_paraunitary_verdict(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("verify")
    _, doc = data.draw(st.sampled_from(MATRICES))
    m = matrix_from_json(doc)
    p = data.draw(unitary(m.ring, m.rows))
    code, out = _cli(tmp, doc, "verify", "{}", "--mode", "paraunitary")
    code_pm, out_pm = _cli(tmp, matrix_to_json(mul(p, m)), "verify", "{}", "--mode", "paraunitary")
    assert (code_pm, out_pm.splitlines()[0]) == (code, out.splitlines()[0])
    bad = PolyMatrix(m.ring, data.draw(perturbed(list(m.entries), lambda row: [0] * len(row))))
    for matrix in (bad, mul(p, bad)):
        code, out = _cli(tmp, matrix_to_json(matrix), "verify", "{}", "--mode", "paraunitary")
        assert (code, out.splitlines()[0]) == (1, "paraunitary: FAIL")


@settings(max_examples=60)
@given(data=st.data())
def test_the_determinant_of_a_product_is_the_product_of_the_determinants(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("det")
    _, doc = data.draw(st.sampled_from(MATRICES))
    m = matrix_from_json(doc)
    p = data.draw(unitary(m.ring, m.rows))
    dets = [
        poly_from_text(_cli(tmp, matrix_to_json(x), "det", "--matrix", "{}")[1].strip(), m.ring)
        for x in (p, m, mul(p, m))
    ]
    assert dets[2] == dets[0] * dets[1]


@settings(max_examples=80)
@given(data=st.data())
def test_a_scalar_paraunitary_factor_keeps_the_rank(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("rank")
    _, doc = data.draw(st.sampled_from(SCALAR_MATRICES))
    m = matrix_from_json(doc)
    p = data.draw(unitary(m.ring, m.rows, scalar=True))
    ranks = [
        json.loads(_cli(tmp, matrix_to_json(x), "rank", "--matrix", "{}", "--format", "json")[1])["rank"]
        for x in (m, mul(p, m))
    ]
    assert ranks[1] == ranks[0]


@settings(max_examples=80)
@given(data=st.data())
def test_a_conjugated_set_keeps_the_verdict_and_the_failure_lines(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("idemset")
    _, doc = data.draw(st.sampled_from(SETS))
    s = idemset_from_json(doc, check=False)
    p = data.draw(unitary(s.ring, s.n))
    star = p.adjoint()
    for members, verdict in ((s.members, 0), (data.draw(perturbed(list(s.members), lambda e: 2 * e)), 1)):
        conjugated = [mul(mul(star, e), p) for e in members]
        runs = [
            _cli(tmp, idemset_to_json(IdempotentSet(ms, s.labels, check=False)), "verify", "{}", "--mode", "idemset")
            for ms in (members, conjugated)
        ]
        assert runs[0][0] == verdict
        assert runs[1] == runs[0]
