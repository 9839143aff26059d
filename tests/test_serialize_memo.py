"""The matrix reader's and writer's per-document memo, checked against
parsing and printing entry by entry: on every frozen catalog document, on
hypothesis matrices with repeated entries, and on non-string entries."""

import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import paraunitary  # noqa: E402
from _fixtures import P1  # noqa: E402
from paraunitary.cli import main  # noqa: E402
from paraunitary.idempotents import IdempotentSet, diagonal_set  # noqa: E402
from paraunitary.laurent import LaurentPoly, poly_from_text, poly_to_text  # noqa: E402
from paraunitary.polymatrix import PolyMatrix  # noqa: E402
from paraunitary.scalars import QQ, RingDescriptor  # noqa: E402
from paraunitary.serialize import (  # noqa: E402
    dumps,
    idemset_from_json,
    idemset_to_json,
    matrix_from_json,
    matrix_to_json,
)


CATALOG_DATA = Path(paraunitary.__file__).parent / "catalog_data"


def _documents(obj):
    """Every matrix and idempotent-set document inside a catalog output."""
    if isinstance(obj, dict):
        if "members" in obj:
            yield "set", obj
        elif "entries" in obj:
            yield "matrix", obj
        else:
            for value in obj.values():
                yield from _documents(value)


def _bare(doc):
    return {k: v for k, v in doc.items() if k != "type"}


def _matrix_entry_by_entry(doc):
    ring = RingDescriptor.from_json(doc["ring"])
    return PolyMatrix(ring, [[poly_from_text(text, ring) for text in row] for row in doc["entries"]])


def _matrix_doc_entry_by_entry(m):
    return {
        "ring": m.ring.to_json(),
        "vars": list(m.vars),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[poly_to_text(e) for e in row] for row in m.entries],
    }


@pytest.mark.parametrize("path", sorted(CATALOG_DATA.glob("*.json")), ids=lambda p: p.stem)
def test_memo_matches_the_entry_by_entry_path_on_every_catalog_document(path):
    outputs = json.loads(path.read_text())["outputs"]
    docs = [d for value in outputs.values() for d in _documents(value)]
    assert docs
    for kind, doc in docs:
        if kind == "matrix":
            m, ref = matrix_from_json(doc), _matrix_entry_by_entry(doc)
            assert m == ref and m.vars == ref.vars
            text, ref_text = dumps(matrix_to_json(m)), dumps(_matrix_doc_entry_by_entry(ref))
        else:
            s = idemset_from_json(doc)
            refs = [_matrix_entry_by_entry(member) for member in doc["members"]]
            assert list(s.members) == refs
            assert [m.vars for m in s.members] == [m.vars for m in refs]
            text = dumps(idemset_to_json(s))
            ref_text = dumps({
                "ring": doc["ring"],
                "n": s.n,
                "members": [_matrix_doc_entry_by_entry(m) for m in refs],
                "labels": list(s.labels),
            })
        assert text == ref_text
        assert text == dumps(_bare(doc))


_POOL_TERMS = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=4,
)


@given(data=st.data())
@settings(max_examples=60)
def test_memo_on_matrices_with_repeated_entries(data):
    """Equal entries built from term maps in different orders print alike."""
    pool = []
    for terms in data.draw(st.lists(_POOL_TERMS, min_size=1, max_size=3)):
        pool.append(LaurentPoly(QQ, ("x", "y"), terms))
        # the same polynomial, its term map in the reverse order
        pool.append(LaurentPoly(QQ, ("x", "y"), dict(reversed(list(terms.items())))))
    n = data.draw(st.integers(1, 4))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * n, max_size=n * n))
    m = PolyMatrix(QQ, [[pool[picks[i * n + j]] for j in range(n)] for i in range(n)])
    doc = matrix_to_json(m)
    assert doc == _matrix_doc_entry_by_entry(m)
    back = matrix_from_json(doc)
    assert back == m and back.vars == m.vars
    assert back == _matrix_entry_by_entry(doc)
    assert dumps(matrix_to_json(back)) == dumps(doc)
    # A set document (square members, not checked) shares one memo across
    # them.  The renamed copy has the same packed term maps over other
    # variables, so a key without the variables would print it wrongly.
    renamed = PolyMatrix(
        QQ, [[LaurentPoly(QQ, ("u", "v"), e.with_vars(("x", "y")).coefficients()) for e in row] for row in m.entries]
    )
    sdoc = idemset_to_json(IdempotentSet([m, renamed, m], check=False))
    assert sdoc["members"] == [doc, _matrix_doc_entry_by_entry(renamed), doc]
    assert list(idemset_from_json(sdoc, check=False).members) == [m, renamed, m]


@pytest.mark.parametrize("entry", [1, None, ["x"], {"p": "x"}, True])
def test_a_non_string_entry_is_an_input_error_naming_its_place(tmp_path, capsys, entry):
    doc = matrix_to_json(P1)
    doc["entries"][1][0] = entry
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--mode", "paraunitary"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("input error: matrix entry (2,1) must be polynomial text, got ")
    # the same check in a set member
    sdoc = idemset_to_json(diagonal_set(P1.ring, 2))
    sdoc["members"][1]["entries"][0][1] = entry
    path.write_text(json.dumps(sdoc))
    assert main(["verify", str(path), "--mode", "idemset"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "matrix entry (1,2) must be polynomial text" in err


def test_a_row_that_is_not_a_json_list_is_an_input_error_naming_it(tmp_path, capsys):
    # a string row was once read one character per entry: det printed -2
    # for these rows, and the set below read idempotent-set: PASS
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ring": {"kind": "rational"}, "entries": [["1", "2"], "34"]}))
    assert main(["det", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'input error: matrix row 2 must be a JSON list of entries, got "34"\n'
    sdoc = idemset_to_json(diagonal_set(QQ, 2))
    sdoc["members"][0]["entries"] = ["10", "00"]
    sdoc["members"][1]["entries"] = ["00", "01"]
    path.write_text(json.dumps(sdoc))
    assert main(["verify", str(path), "--mode", "idemset"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'input error: matrix row 1 must be a JSON list of entries, got "10"\n'
