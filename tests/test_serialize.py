"""Round-trip tests for the JSON formats."""

import pytest

from _fixtures import F5_SET, P1, laurent_p1
from paraunitary.cli import main
from paraunitary.errors import ParseError
from paraunitary.groups import symmetric_3
from paraunitary.idempotents import IdempotentSet, diagonal_set, from_group
from paraunitary.serialize import (
    dumps,
    grouptable_from_json,
    grouptable_to_json,
    idemset_from_json,
    idemset_to_json,
    matrix_from_json,
    matrix_to_json,
)


def test_matrix_roundtrip():
    for m in (P1, laurent_p1(), F5_SET[0]):
        doc = matrix_to_json(m)
        back = matrix_from_json(doc)
        assert back == m
        assert dumps(matrix_to_json(back)) == dumps(doc)


def test_idemset_roundtrip():
    for s in (diagonal_set(P1.ring, 3), from_group(symmetric_3(), P1.ring), IdempotentSet(F5_SET)):
        doc = idemset_to_json(s)
        back = idemset_from_json(doc)
        assert back == s
        assert back.labels == s.labels
        assert dumps(idemset_to_json(back)) == dumps(doc)


def test_grouptable_roundtrip():
    t = symmetric_3()
    back = grouptable_from_json(grouptable_to_json(t))
    assert back == t


def test_bad_documents_rejected():
    with pytest.raises(ParseError):
        matrix_from_json({"ring": {"kind": "rational"}})
    with pytest.raises(ParseError):
        matrix_from_json({"ring": {"kind": "nope"}, "entries": [["1"]]})
    doc = matrix_to_json(P1)
    doc["rows"] = 5
    with pytest.raises(ParseError):
        matrix_from_json(doc)


def test_a_set_document_must_declare_the_ring_of_its_members(tmp_path, capsys):
    doc = idemset_to_json(IdempotentSet(F5_SET))
    for ring, message in (
        ({"kind": "rational"}, "declared set ring Q does not match the members' ring F_5"),
        ({"kind": "prime_field", "p": 7}, "declared set ring F_7 does not match the members' ring F_5"),
        ({"kind": "bogus"}, "bad ring descriptor {'kind': 'bogus'}"),
        (None, "bad idempotent-set JSON: 'ring'"),
    ):
        bad = {k: v for k, v in doc.items() if k != "ring"}
        if ring is not None:
            bad["ring"] = ring
        with pytest.raises(ParseError) as exc:
            idemset_from_json(bad, check=False)
        assert str(exc.value) == message
        path = tmp_path / "set.json"
        path.write_text(dumps(bad))
        assert main(["verify", str(path), "--mode", "idemset"]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_a_matrix_document_must_declare_the_variables_its_entries_use(tmp_path, capsys):
    x = {"ring": {"kind": "rational"}, "rows": 1, "cols": 1, "entries": [["x"]]}
    assert matrix_from_json({**x, "vars": ["x"]}) == matrix_from_json(x)
    for vars, shown in (
        (["q", "r"], '["q", "r"]'),
        (7, "7"),
        ([], "[]"),
        (["x", "y"], '["x", "y"]'),
        ("x", '"x"'),
    ):
        message = f'declared matrix vars {shown} do not match the variables the entries use, ["x"]'
        with pytest.raises(ParseError) as exc:
            matrix_from_json({**x, "vars": vars})
        assert str(exc.value) == message
        path = tmp_path / "m.json"
        path.write_text(dumps({**x, "vars": vars}))
        assert main(["verify", str(path), "--mode", "paraunitary"]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
    # a set member is a matrix document, and is held to the same rule
    doc = idemset_to_json(IdempotentSet(F5_SET))
    doc["members"][1]["vars"] = ["z"]
    with pytest.raises(ParseError) as exc:
        idemset_from_json(doc)
    assert str(exc.value) == 'declared matrix vars ["z"] do not match the variables the entries use, []'
