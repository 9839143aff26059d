"""The regression catalog must reproduce its frozen expectations byte-exactly."""

import pytest

from _fixtures import (
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
    hadamard_4_complex,
    laurent_p1,
    laurent_p2,
)
from paraunitary.catalog import CATALOG, catalog_ids, entry_matches, get_entry, run_entry
from paraunitary.pipeline import execute_pipeline
from paraunitary.serialize import matrix_to_json


def test_catalog_is_reasonably_large():
    assert len(CATALOG) >= 20
    assert len(set(catalog_ids())) == len(CATALOG)


@pytest.mark.parametrize("entry", CATALOG, ids=catalog_ids())
def test_entry_matches_expected(entry):
    ok, diff = entry_matches(entry)
    assert ok, f"{entry.id} diverged from its frozen expectation:\n{diff}"


def test_catalog_runs_are_deterministic():
    entry = get_entry("tangle-f7")
    assert run_entry(entry) == run_entry(entry)


def _frozen_matrix_docs():
    """Every matrix JSON in the frozen catalog outputs, set members and reports included."""
    from paraunitary.catalog import expected_outputs

    for entry_id in catalog_ids():
        for value in expected_outputs(entry_id).values():
            docs = []
            if isinstance(value, dict) and value.get("type") == "matrix":
                docs.append(value)
            elif isinstance(value, dict) and value.get("type") == "idempotent_set":
                docs.extend(value["members"])
            elif isinstance(value, dict) and value.get("type") == "hadamard_report":
                docs.extend([value["scaled"], value["cleared"]])
            for doc in docs:
                yield {k: v for k, v in doc.items() if k != "type"}


def test_every_frozen_matrix_round_trips():
    from paraunitary.serialize import dumps, matrix_from_json

    seen = 0
    for clean in _frozen_matrix_docs():
        back = matrix_to_json(matrix_from_json(clean))
        assert dumps(back) == dumps(clean)
        seen += 1
    assert seen > 80


def test_every_frozen_matrix_reads_the_same_without_spaces():
    # hand-written text such as "z^2-1" reads like the canonical "z^2 - 1"
    from paraunitary.serialize import matrix_from_json

    for clean in _frozen_matrix_docs():
        squeezed = dict(clean, entries=[[e.replace(" ", "") for e in row] for row in clean["entries"]])
        assert matrix_from_json(squeezed) == matrix_from_json(clean)


def _members(entry_id, bind="set"):
    env = execute_pipeline(get_entry(entry_id).pipeline)
    return list(env[bind].members)


def test_frozen_values_match_hand_typed_matrices():
    assert _members("basis-rank1-rational") == [P1, P2, P3]
    assert _members("s3-idempotents") == [S3_E1, S3_E2, S3_E3]
    assert _members("f5-orthogonal-set") == F5_SET
    assert _members("f7-orthogonal-set-a") == F7_SET_A
    assert _members("f7-orthogonal-set-b") == F7_SET_B
    assert _members("pseudo-2d", bind="rows") == [laurent_p1(), laurent_p2()]
    env = execute_pipeline(get_entry("block4-real-hadamard").pipeline)
    assert env["H"].cleared == HADAMARD_4_REAL
    env = execute_pipeline(get_entry("block4-complex-hadamard").pipeline)
    assert env["H"].cleared == hadamard_4_complex()
    # serialized members in the frozen file agree byte-for-byte with the
    # hand-typed values
    from paraunitary.catalog import expected_outputs

    frozen = expected_outputs("s3-idempotents")["set"]["members"]
    assert frozen == [matrix_to_json(m) for m in (S3_E1, S3_E2, S3_E3)]


def _reference_diff(actual, expected):
    """The diff text of a mismatch, from the indented texts line by line."""
    from paraunitary.serialize import dumps

    a, b = dumps(actual).splitlines(), dumps(expected).splitlines()
    lines = []
    for la, lb in zip(a, b):
        if la != lb:
            lines += [f"actual:   {la}", f"expected: {lb}"]
            if len(lines) > 18:
                break
    if len(a) != len(b):
        lines.append("outputs differ in length")
    return "\n".join(lines)


def test_a_mismatching_entry_reports_the_lines_of_the_indented_texts(monkeypatch):
    """A mismatch reports the differing lines of the indented texts, as
    the CLI prints them, and a match ignores the order of keys."""
    import copy

    from paraunitary import catalog

    entry = get_entry("c2-idempotents")
    frozen = catalog.expected_outputs(entry.id)
    actual = run_entry(entry)

    changed = copy.deepcopy(frozen)
    changed["set"]["members"][1]["entries"][0][1] = "(1/2)"
    monkeypatch.setattr(catalog, "expected_outputs", lambda entry_id: changed)
    ok, diff = entry_matches(entry)
    assert not ok
    indent = " " * 12  # an entry text sits at depth 6 of the indented outputs
    assert diff == f'actual:   {indent}"-(1/2)"\nexpected: {indent}"(1/2)"'
    assert diff == _reference_diff(actual, changed)

    shorter = copy.deepcopy(frozen)
    del shorter["check"]
    monkeypatch.setattr(catalog, "expected_outputs", lambda entry_id: shorter)
    ok, diff = entry_matches(entry)
    assert not ok and diff.endswith("outputs differ in length")
    assert diff == _reference_diff(actual, shorter)

    # the same content in another key order is a match: keys are sorted
    reordered = dict(reversed(list(frozen.items())))
    monkeypatch.setattr(catalog, "expected_outputs", lambda entry_id: reordered)
    assert entry_matches(entry) == (True, "")
