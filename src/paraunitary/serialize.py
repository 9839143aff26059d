"""Canonical JSON forms for matrices, idempotent sets, and group tables.

Output is deterministic (sorted keys, fixed entry ordering) so that files
are diff-able and serialize -> parse -> serialize is the identity.

The paper's matrices repeat a few entries many times (the 32x32 tangle has
1,024 entries and 76 distinct texts), so the matrix reader and writer work
once per distinct entry of a document: one file read, or one object
written.  A local memo lives for that document only; an idempotent set
shares one across its members.  The reader keys it by ``(ring, text)`` and
reuses the immutable parsed polynomial.  The writer keys it first by the
entry object (its ``id``: the matrices hold every entry for the whole
call, so no id is reused while the memo lives), then by ``(ring, vars,
den, term items)``, which fixes the text, so a repeated object costs one
lookup and two equal polynomials whose term maps differ in order only miss
the second key.  No cache outlives a call.
"""

from __future__ import annotations

import json

from .errors import ParseError, SizeLimit
from .groups import GroupTable
from .idempotents import IdempotentSet
from .laurent import LaurentPoly, poly_from_text, poly_to_text
from .polymatrix import MAX_ENTRIES, PolyMatrix
from .scalars import (
    ExactScalar,
    RingDescriptor,
    input_int,
    scalar_to_json,
)


def dumps(obj) -> str:
    """Canonical JSON text for any to_json-style payload."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def matrix_to_json(m: PolyMatrix) -> dict:
    return _matrix_to_json(m, {})


def _matrix_to_json(m: PolyMatrix, texts: dict) -> dict:
    """The matrix document, each distinct entry printed once through ``texts``,
    keyed by ``id(entry)`` and by the term tuple (an int and a tuple never collide)."""
    entries = []
    for row in m.entries:
        out = []
        for e in row:
            text = texts.get(id(e))
            if text is None:
                key = (e.ring, e.vars, e.den, tuple(e.terms.items()))
                text = texts.get(key)
                if text is None:
                    text = texts[key] = poly_to_text(e)
                texts[id(e)] = text
            out.append(text)
        entries.append(out)
    return {
        "ring": m.ring.to_json(),
        "vars": list(m.vars),
        "rows": m.rows,
        "cols": m.cols,
        "entries": entries,
    }


def _shown(value) -> str:
    """At most 40 characters of ``value`` as JSON, for an error message."""
    return json.dumps(value, default=repr)[:40]


def _check_entry_count(what: str, count: int) -> None:
    """SizeLimit when a document holds more than ``polymatrix.MAX_ENTRIES``
    entries, counted on its entry lists before any entry text is parsed."""
    if count > MAX_ENTRIES:
        raise SizeLimit(f"{what} holds {count} entries, past the input limit of {MAX_ENTRIES}")


def matrix_from_json(obj: dict) -> PolyMatrix:
    try:
        count = sum(len(row) for row in obj["entries"] if type(row) is list)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad matrix JSON: {exc}") from exc
    _check_entry_count("the matrix", count)
    return _matrix_from_json(obj, {})


def _matrix_from_json(obj: dict, polys: dict) -> PolyMatrix:
    """The matrix of a document, each distinct entry parsed once through ``polys``."""
    try:
        ring = RingDescriptor.from_json(obj["ring"])
        entries = []
        for i, row in enumerate(obj["entries"]):
            if type(row) is not list:
                raise ParseError(f"matrix row {i + 1} must be a JSON list of entries, got {_shown(row)}")
            out = []
            for j, text in enumerate(row):
                if type(text) is not str:
                    raise ParseError(f"matrix entry ({i + 1},{j + 1}) must be polynomial text, got {_shown(text)}")
                f = polys.get((ring, text))
                if f is None:
                    f = polys[ring, text] = poly_from_text(text, ring)
                out.append(f)
            entries.append(out)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad matrix JSON: {exc}") from exc
    m = PolyMatrix(ring, entries)
    shape = (input_int(obj.get("rows", m.rows), "rows"), input_int(obj.get("cols", m.cols), "cols"))
    if shape != (m.rows, m.cols):
        raise ParseError("declared matrix shape does not match the entries")
    return m


def poly_to_json(f: LaurentPoly) -> dict:
    return {"ring": f.ring.to_json(), "poly": poly_to_text(f)}


def scalar_payload(a: ExactScalar) -> dict:
    return {"ring": a.ring.to_json(), "value": scalar_to_json(a)}


def idemset_to_json(s: IdempotentSet) -> dict:
    texts: dict = {}
    return {
        "ring": s.ring.to_json(),
        "n": s.n,
        "members": [_matrix_to_json(m, texts) for m in s.members],
        "labels": list(s.labels),
    }


def idemset_from_json(obj: dict, check: bool = True) -> IdempotentSet:
    try:
        _check_entry_count(
            "the set", sum(len(row) for m in obj["members"] for row in m["entries"] if type(row) is list)
        )
        polys: dict = {}
        members = [_matrix_from_json(m, polys) for m in obj["members"]]
        if "n" in obj and members and input_int(obj["n"], "n") != members[0].rows:
            raise ParseError("declared set size n does not match the members")
        labels = obj.get("labels")
        return IdempotentSet(members, labels, check=check)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad idempotent-set JSON: {exc}") from exc


def grouptable_to_json(t: GroupTable) -> dict:
    return t.to_json()


def grouptable_from_json(obj: dict) -> GroupTable:
    try:
        return GroupTable.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad group-table JSON: {exc}") from exc


def object_to_json(value):
    """Serialize any pipeline output by shape."""
    from .constructors import ClearedMatrix
    from .hadamard import HadamardReport
    from .polymatrix import VerificationReport

    if isinstance(value, PolyMatrix):
        return {"type": "matrix", **matrix_to_json(value)}
    if isinstance(value, IdempotentSet):
        return {"type": "idempotent_set", **idemset_to_json(value)}
    if isinstance(value, LaurentPoly):
        return {"type": "poly", **poly_to_json(value)}
    if isinstance(value, ExactScalar):
        return {"type": "scalar", **scalar_payload(value)}
    if isinstance(value, GroupTable):
        return {"type": "group_table", **grouptable_to_json(value)}
    if isinstance(value, VerificationReport):
        return {
            "type": "report",
            "kind": value.kind,
            "ok": value.ok,
            "failures": list(value.failures),
        }
    if isinstance(value, HadamardReport):
        return {
            "type": "hadamard_report",
            "ok": value.ok,
            "clearing_factor": str(value.clearing_factor),
            "gram_constant": (
                scalar_to_json(value.gram_constant)
                if value.gram_constant is not None
                else None
            ),
            "is_hadamard": value.is_hadamard,
            "butson_q": value.butson_q,
            "scaled": matrix_to_json(value.scaled),
            "cleared": matrix_to_json(value.cleared),
        }
    if isinstance(value, ClearedMatrix):
        return {
            "type": "cleared_matrix",
            "matrix": matrix_to_json(value.matrix),
            "clearing_monomial": poly_to_text(value.clearing_monomial),
            "product_monomial": poly_to_text(value.product_monomial),
        }
    if isinstance(value, (int, bool, str)) or value is None:
        return value
    raise ParseError(f"cannot serialize {type(value).__name__}")
