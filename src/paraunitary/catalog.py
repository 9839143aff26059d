"""Regression catalog: every showcase construction as a reproducible pipeline.

Each entry pairs a pipeline document with a frozen expected-output file in
``catalog_data/``; running an entry re-executes the pipeline (re-proving all
asserted identities) and compares the serialized outputs byte-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import ParseError
from .pipeline import execute_pipeline
from .serialize import dumps, object_to_json

RATIONAL = {"kind": "rational"}
Z3 = {"kind": "cyclotomic", "conductor": 3}
Z4 = {"kind": "cyclotomic", "conductor": 4}
Z6 = {"kind": "cyclotomic", "conductor": 6}
Z8 = {"kind": "cyclotomic", "conductor": 8}
F3 = {"kind": "prime_field", "p": 3}
F5 = {"kind": "prime_field", "p": 5}
F7 = {"kind": "prime_field", "p": 7}

_V123 = [["2/3", "1/3", "2/3"], ["1/3", "2/3", "-2/3"], ["2/3", "-2/3", "-1/3"]]

# 1/sqrt2 and friends inside Q(zeta_8)
_INV_ROOT2 = "(1/2*zeta - 1/2*zeta^3)"
_NEG_INV_ROOT2 = "(-1/2*zeta + 1/2*zeta^3)"
_I_INV_ROOT2 = "(1/2*zeta + 1/2*zeta^3)"
_NEG_I_INV_ROOT2 = "(-1/2*zeta - 1/2*zeta^3)"


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    pipeline: dict


def _entry(id: str, title: str, ring: dict, steps: list[dict]) -> CatalogEntry:
    return CatalogEntry(id, title, {"ring": ring, "steps": steps})


CATALOG: list[CatalogEntry] = [
    _entry(
        "basis-rank1-rational",
        "rank-1 projectors of an orthonormal basis of Q^3",
        RATIONAL,
        [
            {"op": "basis_set", "bind": "set", "vectors": _V123},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "basis-merged-rank12",
        "merging two projectors gives a rank-(1,2) profile",
        RATIONAL,
        [
            {"op": "basis_set", "bind": "set", "vectors": _V123, "groups": [[0], [1, 2]]},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
            {"op": "member", "bind": "merged", "set": "$set", "index": 1},
            {"op": "rank", "bind": "rank_merged", "matrix": "$merged"},
        ],
    ),
    _entry(
        "basis-complex-projectors",
        "projectors of a complex orthonormal pair",
        Z8,
        [
            {
                "op": "basis_set",
                "bind": "set",
                "vectors": [
                    [_NEG_I_INV_ROOT2, _INV_ROOT2],
                    [_I_INV_ROOT2, _INV_ROOT2],
                ],
            },
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "c2-idempotents",
        "cyclic-of-order-2 idempotent pair",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "c2-haar-paraunitary",
        "the order-2 monomial sum (the Haar-type 2x2)",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
            {
                "op": "monomial_sum",
                "bind": "W",
                "set": "$set",
                "coeffs": ["1", "1"],
                "exponents": [0, 1],
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
            {"op": "determinant", "bind": "det", "matrix": "$W"},
        ],
    ),
    _entry(
        "c3-idempotents",
        "cyclic-of-order-3 circulant idempotents",
        Z3,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 3},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "c3-paraunitary",
        "order-3 monomial sum with powers (0, 3, 2)",
        Z3,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 3},
            {
                "op": "monomial_sum",
                "bind": "Q",
                "set": "$set",
                "coeffs": ["1", "1", "1"],
                "exponents": [0, 3, 2],
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$Q"},
        ],
    ),
    _entry(
        "basis-rank1-paraunitary",
        "monomial sum over the rank-1 projector set",
        RATIONAL,
        [
            {"op": "basis_set", "bind": "set", "vectors": _V123},
            {
                "op": "monomial_sum",
                "bind": "W",
                "set": "$set",
                "coeffs": ["1", "1", "1"],
                "exponents": [2, 1, 3],
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
            {"op": "determinant", "bind": "det", "matrix": "$W"},
        ],
    ),
    _entry(
        "c4-idempotents",
        "cyclic-of-order-4 idempotents over Q(i)",
        Z4,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 4},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "c4-realified",
        "conjugate pairs of the order-4 set merged to a real set",
        Z4,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 4},
            {"op": "realify_set", "bind": "real", "set": "$set"},
            {"op": "verify_idemset", "bind": "check", "set": "$real"},
        ],
    ),
    _entry(
        "c2xc2-idempotents",
        "Klein four-group idempotents (all real)",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "c2k", "order": 4},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "c6-realified",
        "order-6 set realified to a four-member real set",
        Z6,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 6},
            {"op": "realify_set", "bind": "real", "set": "$set"},
            {"op": "verify_idemset", "bind": "check", "set": "$real"},
        ],
    ),
    _entry(
        "s3-idempotents",
        "symmetric-group idempotents, ranks (1, 1, 4)",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "s3"},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
            {"op": "member", "bind": "E3", "set": "$set", "index": 2},
            {"op": "rank", "bind": "rank_E3", "matrix": "$E3"},
            {"op": "trace", "bind": "trace_E3", "matrix": "$E3"},
        ],
    ),
    _entry(
        "s3-paraunitary",
        "6x6 monomial sum over the symmetric-group set",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "s3"},
            {
                "op": "monomial_sum",
                "bind": "W",
                "set": "$set",
                "coeffs": ["1", "1", "1"],
                "exponents": [1, 0, 2],
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
        ],
    ),
    _entry(
        "s3-determinant",
        "determinant of 2 E1 + 3 E2 + 5 E3 equals 2 * 3 * 5^4",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "s3"},
            {"op": "combine", "bind": "A", "set": "$set", "coeffs": ["2", "3", "5"]},
            {"op": "determinant", "bind": "det", "matrix": "$A"},
            {"op": "idempotent_inverse", "bind": "Ainv", "set": "$set", "coeffs": ["2", "3", "5"]},
        ],
    ),
    _entry(
        "f5-orthogonal-set",
        "orthogonal-basis idempotents over F_5",
        F5,
        [
            {
                "op": "basis_finite_set",
                "bind": "set",
                "vectors": [[2, 1, 2], [1, 2, 3], [2, 3, 4]],
            },
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "f7-orthogonal-set-a",
        "first orthogonal-basis set over F_7",
        F7,
        [
            {
                "op": "basis_finite_set",
                "bind": "set",
                "vectors": [[2, 1, 2], [1, 2, 5], [2, 5, 6]],
            },
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "f7-orthogonal-set-b",
        "second orthogonal-basis set over F_7",
        F7,
        [
            {
                "op": "basis_finite_set",
                "bind": "set",
                "vectors": [[1, 2, 1], [1, 6, 1], [1, 0, 6]],
            },
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "f3-two-idempotents",
        "a 2x2 complete symmetric pair over F_3 with no rank-1 factorization",
        F3,
        [
            {"op": "matrix", "bind": "P", "entries": [["2", "1"], ["1", "2"]]},
            {"op": "matrix", "bind": "Q", "entries": [["2", "2"], ["2", "2"]]},
            {"op": "idem_set", "bind": "set", "members": ["$P", "$Q"]},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
    _entry(
        "block4-real-w",
        "4x4 Latin-square block arrangement of the order-2 pair",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
            {
                "op": "block_arrangement",
                "bind": "W",
                "set": "$set",
                "grid": [[0, 1], [1, 0]],
                "cells": [["x", "y"], ["z", "t"]],
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
        ],
    ),
    _entry(
        "block4-real-hadamard",
        "specializing the 4x4 arrangement at 1 gives a regular Hadamard matrix",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
            {
                "op": "block_arrangement",
                "bind": "W",
                "set": "$set",
                "grid": [[0, 1], [1, 0]],
                "cells": [["x", "y"], ["z", "t"]],
            },
            {
                "op": "specialize",
                "bind": "H",
                "matrix": "$W",
                "assign": {"x": "1", "y": "1", "z": "1", "t": "1"},
            },
        ],
    ),
    _entry(
        "block4-complex-w",
        "4x4 arrangement of a complex projector pair",
        Z4,
        [
            {
                "op": "matrix",
                "bind": "Q0",
                "entries": [["(1/2)", "(1/2)*zeta"], ["-(1/2)*zeta", "(1/2)"]],
            },
            {
                "op": "matrix",
                "bind": "Q1",
                "entries": [["(1/2)", "-(1/2)*zeta"], ["(1/2)*zeta", "(1/2)"]],
            },
            {"op": "idem_set", "bind": "set", "members": ["$Q0", "$Q1"]},
            {
                "op": "block_arrangement",
                "bind": "W",
                "set": "$set",
                "grid": [[0, 1], [1, 0]],
                "cells": [["x", "y"], ["z", "t"]],
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
        ],
    ),
    _entry(
        "block4-complex-hadamard",
        "complex Hadamard matrix with entries in {1, -1, i, -i}",
        Z4,
        [
            {
                "op": "matrix",
                "bind": "Q0",
                "entries": [["(1/2)", "(1/2)*zeta"], ["-(1/2)*zeta", "(1/2)"]],
            },
            {
                "op": "matrix",
                "bind": "Q1",
                "entries": [["(1/2)", "-(1/2)*zeta"], ["(1/2)*zeta", "(1/2)"]],
            },
            {"op": "idem_set", "bind": "set", "members": ["$Q0", "$Q1"]},
            {
                "op": "block_arrangement",
                "bind": "W",
                "set": "$set",
                "grid": [[0, 1], [1, 0]],
                "cells": [["x", "y"], ["z", "t"]],
            },
            {
                "op": "specialize",
                "bind": "H",
                "matrix": "$W",
                "assign": {"x": "1", "y": "1", "z": "1", "t": "1"},
            },
        ],
    ),
    _entry(
        "butson-h39",
        "9x9 Butson-type H(3,9) from the order-3 circulant arrangement",
        Z3,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 3},
            {
                "op": "block_arrangement",
                "bind": "W",
                "set": "$set",
                "grid_family": "cyclic",
                "grid_order": 3,
                "cells": [["x", "y", "z"], ["z", "x", "y"], ["y", "z", "x"]],
            },
            {
                "op": "specialize",
                "bind": "H",
                "matrix": "$W",
                "assign": {"x": "1", "y": "1", "z": "1"},
            },
        ],
    ),
    _entry(
        "diag-chain-product",
        "product of diagonal-delay and order-2 monomial sums",
        RATIONAL,
        [
            {"op": "diagonal_set", "bind": "diag", "n": 2},
            {"op": "group_set", "bind": "c2", "family": "cyclic", "order": 2},
            {"op": "monomial_sum", "bind": "M1", "set": "$diag", "coeffs": ["1", "1"], "exponents": [0, 1]},
            {"op": "monomial_sum", "bind": "M2", "set": "$c2", "coeffs": ["1", "1"], "exponents": [1, 2]},
            {"op": "monomial_sum", "bind": "M3", "set": "$diag", "coeffs": ["1", "1"], "exponents": [2, 3]},
            {"op": "monomial_sum", "bind": "M4", "set": "$c2", "coeffs": ["1", "1"], "exponents": [2, 3]},
            {
                "op": "compose",
                "bind": "W",
                "parts": ["$M1", "$M2", "$M3", "$M4"],
                "mode": "product",
                "expect_paraunitary": True,
            },
        ],
    ),
    _entry(
        "qwq-sandwich",
        "sandwich product of two different monomial sums",
        Z3,
        [
            {"op": "group_set", "bind": "qset", "family": "cyclic", "order": 3},
            {"op": "basis_set", "bind": "pset", "vectors": _V123},
            {"op": "monomial_sum", "bind": "Q", "set": "$qset", "coeffs": ["1", "1", "1"], "exponents": [0, 3, 2]},
            {"op": "monomial_sum", "bind": "W", "set": "$pset", "coeffs": ["1", "1", "1"], "exponents": [2, 1, 3]},
            {
                "op": "compose",
                "bind": "QWQ",
                "parts": ["$Q", "$W", "$Q"],
                "mode": "product",
                "expect_paraunitary": True,
            },
        ],
    ),
    _entry(
        "c4-diag-chain",
        "product of order-4, diagonal, and Klein-four monomial sums",
        Z4,
        [
            {"op": "group_set", "bind": "e", "family": "cyclic", "order": 4},
            {"op": "diagonal_set", "bind": "d", "n": 4},
            {"op": "group_set", "bind": "f", "family": "c2k", "order": 4},
            {"op": "monomial_sum", "bind": "W1", "set": "$e", "coeffs": ["1"] * 4, "exponents": [0, 1, 3, 2]},
            {"op": "monomial_sum", "bind": "W2", "set": "$d", "coeffs": ["1"] * 4, "exponents": [0, 1, 3, 2]},
            {"op": "monomial_sum", "bind": "W3", "set": "$f", "coeffs": ["1"] * 4, "exponents": [1, 2, 3, 2]},
            {
                "op": "compose",
                "bind": "W",
                "parts": ["$W1", "$W2", "$W3"],
                "mode": "product",
                "expect_paraunitary": True,
            },
        ],
    ),
    _entry(
        "tangle-2x2",
        "the elementary 2x2 tangle of two single-variable cells",
        Z8,
        [
            {"op": "matrix", "bind": "A", "entries": [["x"]]},
            {"op": "matrix", "bind": "B", "entries": [["y"]]},
            {"op": "tangle", "bind": "W", "a": "$A", "b": "$B"},
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
        ],
    ),
    _entry(
        "tangle-4x4",
        "iterated tangle in four variables",
        Z8,
        [
            {"op": "matrix", "bind": "A", "entries": [["x"]]},
            {"op": "matrix", "bind": "B", "entries": [["y"]]},
            {"op": "matrix", "bind": "C", "entries": [["z"]]},
            {"op": "matrix", "bind": "D", "entries": [["t"]]},
            {"op": "tangle", "bind": "W", "a": "$A", "b": "$B"},
            {"op": "tangle", "bind": "Q", "a": "$C", "b": "$D"},
            {"op": "tangle", "bind": "T", "a": "$W", "b": "$Q"},
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$T"},
        ],
    ),
    _entry(
        "tangle-f7",
        "tangle of two different F_7 sets using sqrt(2) = 3",
        F7,
        [
            {"op": "basis_finite_set", "bind": "sa", "vectors": [[2, 1, 2], [1, 2, 5], [2, 5, 6]]},
            {"op": "basis_finite_set", "bind": "sb", "vectors": [[1, 2, 1], [1, 6, 1], [1, 0, 6]]},
            {
                "op": "monomial_sum",
                "bind": "A",
                "set": "$sa",
                "coeffs": ["1", "1", "1"],
                "exponents": [{"x": 1}, {"y": 1}, {"z": 1}],
            },
            {
                "op": "monomial_sum",
                "bind": "B",
                "set": "$sb",
                "coeffs": ["1", "1", "1"],
                "exponents": [{"t": 1}, {"r": 1}, {"s": 1}],
            },
            {
                "op": "tangle",
                "bind": "W",
                "a": "$A",
                "b": "$B",
                "variant": {"order": "AB", "base": "horizontal", "perm": "cols"},
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
        ],
    ),
    _entry(
        "tangle-32x32",
        "32x32 tangle of two different 16x16 block arrangements",
        Z8,
        [
            {"op": "group_set", "bind": "pset", "family": "cyclic", "order": 4},
            {"op": "group_set", "bind": "qset", "family": "c2k", "order": 4},
            {
                "op": "block_arrangement",
                "bind": "A",
                "set": "$pset",
                "grid_family": "cyclic",
                "grid_order": 4,
                "cells": [[f"x{4 * i + j}" for j in range(4)] for i in range(4)],
            },
            {
                "op": "block_arrangement",
                "bind": "B",
                "set": "$qset",
                "grid_family": "c2k",
                "grid_order": 4,
                "cells": [[f"y{4 * i + j}" for j in range(4)] for i in range(4)],
            },
            {"op": "tangle", "bind": "W", "a": "$A", "b": "$B"},
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W"},
        ],
    ),
    _entry(
        "pseudo-2d",
        "pseudo-paraunitary sum over rank-1 Laurent idempotents",
        RATIONAL,
        [
            {"op": "group_set", "bind": "c2", "family": "cyclic", "order": 2},
            {
                "op": "monomial_sum",
                "bind": "P",
                "set": "$c2",
                "coeffs": ["1", "1"],
                "exponents": [{"x": 1}, {"y": 1}],
            },
            {"op": "rows_set", "bind": "rows", "matrix": "$P"},
            {"op": "verify_idemset", "bind": "rows_check", "set": "$rows"},
            {
                "op": "pseudo_from_rows",
                "bind": "W",
                "matrix": "$P",
                "coeffs": ["1", "1"],
                "exponents": [{"z": 1}, {"t": 1}],
            },
            {"op": "verify_pseudo", "bind": "p", "matrix": "$W"},
        ],
    ),
    _entry(
        "pseudo-2d-cleared",
        "clearing the pseudo-paraunitary matrix to polynomial form",
        RATIONAL,
        [
            {"op": "group_set", "bind": "c2", "family": "cyclic", "order": 2},
            {
                "op": "monomial_sum",
                "bind": "P",
                "set": "$c2",
                "coeffs": ["1", "1"],
                "exponents": [{"x": 1}, {"y": 1}],
            },
            {
                "op": "pseudo_from_rows",
                "bind": "W",
                "matrix": "$P",
                "coeffs": ["1", "1"],
                "exponents": [{"z": 1}, {"t": 1}],
            },
            {"op": "monomial_clear", "bind": "Q", "matrix": "$W"},
        ],
    ),
    _entry(
        "spectral-rotation",
        "eighth-root eigenvalues synthesize the quarter-turn rotation",
        Z8,
        [
            {
                "op": "spectral",
                "bind": "U",
                "vectors": [
                    [_NEG_INV_ROOT2, _NEG_I_INV_ROOT2],
                    [_I_INV_ROOT2, _INV_ROOT2],
                ],
                "units": ["zeta^7", "zeta"],
            },
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$U"},
        ],
    ),
    _entry(
        "belevitch-rank1",
        "degree-one building block 1 - vv* + z vv*",
        RATIONAL,
        [
            {"op": "belevitch", "bind": "H", "vector": ["2/3", "1/3", "2/3"], "var": "z"},
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$H"},
            {"op": "determinant", "bind": "det", "matrix": "$H"},
        ],
    ),
    _entry(
        "idempotent-inverse-c2",
        "inverse of 2 E1 + 3 E2 via reciprocal coefficients",
        RATIONAL,
        [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
            {"op": "combine", "bind": "A", "set": "$set", "coeffs": ["2", "3"]},
            {"op": "idempotent_inverse", "bind": "Ainv", "set": "$set", "coeffs": ["2", "3"]},
            {"op": "determinant", "bind": "det", "matrix": "$A"},
        ],
    ),
    _entry(
        "diagonal-3",
        "the diagonal unit set",
        RATIONAL,
        [
            {"op": "diagonal_set", "bind": "set", "n": 3},
            {"op": "verify_idemset", "bind": "check", "set": "$set"},
        ],
    ),
]


def catalog_ids() -> list[str]:
    return [e.id for e in CATALOG]


def get_entry(entry_id: str) -> CatalogEntry:
    for e in CATALOG:
        if e.id == entry_id:
            return e
    raise ParseError(f"no catalog entry {entry_id!r}")


def run_entry(entry: CatalogEntry) -> dict:
    """Execute the pipeline and serialize every binding."""
    env = execute_pipeline(entry.pipeline)
    return {name: object_to_json(value) for name, value in env.items()}


def expected_outputs(entry_id: str) -> dict:
    data = resources.files("paraunitary").joinpath(f"catalog_data/{entry_id}.json")
    with data.open("r") as fh:
        doc = json.load(fh)
    return doc["outputs"]


def entry_matches(entry: CatalogEntry) -> tuple[bool, str]:
    """Run and byte-compare against the frozen expectation."""
    actual = run_entry(entry)
    expected = expected_outputs(entry.id)
    a, b = dumps(actual), dumps(expected)
    if a == b:
        return True, ""
    diff_lines = []
    for la, lb in zip(a.splitlines(), b.splitlines()):
        if la != lb:
            diff_lines.append(f"actual:   {la}")
            diff_lines.append(f"expected: {lb}")
            if len(diff_lines) > 18:
                break
    if len(a.splitlines()) != len(b.splitlines()):
        diff_lines.append("outputs differ in length")
    return False, "\n".join(diff_lines)


def regenerate(directory) -> None:
    """Developer tool: rewrite every frozen expectation file."""
    from pathlib import Path

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for entry in CATALOG:
        doc = {"id": entry.id, "title": entry.title, "outputs": run_entry(entry)}
        (out / f"{entry.id}.json").write_text(dumps(doc))


if __name__ == "__main__":  # pragma: no cover
    import sys

    if len(sys.argv) == 3 and sys.argv[1] == "--regen":
        regenerate(sys.argv[2])
        print(f"wrote {len(CATALOG)} expectation files to {sys.argv[2]}")
    else:
        print("usage: python -m paraunitary.catalog --regen <directory>")
