"""Regression catalog: every showcase construction as a reproducible pipeline.

Each entry pairs a pipeline document in ``catalog_pipelines/`` with a frozen
expected-output file in ``catalog_data/``; running an entry re-executes the
pipeline (re-proving all asserted identities) and compares the serialized
outputs byte-exactly, on their compact JSON texts; the indented texts are
built only to show the lines of a mismatch.  A pipeline file is a plain
pipeline document, so ``paraunitary build catalog_pipelines/<id>.json``
runs it too, and ``paraunitary catalog show --id <id>`` prints the frozen
file's bytes, which is how an entry is refrozen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .errors import ParseError
from .pipeline import execute_pipeline
from .serialize import dumps, object_to_json


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str

    @property
    def pipeline(self) -> dict:
        """The pipeline document, read from ``catalog_pipelines/<id>.json``."""
        data = resources.files("paraunitary").joinpath(f"catalog_pipelines/{self.id}.json")
        with data.open("r") as fh:
            return json.load(fh)


CATALOG: list[CatalogEntry] = [
    CatalogEntry("basis-rank1-rational", "rank-1 projectors of an orthonormal basis of Q^3"),
    CatalogEntry("basis-merged-rank12", "merging two projectors gives a rank-(1,2) profile"),
    CatalogEntry("basis-complex-projectors", "projectors of a complex orthonormal pair"),
    CatalogEntry("c2-idempotents", "cyclic-of-order-2 idempotent pair"),
    CatalogEntry("c2-haar-paraunitary", "the order-2 monomial sum (the Haar-type 2x2)"),
    CatalogEntry("c3-idempotents", "cyclic-of-order-3 circulant idempotents"),
    CatalogEntry("c3-paraunitary", "order-3 monomial sum with powers (0, 3, 2)"),
    CatalogEntry("basis-rank1-paraunitary", "monomial sum over the rank-1 projector set"),
    CatalogEntry("c4-idempotents", "cyclic-of-order-4 idempotents over Q(i)"),
    CatalogEntry("c4-realified", "conjugate pairs of the order-4 set merged to a real set"),
    CatalogEntry("c2xc2-idempotents", "Klein four-group idempotents (all real)"),
    CatalogEntry("c6-realified", "order-6 set realified to a four-member real set"),
    CatalogEntry("s3-idempotents", "symmetric-group idempotents, ranks (1, 1, 4)"),
    CatalogEntry("s3-paraunitary", "6x6 monomial sum over the symmetric-group set"),
    CatalogEntry("s3-determinant", "determinant of 2 E1 + 3 E2 + 5 E3 equals 2 * 3 * 5^4"),
    CatalogEntry("f5-orthogonal-set", "orthogonal-basis idempotents over F_5"),
    CatalogEntry("f7-orthogonal-set-a", "first orthogonal-basis set over F_7"),
    CatalogEntry("f7-orthogonal-set-b", "second orthogonal-basis set over F_7"),
    CatalogEntry(
        "f3-two-idempotents",
        "a 2x2 complete symmetric pair over F_3 with no rank-1 factorization",
    ),
    CatalogEntry("block4-real-w", "4x4 Latin-square block arrangement of the order-2 pair"),
    CatalogEntry(
        "block4-real-hadamard",
        "specializing the 4x4 arrangement at 1 gives a regular Hadamard matrix",
    ),
    CatalogEntry("block4-complex-w", "4x4 arrangement of a complex projector pair"),
    CatalogEntry(
        "block4-complex-hadamard",
        "complex Hadamard matrix with entries in {1, -1, i, -i}",
    ),
    CatalogEntry("butson-h39", "9x9 Butson-type H(3,9) from the order-3 circulant arrangement"),
    CatalogEntry("diag-chain-product", "product of diagonal-delay and order-2 monomial sums"),
    CatalogEntry("qwq-sandwich", "sandwich product of two different monomial sums"),
    CatalogEntry("c4-diag-chain", "product of order-4, diagonal, and Klein-four monomial sums"),
    CatalogEntry("tangle-2x2", "the elementary 2x2 tangle of two single-variable cells"),
    CatalogEntry("tangle-4x4", "iterated tangle in four variables"),
    CatalogEntry("tangle-f7", "tangle of two different F_7 sets using sqrt(2) = 3"),
    CatalogEntry("tangle-32x32", "32x32 tangle of two different 16x16 block arrangements"),
    CatalogEntry("pseudo-2d", "pseudo-paraunitary sum over rank-1 Laurent idempotents"),
    CatalogEntry("pseudo-2d-cleared", "clearing the pseudo-paraunitary matrix to polynomial form"),
    CatalogEntry(
        "spectral-rotation",
        "eighth-root eigenvalues synthesize the quarter-turn rotation",
    ),
    CatalogEntry("belevitch-rank1", "degree-one building block 1 - vv* + z vv*"),
    CatalogEntry("idempotent-inverse-c2", "inverse of 2 E1 + 3 E2 via reciprocal coefficients"),
    CatalogEntry("diagonal-3", "the diagonal unit set"),
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


def _compact(outputs: dict) -> str:
    return json.dumps(outputs, sort_keys=True, separators=(",", ":"))


def entry_matches(entry: CatalogEntry) -> tuple[bool, str]:
    """Run and byte-compare against the frozen expectation.

    The match is decided on the compact texts, sorted keys and no
    whitespace, which the C encoder writes; the indented ``dumps`` texts
    are built only on a mismatch, for the diff of their differing lines.
    The two decisions agree: both texts write the same value with sorted
    keys and ``ensure_ascii``, and indentation only puts whitespace between
    tokens, never inside a string.  So the compact text is the indented one
    with that whitespace removed, the indented one follows from the tokens
    of the compact one, and two values have equal indented texts exactly
    when they have equal compact texts.
    """
    actual = run_entry(entry)
    expected = expected_outputs(entry.id)
    if _compact(actual) == _compact(expected):
        return True, ""
    a, b = dumps(actual), dumps(expected)
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

