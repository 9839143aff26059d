"""CLI fuzz harness: mutated input files and argv, each run through ``cli.main``.

Every case starts from a valid matrix, set, vectors or pipeline file, or a
valid ``idem``/``verify``/``build``/``specialize`` command line, and mutates
it.  Each case must exit 0, 1 or 2, print no traceback (no exception may
leave ``main``) and finish within ``CASE_SECONDS``.  Hypothesis runs
derandomized (the profile in ``conftest.py``), so every run repeats exactly.
"""

import contextlib
import io
import json
import os
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from paraunitary.catalog import expected_outputs, get_entry  # noqa: E402
from paraunitary.cli import main  # noqa: E402

CASE_SECONDS = 5.0
MODES = ("paraunitary", "pseudo", "hadamard", "idemset")


def _output(entry_id, name):
    doc = dict(expected_outputs(entry_id)[name])
    del doc["type"]
    return doc


# Valid seeds over Q, Q(zeta_N) and F_p.
SEEDS = {
    "matrix": [
        _output("c2-haar-paraunitary", "W"),
        _output("block4-complex-w", "Q0"),
        _output("tangle-f7", "A"),
    ],
    "set": [
        _output("c2-idempotents", "set"),
        _output("c4-idempotents", "set"),
        _output("f5-orthogonal-set", "set"),
    ],
    "vectors": [
        {"vectors": [["2/3", "1/3", "2/3"], ["1/3", "2/3", "-2/3"], ["2/3", "-2/3", "-1/3"]]},
        {"vectors": [[1, 2], [2, -1]]},
    ],
    "pipeline": [
        get_entry("c2-haar-paraunitary").pipeline,
        get_entry("block4-complex-w").pipeline,
        get_entry("f5-orthogonal-set").pipeline,
    ],
}

KEYS = (
    "ring", "kind", "conductor", "p", "vars", "rows", "cols", "entries", "members", "labels",
    "n", "vectors", "steps", "op", "bind", "set", "matrix", "family", "order", "groups",
    "coeffs", "exponents", "a", "b", "by", "assign", "index", "variant", "grid", "cells",
)
SPECIAL = (
    "", "zeta", "zeta^3*z", "1/0", "z^1025", "z^-1024", "((z))", "$set", "$W", "$nope",
    "rational", "cyclotomic", "prime_field", "cyclic", "s3", "c2k", "dihedral",
    "group_set", "merge_set", "monomial_sum", "verify_paraunitary", "identity", "diagonal_set",
)
POLY_TEXT = st.text(alphabet="xyz0123456789+-*/^() ", max_size=12)
LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.integers(-3, 40),
    st.floats(),
    POLY_TEXT,
    st.sampled_from(SPECIAL),
    st.sampled_from(KEYS),
)
JSON = st.recursive(
    LEAF,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=5,
)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


def _mutate(data, doc):
    """One to three edits: replace, delete, duplicate or edit a node in place."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        action = data.draw(st.sampled_from(("replace", "delete", "duplicate", "edit")))
        if not path:
            if action == "replace":
                doc = data.draw(JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        if action == "replace":
            parent[key] = data.draw(JSON)
        elif action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(node)))
        elif isinstance(node, str):
            at = data.draw(st.integers(0, len(node)))
            parent[key] = node[:at] + data.draw(POLY_TEXT) + node[at + data.draw(st.integers(0, 3)):]
        elif isinstance(node, int) and not isinstance(node, bool):
            parent[key] = node + data.draw(st.integers(-3, 3))
    return doc


def _file_text(data, doc):
    text = json.dumps(doc)
    if data.draw(st.booleans()):  # cut the text short or splice garbage into it
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(("", "}", "]", "\x00", "\"", "\\u", "\udc80")))
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A temporary directory holding valid seed files; the cases run from inside it."""
    root = tmp_path_factory.mktemp("fuzz")
    for kind, docs in SEEDS.items():
        for i, doc in enumerate(docs):
            (root / f"{kind}{i}.json").write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(root)
    yield root
    os.chdir(cwd)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    assert elapsed < CASE_SECONDS, (argv, elapsed)


def _commands(kind, path):
    if kind == "matrix":
        return [
            *(["verify", path, "--mode", mode] for mode in MODES),
            ["det", "--matrix", path],
            ["rank", "--matrix", path, "--format", "json"],
            ["specialize", "--matrix", path, "--assign", "z=1"],
            ["idem", "rows", "--matrix", path],
            ["idem", "conjugate", "--set", "set0.json", "--by", path],
        ]
    if kind == "set":
        return [
            ["verify", path, "--mode", "idemset"],
            ["idem", "merge", "--set", path, "--groups", "1,2"],
            ["idem", "realify", "--set", path],
            ["idem", "tensor", "--a", path, "--b", "set0.json"],
            ["idem", "conjugate", "--set", path, "--by", "matrix0.json"],
        ]
    if kind == "vectors":
        return [
            ["idem", "basis", "--vectors", path, "--groups", "1/2,3"],
            ["idem", "basis", "--vectors", path],
            ["idem", "basis-finite", "--vectors", path, "--ring", "prime_field", "--prime", "7"],
        ]
    return [["build", path]]


@settings(max_examples=600)
@given(data=st.data())
def test_mutated_files_exit_cleanly(workdir, data):
    kind = data.draw(st.sampled_from(sorted(SEEDS)))
    doc = _mutate(data, data.draw(st.sampled_from(SEEDS[kind])))
    (workdir / "case.json").write_text(_file_text(data, doc), errors="surrogateescape")
    _run(data.draw(st.sampled_from(_commands(kind, "case.json"))))


VALID_ARGV = [
    ["idem", "group", "--family", "cyclic", "--order", "4", "--ring", "cyclotomic", "--conductor", "4"],
    ["idem", "group", "--family", "s3", "--ring", "prime_field", "--prime", "7"],
    ["idem", "diagonal", "--n", "3"],
    ["idem", "basis", "--vectors", "vectors0.json", "--groups", "1/2,3"],
    ["idem", "basis-finite", "--vectors", "vectors1.json", "--ring", "prime_field", "--prime", "5"],
    ["idem", "rows", "--matrix", "matrix0.json"],
    ["idem", "tensor", "--a", "set0.json", "--b", "set0.json"],
    ["idem", "merge", "--set", "set1.json", "--groups", "1,2/3,4"],
    ["idem", "realify", "--set", "set1.json"],
    ["idem", "conjugate", "--set", "set0.json", "--by", "matrix0.json"],
    ["verify", "matrix1.json", "--mode", "paraunitary"],
    ["build", "pipeline0.json"],
    ["specialize", "--matrix", "matrix0.json", "--assign", "z=-1"],
]
FLAGS = (
    "--family", "--order", "--ring", "--conductor", "--prime", "--n", "--vectors", "--groups",
    "--matrix", "--set", "--a", "--b", "--by", "--mode", "--assign", "--format", "-h",
)
TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.integers(-(10**12), 10**12).map(str),
    st.integers(-2, 40).map(str),
    st.sampled_from(("1024", "1025", "4294967291", "4294967292", "2305843009213693951")),
    st.text(alphabet="0123456789,/-az= ", max_size=8),
    st.sampled_from(("rational", "cyclotomic", "prime_field", "s3", "c2k", "dihedral", "idem", "json")),
    st.sampled_from(tuple(f"{kind}{i}.json" for kind, docs in SEEDS.items() for i in range(len(docs)))),
    st.sampled_from(("missing.json", ".", "z=zeta", "z=1/0", "z=x", "x=1,y")),
)


@settings(max_examples=600)
@given(data=st.data())
def test_mutated_argv_exits_cleanly(workdir, data):
    argv = list(data.draw(st.sampled_from(VALID_ARGV)))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(argv)))
        action = data.draw(st.sampled_from(("replace", "insert", "delete")))
        if action == "insert" or at == len(argv):
            argv.insert(at, data.draw(TOKENS))
        elif action == "replace":
            argv[at] = data.draw(TOKENS)
        else:
            del argv[at]
    _run(argv)
