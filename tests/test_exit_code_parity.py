"""Each ``idem`` subcommand and a ``build`` step of its op exit alike.

Both commands run the op through ``pipeline.execute_step``, and an error's
class gives its exit code (``errors.ExactAlgebraError.exit_code``), which
``cli.main`` alone maps.  For every entry of ``cli.IDEM_COMMANDS`` a passing
input, a malformed input and, where the op can raise ``NotParaunitary``,
``NotPseudoParaunitary`` or ``NotCompleteSet``, a failing identity run
through both commands: the exit codes must be equal, and so must the
output (on a pass) or the message after each command's prefix.  For every
entry with a plain flag, a malformed value of one such flag must also be
refused naming its argument, in one message through both commands.

A case is a ring, steps that build the op's bindings, and the op's step.
``build`` runs them as one document.  ``idem`` gets each binding as the file
of its JSON, written from a run of the steps (an ``idem_set`` step is
written as the set document of its members, unchecked, so that a malformed
set meets ``idem``'s reader as it meets the step), and each plain argument
as its flag.
"""

import json
import re

import pytest

from paraunitary.cli import IDEM_COMMANDS, main
from paraunitary.pipeline import OPS, execute_pipeline
from paraunitary.serialize import matrix_to_json, object_to_json

QQ = {"kind": "rational"}
Z3 = {"kind": "cyclotomic", "conductor": 3}
F7 = {"kind": "prime_field", "p": 7}
_RING_FLAGS = {"kind": "--ring", "conductor": "--conductor", "p": "--prime"}
_C3 = {"op": "group_set", "bind": "c3", "family": "cyclic", "order": 3}
_MIXED = [  # two members of two sizes: refused as a set by either reader
    {"op": "identity", "bind": "one", "n": 1},
    {"op": "identity", "bind": "two", "n": 2},
    {"op": "idem_set", "bind": "mixed", "members": ["$one", "$two"]},
]


def _matrix(name, entries):
    return {"op": "matrix", "bind": name, "entries": entries}


def _diagonal(name, n):
    return {"op": "diagonal_set", "bind": name, "n": n}


# (label, command, ring, steps that build the bindings, the op's arguments, exit code)
CASES = [
    ("pass", "group", QQ, [], {"family": "cyclic", "order": 2}, 0),
    ("malformed", "group", QQ, [], {"family": "cyclic", "order": 0}, 2),
    ("failing", "group", F7, [], {"family": "cyclic", "order": 3}, 1),
    ("malformed-value", "group", QQ, [], {"family": "cyclic", "order": "x"}, 2),
    ("malformed-value", "group", QQ, [], {"family": "cyclc", "order": 2}, 2),
    ("pass", "basis", QQ, [], {"vectors": [[0, 1], [1, 0]], "groups": [[0, 1]]}, 0),
    ("malformed", "basis", QQ, [], {"vectors": []}, 2),
    ("failing", "basis", QQ, [], {"vectors": [[1, 0, 0], [0, 1, 0]]}, 1),
    ("malformed-value", "basis", QQ, [], {"vectors": [[True, 0], [0, 1]]}, 2),
    ("pass", "basis-finite", F7, [], {"vectors": [[1, 2], [5, 1]]}, 0),
    ("malformed", "basis-finite", F7, [], {"vectors": [[1, 0.5], [0, 1]]}, 2),
    ("failing", "basis-finite", F7, [], {"vectors": [[1, 0, 0], [0, 1, 0]]}, 1),
    ("malformed-value", "basis-finite", F7, [], {"vectors": [[1, "x"], [0, 1]]}, 2),
    ("pass", "diagonal", QQ, [], {"n": 3}, 0),
    ("malformed", "diagonal", QQ, [], {"n": 0}, 2),
    ("malformed-value", "diagonal", QQ, [], {"n": "x"}, 2),
    ("pass", "rows", QQ, [_matrix("M", [["0", "z"], ["1", "0"]])], {"matrix": "$M"}, 0),
    ("malformed", "rows", QQ, [_matrix("M", [["1", "0", "0"], ["0", "1", "0"]])], {"matrix": "$M"}, 2),
    ("failing", "rows", QQ, [_matrix("M", [["1", "1"], ["0", "1"]])], {"matrix": "$M"}, 1),
    ("pass", "tensor", QQ, [_diagonal("A", 2), _diagonal("B", 3)], {"a": "$A", "b": "$B"}, 0),
    # 128 members of 128x128: past the entry limit, refused before any is built
    ("malformed", "tensor", QQ, [_diagonal("A", 8), _diagonal("B", 16)], {"a": "$A", "b": "$B"}, 2),
    ("pass", "merge", QQ, [_diagonal("D", 3)], {"set": "$D", "groups": [[0], [1, 2]]}, 0),
    ("malformed", "merge", QQ, [_diagonal("D", 3)], {"set": "$D", "groups": [[0], [0, 1]]}, 2),
    ("malformed-value", "merge", QQ, [_diagonal("D", 3)], {"set": "$D", "groups": [[-1], [0, 1, 2]]}, 2),
    ("pass", "realify", Z3, [_C3], {"set": "$c3"}, 0),
    ("malformed", "realify", QQ, _MIXED, {"set": "$mixed"}, 2),
    # e(chi0) + e(chi1) and e(chi2): the conjugate of neither is in the set
    ("failing", "realify", Z3, [_C3, {"op": "merge_set", "bind": "m", "set": "$c3", "groups": [[0, 1], [2]]}],
     {"set": "$m"}, 1),
    ("pass", "conjugate", QQ, [_diagonal("D", 2), _matrix("P", [["0", "z"], ["1", "0"]])],
     {"set": "$D", "by": "$P"}, 0),
    ("malformed", "conjugate", QQ, [_diagonal("D", 2), _matrix("P", [["0", "1", "0"], ["1", "0", "0"]])],
     {"set": "$D", "by": "$P"}, 2),
    ("failing", "conjugate", QQ, [_diagonal("D", 2), _matrix("P", [["1", "1"], ["0", "1"]])],
     {"set": "$D", "by": "$P"}, 1),
]


def _binding_files(tmp_path, ring, steps) -> dict:
    """The file of each binding of ``steps``, as idem reads it."""
    env = execute_pipeline({"ring": ring, "steps": [s for s in steps if s["op"] != "idem_set"]})
    files = {}
    for step in steps:
        name = step["bind"]
        if step["op"] == "idem_set":
            doc = {"ring": ring, "members": [matrix_to_json(env[m[1:]]) for m in step["members"]]}
        else:
            doc = object_to_json(env[name])
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    return files


def _idem_argv(tmp_path, command, ring, steps, args) -> list:
    files = _binding_files(tmp_path, ring, steps)
    argv = ["idem", command]
    for key, value in ring.items():
        argv += [_RING_FLAGS[key], str(value)]
    for name, value in args.items():
        if isinstance(value, str) and value.startswith("$"):
            value = files[value[1:]]
        elif name == "vectors":
            path = tmp_path / "vectors.json"
            path.write_text(json.dumps({"vectors": value}))
            value = path
        elif name == "groups":
            value = "/".join(",".join(str(i + 1) for i in group) for group in value)
        argv += [f"--{name}", str(value)]
    return argv


def _run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return code, out.out, out.err


def test_every_idem_command_has_a_passing_and_a_malformed_case():
    covered = {(command, label) for label, command, *_ in CASES}
    for command, (op, _, flags) in IDEM_COMMANDS.items():
        assert {(command, "pass"), (command, "malformed")} <= covered, command
        if any(not isinstance(OPS[op][1][name], tuple) for name in flags):
            assert (command, "malformed-value") in covered, command


@pytest.mark.parametrize(
    "label, command, ring, steps, args, code", CASES, ids=[f"{c[1]}-{c[0]}" for c in CASES]
)
def test_idem_and_build_give_one_exit_code_and_one_message(tmp_path, capsys, label, command, ring, steps, args, code):
    op = IDEM_COMMANDS[command][0]
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"ring": ring, "steps": [*steps, {"op": op, "bind": "out", **args}]}))
    built = _run(capsys, ["build", pipe])
    idem = _run(capsys, _idem_argv(tmp_path, command, ring, steps, args))
    assert (idem[0], built[0]) == (code, code)
    if code == 0:  # one set: idem prints it bare, build as a typed output
        assert json.loads(built[1])["outputs"]["out"] == {"type": "idempotent_set", **json.loads(idem[1])}
        assert (idem[2], built[2]) == ("idempotent-set: PASS\n", "")
        return
    assert idem[1] == built[1] == ""
    said = re.fullmatch(r"(error|input error): (.*)", idem[2], re.S)
    failed = re.fullmatch(r"build failed: step \d+ \(\w+ -> \w+\): (.*)", built[2], re.S)
    assert said and failed, (idem[2], built[2])
    said_by_build = failed[1]
    if (command, label) == ("merge", "malformed"):  # idem names its flag, which counts members from 1
        assert said_by_build == "groups must partition 0..2\n"
        said_by_build = "--groups '1/1,2': groups must partition 1..3\n"
    assert said[2] == said_by_build
    if label == "malformed-value":  # a plain flag's value, refused naming its argument
        named = re.match(r"argument '(\w+)'", said[2])
        assert named and named[1] in args and not isinstance(OPS[op][1][named[1]], tuple), said[2]
