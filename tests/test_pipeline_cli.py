"""Tests for the pipeline executor and the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _fixtures import HADAMARD_4_REAL, P1, block4_real_w, c2_haar_w
import paraunitary
from paraunitary import pipeline
from paraunitary.cli import CLOSED_STDOUT, main
from paraunitary.constructors import tangle
from paraunitary.errors import InternalCheckError, SizeLimit
from paraunitary.idempotents import IdempotentSet, diagonal_set, verify_set
from paraunitary.pipeline import PipelineError, execute_pipeline
from paraunitary.polymatrix import PolyMatrix
from paraunitary.scalars import QQ, cyclotomic
from paraunitary.serialize import dumps, idemset_to_json, matrix_to_json


def test_pipeline_block_and_specialize():
    doc = {
        "ring": {"kind": "rational"},
        "steps": [
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
    }
    env = execute_pipeline(doc)
    assert env["W"] == block4_real_w()
    assert env["H"].cleared == HADAMARD_4_REAL


def test_pipeline_substitute_op():
    doc = {
        "ring": {"kind": "rational"},
        "steps": [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
            {
                "op": "monomial_sum",
                "bind": "W",
                "set": "$set",
                "coeffs": ["1", "1"],
                "exponents": [{"x": 0}, {"x": 1}],
            },
            {"op": "substitute", "bind": "W2", "matrix": "$W", "assign": {"x": "z"}},
            {"op": "verify_paraunitary", "bind": "check", "matrix": "$W2"},
        ],
    }
    env = execute_pipeline(doc)
    assert env["W2"] == c2_haar_w()


def test_pipeline_empty_and_errors():
    assert execute_pipeline({"ring": {"kind": "rational"}, "steps": []}) == {}
    with pytest.raises(PipelineError):
        execute_pipeline(
            {"ring": {"kind": "rational"}, "steps": [{"op": "rank", "matrix": "$nope"}]}
        )
    with pytest.raises(PipelineError):
        execute_pipeline({"ring": {"kind": "rational"}, "steps": [{"op": "wat"}]})
    # verification failure inside a pipeline surfaces as a step error
    bad = {
        "ring": {"kind": "rational"},
        "steps": [
            {"op": "matrix", "bind": "M", "entries": [["1", "0"], ["0", "2"]]},
            {"op": "verify_paraunitary", "bind": "chk", "matrix": "$M"},
        ],
    }
    with pytest.raises(PipelineError):
        execute_pipeline(bad)


def test_cli_idem_group(tmp_path, capsys):
    out = tmp_path / "set.json"
    code = main(
        ["idem", "group", "--family", "cyclic", "--order", "2", "--ring", "rational", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 2
    assert doc["members"][0]["entries"] == [["(1/2)", "(1/2)"], ["(1/2)", "(1/2)"]]


def test_cli_idem_s3(tmp_path):
    out = tmp_path / "s3.json"
    assert main(["idem", "group", "--family", "s3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 6 and len(doc["members"]) == 3


def test_cli_idem_basis(tmp_path):
    vecfile = tmp_path / "vectors.json"
    vecfile.write_text(
        json.dumps(
            {"vectors": [["2/3", "1/3", "2/3"], ["1/3", "2/3", "-2/3"], ["2/3", "-2/3", "-1/3"]]}
        )
    )
    out = tmp_path / "set.json"
    code = main(
        ["idem", "basis", "--vectors", str(vecfile), "--groups", "1/2,3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 3 and len(doc["members"]) == 2
    assert doc["members"][0] == matrix_to_json(P1)


def test_cli_verify_paraunitary(tmp_path):
    good = tmp_path / "w.json"
    good.write_text(dumps(matrix_to_json(c2_haar_w())))
    assert main(["verify", str(good), "--mode", "paraunitary"]) == 0
    tampered = tmp_path / "bad.json"
    doc = matrix_to_json(c2_haar_w())
    doc["entries"][0][0] = "(1/2) + z"
    tampered.write_text(dumps(doc))
    assert main(["verify", str(tampered), "--mode", "paraunitary"]) == 1
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["verify", str(garbage), "--mode", "paraunitary"]) == 2


def test_cli_verify_idemset(tmp_path):
    from _fixtures import F5_SET
    from paraunitary.idempotents import IdempotentSet

    f = tmp_path / "set.json"
    f.write_text(dumps(idemset_to_json(IdempotentSet(F5_SET))))
    assert main(["verify", str(f), "--mode", "idemset"]) == 0
    doc = idemset_to_json(IdempotentSet(F5_SET))
    doc["members"][0]["entries"][0][0] = "2"  # tamper one entry
    f.write_text(dumps(doc))
    assert main(["verify", str(f), "--mode", "idemset"]) == 1
    doc["members"] = doc["members"][:1]  # malformed: labels no longer match
    f.write_text(dumps(doc))
    assert main(["verify", str(f), "--mode", "idemset"]) == 2


def test_cli_build_and_exit_codes(tmp_path):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(
        json.dumps(
            {
                "ring": {"kind": "rational"},
                "steps": [
                    {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
                    {
                        "op": "monomial_sum",
                        "bind": "W",
                        "set": "$set",
                        "coeffs": ["1", "1"],
                        "exponents": [0, 1],
                    },
                ],
            }
        )
    )
    out = tmp_path / "result.json"
    assert main(["build", str(pipe), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["outputs"]["W"]["entries"] == matrix_to_json(c2_haar_w())["entries"]
    # empty pipeline exits 0
    pipe.write_text(json.dumps({"ring": {"kind": "rational"}, "steps": []}))
    assert main(["build", str(pipe)]) == 0
    # failing verification step exits 1
    pipe.write_text(
        json.dumps(
            {
                "ring": {"kind": "rational"},
                "steps": [
                    {"op": "matrix", "bind": "M", "entries": [["1", "0"], ["0", "2"]]},
                    {"op": "verify_paraunitary", "bind": "chk", "matrix": "$M"},
                ],
            }
        )
    )
    assert main(["build", str(pipe)]) == 1
    # malformed pipeline exits 2
    pipe.write_text(json.dumps({"steps": []}))
    assert main(["build", str(pipe)]) == 2


def test_cli_factor_rank1_of_a_higher_rank_exits_as_rank_0_does(tmp_path, capsys):
    # a refused input of the op, not an internal fault: exit 1, as for rank 0
    pipe = tmp_path / "pipe.json"
    for entries, message in [
        ([["1", "0"], ["0", "1"]], "input has rank 2, not 1"),
        ([["0", "0"], ["0", "0"]], "zero diagonal: input has rank 0"),
    ]:
        pipe.write_text(json.dumps({
            "ring": {"kind": "rational"},
            "steps": [
                {"op": "matrix", "bind": "P", "entries": entries},
                {"op": "factor_rank1", "bind": "v", "matrix": "$P"},
            ],
        }))
        assert main(["build", str(pipe)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"build failed: step 2 (factor_rank1 -> v): {message}\n"


@pytest.mark.parametrize(
    "steps, message",
    [
        ([{"op": "matrix", "bind": "P", "entries": [["z", "0"], ["0", "0"]]}, {"op": "factor_rank1", "matrix": "$P"}],
         "rank-1 factorization applies to scalar matrices"),
        ([{"op": "idem_set", "members": []}], "empty member list"),
        ([{"op": "identity", "bind": "A", "n": 1}, {"op": "identity", "bind": "B", "n": 2},
          {"op": "idem_set", "members": ["$A", "$B"]}], "members must be square of one size"),
        # a non-square matrix once exited 0 (1x2, 2x3) or 2 with an IndexError (3x2)
        *[([{"op": "matrix", "bind": "P", "entries": entries}, {"op": "factor_rank1", "matrix": "$P"}],
           f"square matrix required, got {len(entries)}x{len(entries[0])}")
          for entries in ([["1", "0"]], [["1", "0", "0"], ["0", "0", "0"]], [["1", "0"], ["0", "0"], ["0", "0"]])],
    ],
    ids=["factor-rank1-laurent", "empty-set", "mixed-sizes", "factor-rank1-1x2", "factor-rank1-2x3", "factor-rank1-3x2"],
)
def test_cli_a_shape_error_is_an_input_error_not_a_failed_check(tmp_path, capsys, steps, message):
    # each once exited 1, as a set or a factorization that failed its check
    steps = [*steps[:-1], dict(steps[-1], bind="x")]
    code, err = _build(tmp_path, capsys, steps)
    assert (code, err) == (2, f"build failed: step {len(steps)} ({steps[-1]['op']} -> x): {message}\n")


@pytest.mark.parametrize(
    "steps",
    [
        [{"op": "verify_paraunitary", "matrix": []}],
        [{"op": "rows_set", "matrix": []}],
        [{"op": "realify_set", "set": []}],
        [{"op": "identity", "bind": "M", "n": 2}, {"op": "substitute", "matrix": "$M", "assign": []}],
        [{"op": "identity", "bind": "M", "n": 2}, {"op": "tangle", "a": "$M", "b": "$M", "variant": []}],
    ],
    ids=["verify-paraunitary", "rows-set", "realify-set", "substitute", "tangle"],
)
def test_cli_an_empty_list_is_named_as_such(tmp_path, capsys, steps):
    # each message once read "got a list of matrices"
    steps = [*steps[:-1], dict(steps[-1], bind="x")]
    name, wanted = {
        "verify_paraunitary": ("matrix", "a matrix"),
        "rows_set": ("matrix", "a matrix"),
        "realify_set": ("set", "an idempotent set"),
        "substitute": ("assign", "an object"),
        "tangle": ("variant", "an object with keys order, base, perm, transpose"),
    }[steps[-1]["op"]]
    code, err = _build(tmp_path, capsys, steps)
    prefix = f"build failed: step {len(steps)} ({steps[-1]['op']} -> x)"
    assert (code, err) == (2, f"{prefix}: argument {name!r} must be {wanted}, got an empty list\n")


@pytest.mark.parametrize("conductor", [3, 5, 6])
def test_cli_a_group_with_rational_characters_builds_over_any_conductor(tmp_path, capsys, conductor):
    # every character of D8 is rational, but its values were cast from Q(zeta_4), and the
    # conductor test refused them where 4 does not divide the conductor
    out = tmp_path / "d8.json"
    argv = ["idem", "group", "--family", "dihedral", "--order", "8", "--ring", "cyclotomic"]
    assert main([*argv, "--conductor", str(conductor), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "idempotent-set: PASS\n"
    assert main(["verify", str(out), "--mode", "idemset"]) == 0
    assert len(json.loads(out.read_text())["members"]) == 5


def test_cli_a_missing_root_of_unity_names_the_character_that_needs_it(capsys):
    # chi0 was named: its rational values were refused before those of chi1
    argv = ["idem", "group", "--family", "cyclic", "--order", "4", "--ring", "cyclotomic", "--conductor", "6"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: character chi1 needs roots of unity missing from Q(zeta_6)\n"


def test_cli_a_matrix_that_is_not_square_is_named_as_such_by_idem_and_build(tmp_path, capsys):
    # the message was the bare shape "2x3"
    entries = [["1", "0", "0"], ["0", "1", "0"]]
    steps = [{"op": "matrix", "bind": "M", "entries": entries}, {"op": "rows_set", "bind": "x", "matrix": "$M"}]
    code, err = _build(tmp_path, capsys, steps)
    assert (code, err) == (2, "build failed: step 2 (rows_set -> x): square matrix required, got 2x3\n")
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(matrix_to_json(PolyMatrix(QQ, entries))))
    assert main(["idem", "rows", "--matrix", str(matrix)]) == 2
    assert capsys.readouterr().err == "error: square matrix required, got 2x3\n"


def test_cli_det_rank(tmp_path, capsys):
    f = tmp_path / "m.json"
    m = P1.scale(2) + (PolyMatrix.identity(QQ, 3) - P1).scale(3)
    f.write_text(dumps(matrix_to_json(m)))
    assert main(["det", "--matrix", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "18"
    f2 = tmp_path / "p1.json"
    f2.write_text(dumps(matrix_to_json(P1)))
    assert main(["rank", "--matrix", str(f2)]) == 0
    assert "rank 1" in capsys.readouterr().out


@pytest.mark.parametrize("entries, names", [([["z"]], "z"), ([["x", "y"], ["1", "x*y"]], "x, y")], ids=["z", "x-y"])
def test_cli_rank_and_hadamard_name_the_variables_of_a_matrix_as_plain_names(tmp_path, capsys, entries, names):
    # the names were once printed as a Python tuple, ('z',) and ('x', 'y')
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": {"kind": "rational"}, "entries": entries}))
    assert main(["rank", "--matrix", str(f)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: matrix has variables {names}\n")
    assert main(["verify", str(f), "--mode", "hadamard"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: matrix still has variables {names}\n")


@pytest.mark.parametrize(
    "command, fmt, expected",
    [
        ("det", "text", "18"),
        ("det", "json", {"determinant": "18"}),
        ("rank", "text", "rank 3, trace 8"),
        ("rank", "json", {"rank": 3, "trace": "8"}),
    ],
)
def test_cli_det_rank_out_holds_what_stdout_would(tmp_path, capsys, command, fmt, expected):
    f = tmp_path / "m.json"
    f.write_text(dumps(matrix_to_json(P1.scale(2) + (PolyMatrix.identity(QQ, 3) - P1).scale(3))))
    argv = [command, "--matrix", str(f), "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert (printed.rstrip("\n") if fmt == "text" else json.loads(printed)) == expected
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_cli_tangle_of_a_non_paraunitary_matrix_is_a_failed_build(tmp_path, capsys):
    steps = [
        {"op": "matrix", "bind": "A", "entries": [["1", "1"], ["0", "1"]]},
        {"op": "identity", "bind": "B", "n": 2},
        {"op": "tangle", "bind": "W", "a": "$A", "b": "$B"},
    ]
    code, err = _build(tmp_path, capsys, steps, {"kind": "cyclotomic", "conductor": 8})
    assert code == 1
    assert err.startswith("build failed: step 3 (tangle -> W): tangle block a is not paraunitary:")
    assert "internal error" not in err


def test_cli_idempotent_inverse_of_matrices_that_are_not_a_set_is_a_failed_build(tmp_path, capsys):
    # the member list is proven as a set before the inverse is formed, so the
    # set check's verdict is the build's: exit 1, not 3
    a, b = [["1", "1"], ["0", "1"]], [["0", "0"], ["0", "1"]]
    steps = [
        {"op": "matrix", "bind": "a", "entries": a},
        {"op": "matrix", "bind": "b", "entries": b},
        {"op": "idempotent_inverse", "bind": "inv", "coeffs": ["2", "3"], "set": ["$a", "$b"]},
    ]
    code, err = _build(tmp_path, capsys, steps)
    members = [PolyMatrix(QQ, a), PolyMatrix(QQ, b)]
    summary = verify_set(IdempotentSet(members, check=False)).summary()
    assert code == 1
    assert err == f"build failed: step 3 (idempotent_inverse -> inv): {summary}\n"
    assert "members do not sum to the identity" in summary


def test_cli_spectral_step_short_of_the_dimension_is_an_input_error(tmp_path, capsys):
    # two orthonormal vectors in Q^3 can never give U U* = I: exit 2, not 3
    steps = [{"op": "spectral", "bind": "U", "vectors": [["1", "0", "0"], ["0", "1", "0"]], "units": ["1", "-1"]}]
    code, err = _build(tmp_path, capsys, steps)
    assert code == 2
    assert err == (
        "build failed: step 1 (spectral -> U): "
        "U U* = I needs n orthonormal vectors in n coordinates, got 2\n"
    )


def test_cli_specialize(tmp_path):
    f = tmp_path / "w.json"
    f.write_text(dumps(matrix_to_json(c2_haar_w())))
    out = tmp_path / "h.json"
    assert main(["specialize", "--matrix", str(f), "--assign", "z=-1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["is_hadamard"] is False  # specializing at -1 gives a permutation-like matrix
    assert doc["ok"] is True


def test_cli_catalog(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "s3-idempotents" in out
    assert int(out.strip().splitlines()[-1].split()[0]) >= 20
    assert main(["catalog", "run", "--id", "s3-idempotents"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["catalog", "run", "--id", "f5-orthogonal-set"]) == 0
    capsys.readouterr()
    assert main(["catalog", "diff", "--id", "c2-idempotents"]) == 0
    assert "no differences" in capsys.readouterr().out


def test_cli_round_trip_emitted_files(tmp_path):
    out = tmp_path / "diag.json"
    assert main(["idem", "diagonal", "--n", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    from paraunitary.serialize import idemset_from_json

    assert idemset_from_json(doc) == diagonal_set(QQ, 3)


def test_cli_verify_idemset_prints_each_failure_once(tmp_path, capsys):
    from _fixtures import F5_SET
    from paraunitary.idempotents import IdempotentSet

    doc = idemset_to_json(IdempotentSet(F5_SET))
    doc["members"][0]["entries"][0][0] = "2"
    f = tmp_path / "set.json"
    f.write_text(dumps(doc))
    assert main(["verify", str(f), "--mode", "idemset"]) == 1
    assert capsys.readouterr().out == (
        "idempotent-set: FAIL\n"
        "  member 1 is not idempotent\n"
        "  members 1,2 are not orthogonal\n"
        "  members 1,3 are not orthogonal\n"
        "  members 2,1 are not orthogonal\n"
        "  members 3,1 are not orthogonal\n"
        "  members do not sum to the identity\n"
    )


def _assert_input_error(argv, capsys, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert "Traceback" not in err


def test_cli_unknown_catalog_id_is_an_input_error(capsys):
    _assert_input_error(["catalog", "run", "--id", "nope"], capsys, "no catalog entry 'nope'")


def test_cli_group_order_zero_is_an_input_error(capsys):
    _assert_input_error(
        ["idem", "group", "--family", "cyclic", "--order", "0"], capsys, "positive order"
    )


def test_cli_build_with_conductor_zero_is_an_input_error(tmp_path, capsys):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"ring": {"kind": "cyclotomic", "conductor": 0}, "steps": []}))
    _assert_input_error(["build", str(pipe)], capsys, "conductor >= 1")


def test_cli_verify_with_p_four_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": {"kind": "prime_field", "p": 4}, "entries": [["1"]]}))
    _assert_input_error(["verify", str(f), "--mode", "paraunitary"], capsys, "got 4")


def test_cli_basis_vectors_file_that_is_a_list_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "vectors.json"
    f.write_text(json.dumps([[1, 0], [0, 1]]))
    _assert_input_error(["idem", "basis", "--vectors", str(f)], capsys, "expected an object")


@pytest.mark.parametrize(
    "bad, message",
    [
        ("a", "argument 'vectors': bad coordinate 'a'"),
        (1.5, "argument 'vectors': coordinate must be an integer, got 1.5"),
        (None, "argument 'vectors': coordinate must be an integer, got None"),
    ],
)
def test_cli_basis_finite_non_integer_coordinate_is_an_input_error(tmp_path, capsys, bad, message):
    f = tmp_path / "vectors.json"
    f.write_text(json.dumps({"vectors": [[bad, "1"], ["1", "0"]]}))
    _assert_input_error(
        ["idem", "basis-finite", "--vectors", str(f), "--ring", "prime_field", "--prime", "5"],
        capsys,
        message,
    )


def _fail_self_check(*args, **kwargs):
    raise InternalCheckError("monomial_sum failed its paraunitarity check")


def _assert_internal_error(argv, capsys, message):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and message in err
    assert "Traceback" not in err


def test_cli_internal_fault_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "from_group", _fail_self_check)
    _assert_internal_error(
        ["idem", "group", "--family", "cyclic", "--order", "2"],
        capsys,
        "monomial_sum failed its paraunitarity check",
    )


def test_cli_build_with_an_internal_fault_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "monomial_sum", _fail_self_check)
    pipe = tmp_path / "pipe.json"
    pipe.write_text(
        json.dumps(
            {
                "ring": {"kind": "rational"},
                "steps": [
                    {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
                    {
                        "op": "monomial_sum",
                        "bind": "W",
                        "set": "$set",
                        "coeffs": ["1", "1"],
                        "exponents": [0, 1],
                    },
                ],
            }
        )
    )
    _assert_internal_error(
        ["build", str(pipe)], capsys, "step 2 (monomial_sum -> W): monomial_sum failed"
    )


def test_cli_prime_field_group_names_the_character_that_is_not_self_conjugate(capsys):
    argv = ["idem", "group", "--family", "cyclic", "--order", "3", "--ring", "prime_field", "--prime", "7"]
    assert main(argv) == 1  # the symmetry clause of the set fails, as through build
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: e(chi1) is not symmetric: character chi1 is not self-conjugate"
        " under the involution of F_7\n"
    )


# --- input limits: each holds at the limit and fails one step past it --------

def _verify_entry(tmp_path, text):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": {"kind": "rational"}, "entries": [[text]]}))
    return ["verify", str(f), "--mode", "paraunitary"]


@pytest.mark.parametrize("sign", ["", "-"])
def test_cli_exponent_limit(tmp_path, capsys, sign):
    from paraunitary.laurent import MAX_EXPONENT

    # z^e z^-e = 1, so a 1x1 matrix [z^e] is paraunitary at the limit
    assert main(_verify_entry(tmp_path, f"z^{sign}{MAX_EXPONENT}")) == 0
    capsys.readouterr()
    _assert_input_error(
        _verify_entry(tmp_path, f"z^{sign}{MAX_EXPONENT + 1}"), capsys, "exceeds the input limit"
    )


def test_cli_nesting_limit(tmp_path, capsys):
    from paraunitary.laurent import MAX_NESTING

    def nested(depth):
        return "(" * depth + "1" + ")" * depth

    assert main(_verify_entry(tmp_path, nested(MAX_NESTING))) == 0
    capsys.readouterr()
    _assert_input_error(_verify_entry(tmp_path, nested(MAX_NESTING + 1)), capsys, "nested deeper")


def _det_entry(tmp_path, text):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": {"kind": "rational"}, "entries": [[text]]}))
    return ["det", "--matrix", str(f)]


def _powers(n):
    """1 + x + ... + x^(n-1): n terms."""
    return "(" + " + ".join(f"x^{i}" for i in range(n)) + ")"


def test_cli_term_pair_limit_of_a_product(tmp_path, capsys):
    from paraunitary.laurent import MAX_TERM_PAIRS

    a = 256
    b = MAX_TERM_PAIRS // a
    assert a * b == MAX_TERM_PAIRS
    assert main(_det_entry(tmp_path, f"{_powers(a)}*{_powers(b)}")) == 0
    capsys.readouterr()
    _assert_input_error(
        _det_entry(tmp_path, f"{_powers(a)}*{_powers(b + 1)}"), capsys, f"input limit of {MAX_TERM_PAIRS} term pairs"
    )


def test_cli_term_pair_limit_of_a_power(tmp_path, capsys):
    from paraunitary.laurent import MAX_TERM_PAIRS

    a = 256
    assert a * a == MAX_TERM_PAIRS
    assert main(_det_entry(tmp_path, f"{_powers(a)}^2")) == 0
    capsys.readouterr()
    _assert_input_error(_det_entry(tmp_path, f"{_powers(a + 1)}^2"), capsys, "term pairs")
    # refused at the first squaring past the limit, long before the full power
    _assert_input_error(_det_entry(tmp_path, "(1+x+y)^999"), capsys, "term pairs")


def test_cli_zero_denominator_is_an_input_error(tmp_path, capsys):
    _assert_input_error(_verify_entry(tmp_path, "1/0"), capsys, "zero denominator")


def _build(tmp_path, capsys, steps, ring=None, flags=()):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"ring": ring or {"kind": "rational"}, "steps": steps}))
    code = main(["build", str(pipe), *flags])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


def test_pipeline_exponent_limit_in_json(tmp_path, capsys):
    from paraunitary.laurent import MAX_EXPONENT

    def steps(e):
        return [
            {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
            {"op": "monomial_sum", "bind": "W", "set": "$set", "coeffs": ["1", "1"],
             "exponents": [{"z": 0}, {"z": e}]},
        ]

    assert _build(tmp_path, capsys, steps(MAX_EXPONENT)) == (0, "")
    code, err = _build(tmp_path, capsys, steps(MAX_EXPONENT + 1))
    assert code == 2 and "exceeds the input limit" in err
    code, err = _build(tmp_path, capsys, [steps(0)[0], dict(steps(0)[1], exponents=[0, MAX_EXPONENT + 1])])
    assert code == 2 and "exceeds the input limit" in err


def test_pipeline_basis_finite_set_refuses_a_non_integer_coordinate(tmp_path, capsys):
    f7 = {"kind": "prime_field", "p": 7}

    def steps(x):
        return [{"op": "basis_finite_set", "bind": "set", "vectors": [[1, x], [2, -1]]}]

    assert _build(tmp_path, capsys, steps(2), f7) == (0, "")
    code, err = _build(tmp_path, capsys, steps(1.9), f7)
    assert code == 2 and "argument 'vectors': coordinate must be an integer, got 1.9" in err


def _tensor_sets(family_a, family_b, ring=None):
    """Steps that build two sets, each a ``diagonal_set`` of size n or a
    group set (name, order), and their ``tensor_sets``."""
    steps = []
    for name, family in (("a", family_a), ("b", family_b)):
        if isinstance(family, int):
            steps.append({"op": "diagonal_set", "bind": name, "n": family})
        else:
            steps.append({"op": "group_set", "bind": name, "family": family[0], "order": family[1]})
    return steps + [{"op": "tensor_sets", "bind": "t", "a": "$a", "b": "$b"}]


def _tensor_of(*parts):
    """Steps that build one matrix per (op, args) part and compose them in
    tensor mode."""
    steps = [dict(args, op=op, bind=f"m{i}") for i, (op, args) in enumerate(parts)]
    return steps + [{"op": "compose", "bind": "t", "parts": [f"$m{i}" for i in range(len(parts))], "mode": "tensor"}]


def test_tensor_sets_past_the_entry_limit_is_refused_at_once(tmp_path, capsys):
    from paraunitary.polymatrix import MAX_ENTRIES

    # the diagonal set of size n holds n members of n x n: n^3 entries, and
    # its tensor set with itself n^6 (2^30 at n = 32)
    started = time.perf_counter()
    code, err = _build(tmp_path, capsys, _tensor_sets(32, 32))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and err == (
        f"build failed: step 3 (tensor_sets -> t): the tensor set of 1024 members of 1024x1024"
        f" would need {2 ** 30} entries, past the input limit of {MAX_ENTRIES}\n"
    )
    # 8^6 = 2^18 entries is the limit itself; one size more is past it
    assert 8**6 == MAX_ENTRIES and _build(tmp_path, capsys, _tensor_sets(8, 8)) == (0, "")
    code, err = _build(tmp_path, capsys, _tensor_sets(8, 9))
    assert code == 2 and f"would need {72**3} entries, past the input limit" in err


def test_a_tensor_product_past_the_entry_limit_is_refused(tmp_path, capsys):
    from paraunitary.polymatrix import MAX_ENTRIES

    # compose in tensor mode forms one tensor product per part after the first
    at_limit = _tensor_of(("identity", {"n": 32}), ("identity", {"n": 16}))
    assert 512 * 512 == MAX_ENTRIES and _build(tmp_path, capsys, at_limit) == (0, "")
    code, err = _build(tmp_path, capsys, _tensor_of(("identity", {"n": 32}), ("identity", {"n": 17})))
    assert code == 2 and err == (
        f"build failed: step 3 (compose -> t): the tensor product of 32x32 and 17x17"
        f" would need {(32 * 17) ** 2} entries, past the input limit of {MAX_ENTRIES}\n"
    )


def test_a_tensor_product_past_the_term_product_limit_is_refused(tmp_path, capsys):
    from paraunitary.polymatrix import MAX_ENTRIES

    def powers(n):
        return {"entries": [[" + ".join(f"x^{i}" for i in range(n))]]}

    # two 1 x 1 matrices of 512 terms each: 2^18 term products, then one more row
    at_limit = _tensor_of(("matrix", powers(512)), ("matrix", powers(512)))
    assert 512 * 512 == MAX_ENTRIES and _build(tmp_path, capsys, at_limit) == (0, "")
    code, err = _build(tmp_path, capsys, _tensor_of(("matrix", powers(512)), ("matrix", powers(513))))
    assert code == 2 and err == (
        f"build failed: step 3 (compose -> t): the tensor product of 1x1 and 1x1"
        f" would need {512 * 513} term products, past the input limit of {MAX_ENTRIES}\n"
    )
    # the tensor cube of an 8 x 8 monomial sum of 8 powers of z: its 2^18
    # entries are within the limit, its term products are not
    cyclic_sum = [
        {"op": "group_set", "bind": "g", "family": "cyclic", "order": 8},
        {"op": "monomial_sum", "bind": "w", "set": "$g", "coeffs": ["1"] * 8, "exponents": list(range(8))},
        {"op": "compose", "bind": "t", "parts": ["$w", "$w", "$w"], "mode": "tensor"},
    ]
    started = time.perf_counter()
    code, err = _build(tmp_path, capsys, cyclic_sum, {"kind": "cyclotomic", "conductor": 8})
    assert time.perf_counter() - started < 1.0
    assert code == 2 and "the tensor product of 64x64 and 8x8 would need" in err and "term products" in err


def test_the_largest_tensor_set_within_the_limit_is_built_in_bounded_time(tmp_path, capsys):
    from paraunitary.polymatrix import MAX_ENTRIES

    # the cyclic group set of order 8 over Q(zeta_8) has 8 dense members of
    # 8 x 8, 512 terms in all: its tensor set with itself is at both limits,
    # 64 members of 64 x 64 from 2^18 term products.  1.6 to 2.5 s on a
    # 2-core x86 VM, 7.7 MB of JSON.
    out = tmp_path / "t.json"
    pipe = tmp_path / "pipe.json"
    steps = _tensor_sets(("cyclic", 8), ("cyclic", 8))
    pipe.write_text(json.dumps({"ring": {"kind": "cyclotomic", "conductor": 8}, "steps": steps}))
    started = time.perf_counter()
    assert main(["build", str(pipe), "--out", str(out)]) == 0
    assert time.perf_counter() - started < 20.0
    doc = json.loads(out.read_text())["outputs"]["t"]
    assert len(doc["members"]) * doc["n"] ** 2 == MAX_ENTRIES


def test_matrix_and_set_files_past_the_entry_limit_are_refused_before_parsing(tmp_path, capsys, monkeypatch):
    from paraunitary import serialize
    from paraunitary.polymatrix import MAX_ENTRIES

    parsed = []
    original = serialize.poly_from_text
    monkeypatch.setattr(serialize, "poly_from_text", lambda *a: parsed.append(a) or original(*a))
    f = tmp_path / "m.json"

    def zeros(rows, cols):
        return {"ring": {"kind": "rational"}, "rows": rows, "cols": cols, "entries": [["0"] * cols] * rows}

    # 512 x 512 is the limit itself; one row more is past it
    f.write_text(json.dumps(zeros(512, 512)))
    assert 512 * 512 == MAX_ENTRIES and main(["verify", str(f), "--mode", "pseudo"]) == 1
    assert capsys.readouterr() == ("pseudo-paraunitary: FAIL\n", "") and parsed
    parsed.clear()
    f.write_text(json.dumps(zeros(513, 512)))
    started = time.perf_counter()
    assert main(["verify", str(f), "--mode", "paraunitary"]) == 2
    assert time.perf_counter() - started < 1.0
    message = f"past the input limit of {MAX_ENTRIES}\n"
    assert capsys.readouterr() == ("", f"input error: the matrix holds {513 * 512} entries, {message}")
    # a set counts the entries of all its members: 2 members of 512 x 512
    member = zeros(512, 512)
    f.write_text(json.dumps({"ring": member["ring"], "n": 512, "members": [member, member]}))
    assert main(["verify", str(f), "--mode", "idemset"]) == 2
    assert capsys.readouterr() == ("", f"input error: the set holds {2 * 512 * 512} entries, {message}")
    assert not parsed


# --- former tracebacks: each is an input error now ---------------------------

def _s3_set_file(tmp_path):
    f = tmp_path / "s3.json"
    assert main(["idem", "group", "--family", "s3", "--out", str(f)]) == 0
    return str(f)


def test_cli_merge_groups_that_are_not_numbers_is_an_input_error(tmp_path, capsys):
    s3 = _s3_set_file(tmp_path)
    capsys.readouterr()
    _assert_input_error(["idem", "merge", "--set", s3, "--groups", "a"], capsys, "1-based indices")


@pytest.mark.parametrize("groups", ["1/2", "1/2,3/3", "1//2,3"])
def test_cli_merge_groups_that_do_not_partition_the_set_is_an_input_error(tmp_path, capsys, groups):
    s3 = _s3_set_file(tmp_path)
    capsys.readouterr()
    _assert_input_error(
        ["idem", "merge", "--set", s3, "--groups", groups], capsys, "groups must partition 1..3"
    )


def test_cli_basis_groups_that_do_not_partition_the_basis_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "vectors.json"
    f.write_text(json.dumps({"vectors": [["1", "0"], ["0", "1"]]}))
    _assert_input_error(
        ["idem", "basis", "--vectors", str(f), "--groups", "1"], capsys, "groups must partition 1..2"
    )


def test_pipeline_merge_groups_that_do_not_partition_the_set_exits_2(tmp_path, capsys):
    steps = [
        {"op": "group_set", "bind": "set", "family": "s3"},
        {"op": "merge_set", "bind": "m", "set": "$set", "groups": [[0], [1]]},
    ]
    code, err = _build(tmp_path, capsys, steps)
    assert code == 2 and "groups must partition 0..2" in err


def test_cli_partition_error_counts_from_one_like_groups(tmp_path, capsys):
    # --groups counts members from 1; the message must not name 0-based indices
    s3 = _s3_set_file(tmp_path)
    capsys.readouterr()
    assert main(["idem", "merge", "--set", s3, "--groups", "2/3"]) == 2
    err = capsys.readouterr().err
    assert "--groups '2/3': groups must partition 1..3" in err and "0..2" not in err


def test_pipeline_partition_error_counts_from_zero_like_the_file(tmp_path, capsys):
    # a pipeline file's groups count members from 0, as its message does
    steps = [
        {"op": "group_set", "bind": "set", "family": "s3"},
        {"op": "merge_set", "bind": "m", "set": "$set", "groups": [[1], [2, 3]]},
    ]
    code, err = _build(tmp_path, capsys, steps)
    assert code == 2 and "groups must partition 0..2" in err and "1..3" not in err


def test_cli_specialize_value_that_is_not_constant_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "w.json"
    f.write_text(dumps(matrix_to_json(c2_haar_w())))
    _assert_input_error(
        ["specialize", "--matrix", str(f), "--assign", "z=abc"], capsys, "abc is not constant"
    )


def test_cli_specialize_variable_assigned_twice_is_an_input_error(tmp_path, capsys):
    # the last value once won silently, with exit 0
    f = tmp_path / "w.json"
    f.write_text(dumps(matrix_to_json(c2_haar_w())))
    _assert_input_error(
        ["specialize", "--matrix", str(f), "--assign", "z=1, z=-1"], capsys, "variable 'z' is assigned twice"
    )


@pytest.mark.parametrize("ring", ["rational", ["rational"], {"kind": "cyclotomic"}, {"kind": "prime_field", "p": [7]}])
def test_cli_matrix_with_a_malformed_ring_is_an_input_error(tmp_path, capsys, ring):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": ring, "entries": [["1"]]}))
    _assert_input_error(["verify", str(f), "--mode", "paraunitary"], capsys, "bad ring descriptor")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--ring", "prime_field", "--prime", "4"], "got 4"),
        (["--ring", "cyclotomic", "--conductor", "-3"], "conductor >= 1"),
        (["--ring", "cyclotomic"], "missing 'conductor'"),
        (["--ring", "prime_field"], "missing 'p'"),
    ],
)
def test_cli_bad_ring_flags_are_input_errors(capsys, flags, message):
    _assert_input_error(["idem", "diagonal", "--n", "2", *flags], capsys, message)


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"kind": "prime_field", "p": 7, "conductor": 8}, "prime field takes no conductor"),
        ({"kind": "rational", "conductor": 5}, "rational ring takes no parameters"),
        ({"kind": "rational", "typo": 1}, "unknown key 'typo'"),
    ],
)
def test_cli_ring_key_its_kind_does_not_take_is_an_input_error(tmp_path, capsys, ring, message):
    """A ring descriptor with a parameter of another kind, or a key no kind
    takes, is refused by name, never read as the ring of its kind alone."""
    _assert_input_error(_ring_file(tmp_path, ring), capsys, message)


def test_cli_ring_flag_its_kind_does_not_take_is_an_input_error(capsys):
    argv = ["idem", "diagonal", "--n", "2", "--ring", "rational", "--prime", "7"]
    _assert_input_error(argv, capsys, "rational ring takes no parameters")


# --- ring size limits: each holds at the limit and fails one step past it ----

def _ring_file(tmp_path, ring):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": ring, "entries": [["1"]]}))
    return ["verify", str(f), "--mode", "paraunitary"]


def test_cli_degree_limit(tmp_path, capsys):
    """Q(zeta_N) is held to its degree phi(N): 512 and 257 are at the limit,
    1050 is the largest conductor admitted, and 263, the first conductor
    past it, and 1024 are refused."""
    from paraunitary.scalars import MAX_DEGREE, euler_phi

    argv = ["idem", "diagonal", "--n", "1", "--ring", "cyclotomic", "--conductor"]
    for n in (257, 512, 1050):
        assert euler_phi(n) <= MAX_DEGREE
        assert main(_ring_file(tmp_path, {"kind": "cyclotomic", "conductor": n})) == 0
        assert main([*argv, str(n)]) == 0
    capsys.readouterr()
    for n in (263, 1024):
        assert euler_phi(n) > MAX_DEGREE
        message = f"the degree phi({n}) of conductor {n} exceeds the limit {MAX_DEGREE}"
        _assert_input_error(_ring_file(tmp_path, {"kind": "cyclotomic", "conductor": n}), capsys, message)
        _assert_input_error([*argv, str(n)], capsys, message)


def test_a_matrix_over_a_prime_conductor_past_the_degree_limit_is_refused_at_once(tmp_path, capsys):
    """A dense inverse in Q(zeta_1021) took 155 s; a matrix file over that
    ring now exits 2 before any table is built."""
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": {"kind": "cyclotomic", "conductor": 1021}, "entries": [["1", "zeta"], ["x", "1"]]}))
    start = time.perf_counter()
    _assert_input_error(["det", "--matrix", str(f)], capsys, "the degree phi(1021) of conductor 1021 exceeds the limit")
    assert time.perf_counter() - start < 1.0


def test_cli_prime_limit(tmp_path, capsys):
    from paraunitary.scalars import MAX_PRIME, is_prime

    assert is_prime(MAX_PRIME) and not any(is_prime(p) for p in range(MAX_PRIME + 1, 2**32))
    assert main(_ring_file(tmp_path, {"kind": "prime_field", "p": MAX_PRIME})) == 0
    argv = ["idem", "diagonal", "--n", "1", "--ring", "prime_field", "--prime"]
    assert main([*argv, str(MAX_PRIME)]) == 0
    capsys.readouterr()
    # one step past the limit, and a prime far past it, fail before any primality test
    for p in (MAX_PRIME + 1, 2**61 - 1):
        message = f"prime {p} exceeds the limit {MAX_PRIME}"
        _assert_input_error(_ring_file(tmp_path, {"kind": "prime_field", "p": p}), capsys, message)
    _assert_input_error([*argv, str(MAX_PRIME + 1)], capsys, f"prime {MAX_PRIME + 1} exceeds the limit {MAX_PRIME}")
    # --prime is read as every integer field is (scalars.input_int): 19 digits are refused as text
    _assert_input_error([*argv, str(2**61 - 1)], capsys, f"bad p '{2**61 - 1}'")


# --- integer input fields: a JSON integer or a decimal string, nothing else --

def _cyclic_grid_steps(order):
    return [
        {"op": "group_set", "bind": "set", "family": "cyclic", "order": 2},
        {"op": "block_arrangement", "bind": "W", "set": "$set", "grid_family": "cyclic",
         "grid_order": order, "cells": [["x", "y"], ["y", "x"]]},
    ]


# field -> (ring, steps of a value); each is run with a valid and an invalid value
INTEGER_FIELDS = {
    "conductor": (lambda v: {"kind": "cyclotomic", "conductor": v}, lambda v: [{"op": "identity", "n": 2}]),
    "p": (lambda v: {"kind": "prime_field", "p": v}, lambda v: [{"op": "identity", "n": 2}]),
    "n": (lambda v: None, lambda v: [{"op": "identity", "n": v}]),
    "index": (
        lambda v: None,
        lambda v: [{"op": "group_set", "bind": "set", "family": "s3"},
                   {"op": "member", "set": "$set", "index": v}],
    ),
    "order": (lambda v: None, lambda v: [{"op": "group_set", "family": "cyclic", "order": v}]),
    "grid_order": (lambda v: None, _cyclic_grid_steps),
    # (1, v) and (2, -1) are orthogonal over F_7 for v = 2 mod 7
    "coordinate": (
        lambda v: {"kind": "prime_field", "p": 7},
        lambda v: [{"op": "basis_finite_set", "vectors": [[1, v], [2, -1]]}],
    ),
}


@pytest.mark.parametrize(
    "field, valid, invalid, message",
    [
        ("conductor", 8, 8.9, "conductor must be an integer, got 8.9"),
        ("conductor", "8", True, "conductor must be an integer, got True"),
        ("p", 7, 7.5, "p must be an integer, got 7.5"),
        ("n", 2, 2.7, "size must be an integer, got 2.7"),
        ("n", "2", 0, "size 0 is less than 1"),
        ("index", 1, -1, "index -1 is less than 0"),
        ("index", 2, 3, "index 3 exceeds the input limit 2"),
        ("order", 2, 2.0, "order must be an integer, got 2.0"),
        ("grid_order", 2, False, "argument 'grid_order': order must be an integer, got False"),
        ("coordinate", 2, 2.0, "argument 'vectors': coordinate must be an integer, got 2.0"),
        ("coordinate", "2", "4/2", "argument 'vectors': bad coordinate '4/2'"),
        ("coordinate", -5, "1e0", "argument 'vectors': bad coordinate '1e0'"),
        ("coordinate", "+2", "0" * 12 + "2", "argument 'vectors': bad coordinate '0000000000002'"),
    ],
)
def test_integer_fields_refuse_bools_floats_and_out_of_range_values(tmp_path, capsys, field, valid, invalid, message):
    ring, steps = INTEGER_FIELDS[field]
    assert _build(tmp_path, capsys, steps(valid), ring(valid)) == (0, "")
    code, err = _build(tmp_path, capsys, steps(invalid), ring(invalid))
    assert code == 2 and message in err


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"kind": "cyclotomic", "conductor": 8.9}, "conductor must be an integer, got 8.9"),
        ({"kind": "cyclotomic", "conductor": True}, "conductor must be an integer, got True"),
        ({"kind": "prime_field", "p": 7.5}, "p must be an integer, got 7.5"),
        ({"kind": "prime_field", "p": "7.5"}, "bad p '7.5'"),
    ],
)
def test_a_matrix_file_with_a_ring_field_that_is_not_an_integer_is_an_input_error(tmp_path, capsys, ring, message):
    valid = {"kind": ring["kind"], next(k for k in ring if k != "kind"): 7}
    assert main(_ring_file(tmp_path, valid)) == 0
    capsys.readouterr()
    _assert_input_error(_ring_file(tmp_path, ring), capsys, message)


@pytest.mark.parametrize(
    "shape, message",
    [
        ({"rows": True, "cols": 1.0}, "rows must be an integer, got True"),
        ({"rows": 1, "cols": 1.0}, "cols must be an integer, got 1.0"),
        ({"rows": "1", "cols": "x"}, "bad cols 'x'"),
        ({"rows": 2, "cols": 1}, "declared matrix shape does not match the entries"),
    ],
)
def test_a_matrix_file_with_a_shape_field_that_is_not_its_integer_size_is_an_input_error(tmp_path, capsys, shape, message):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": {"kind": "rational"}, "rows": 1, "cols": "1", "entries": [["1"]]}))
    assert main(["verify", str(f), "--mode", "paraunitary"]) == 0
    capsys.readouterr()
    f.write_text(json.dumps({"ring": {"kind": "rational"}, **shape, "entries": [["1"]]}))
    _assert_input_error(["verify", str(f), "--mode", "paraunitary"], capsys, message)


@pytest.mark.parametrize(
    "n, message",
    [
        (2.5, "n must be an integer, got 2.5"),
        (False, "n must be an integer, got False"),
        (3, "declared set size n does not match the members"),
    ],
)
def test_a_set_file_with_an_n_that_is_not_its_integer_size_is_an_input_error(tmp_path, capsys, n, message):
    doc = idemset_to_json(diagonal_set(QQ, 2))
    f = tmp_path / "set.json"
    f.write_text(json.dumps(doc))
    assert main(["verify", str(f), "--mode", "idemset"]) == 0
    capsys.readouterr()
    f.write_text(json.dumps({**doc, "n": n}))
    _assert_input_error(["verify", str(f), "--mode", "idemset"], capsys, message)


def test_cli_stops_quietly_when_stdout_is_closed():
    """A reader that leaves early (``| head``) ends the command with exit 141
    and nothing on stderr; the pipe here is closed before the first write."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(paraunitary.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "paraunitary.cli", "catalog", "show", "--id", "tangle-32x32"]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == CLOSED_STDOUT == 141
    assert proc.stderr == b""


# --- defects the fuzz harness (test_cli_fuzz.py) found; each exits 2 ---------

def test_cli_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_bytes(b'{"ring": {"kind": "rational"}, "entries": [["\x80"]]}')
    _assert_input_error(["verify", str(f), "--mode", "paraunitary"], capsys, "cannot read")


@pytest.mark.parametrize(
    "steps, message",
    [
        ([{"op": "identity", "bind": [], "n": 2}], "op and bind must be strings"),
        ([{"op": ["identity"], "n": 2}], "op and bind must be strings"),
        (["identity"], "step 1 has no op"),
        (7, "malformed pipeline"),
    ],
)
def test_pipeline_with_malformed_steps_exits_2(tmp_path, capsys, steps, message):
    code, err = _build(tmp_path, capsys, steps)
    assert code == 2 and message in err


@pytest.mark.parametrize(
    "vectors, message",
    [([[]], "argument 'vectors' must be a nonempty list"), ([], "argument 'vectors' must be a nonempty list")],
)
def test_cli_basis_without_coordinates_is_an_error(tmp_path, capsys, vectors, message):
    f = tmp_path / "vectors.json"
    f.write_text(json.dumps({"vectors": vectors}))
    assert main(["idem", "basis", "--vectors", str(f)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_set_with_labels_that_are_not_strings_is_an_input_error(tmp_path, capsys):
    doc = idemset_to_json(diagonal_set(QQ, 2))
    doc["labels"] = [None, "E2"]
    f = tmp_path / "set.json"
    f.write_text(json.dumps(doc))
    _assert_input_error(["idem", "merge", "--set", str(f), "--groups", "1,2"], capsys, "string label")


def test_cli_negative_power_of_a_non_monomial_is_an_input_error(tmp_path, capsys):
    _assert_input_error(_verify_entry(tmp_path, "(1 + z)^-1"), capsys, "needs a monomial base")


def _swapped_binding_cases():
    """Each catalog pipeline with one "$name" argument, or the first "$name"
    of a list argument, swapped for an earlier binding of a kind the op does
    not take: one case per step, argument and kind given."""
    from paraunitary.catalog import catalog_ids, get_entry
    from paraunitary.pipeline import OPS, _kind

    for entry_id in catalog_ids():
        doc = get_entry(entry_id).pipeline
        env = execute_pipeline(doc)
        names = list(env)  # every step binds, in step order
        for i, step in enumerate(doc["steps"]):
            for arg, kinds in OPS[step["op"]][1].items():
                value = step.get(arg)
                if not isinstance(kinds, tuple) or not (isinstance(value, str) or isinstance(value, list) and value):
                    continue
                seen = set()
                for other in names[:i]:
                    swapped = f"${other}" if isinstance(value, str) else [f"${other}", *value[1:]]
                    resolved = pipeline._resolve(env, swapped)
                    given = _kind(resolved)
                    if given in kinds or given in seen:
                        continue
                    seen.add(given)
                    bad = json.loads(json.dumps(doc))
                    bad["steps"][i][arg] = swapped
                    message = (
                        f"step {i + 1} ({step['op']} -> {names[i]}): "
                        f"argument {arg!r} must be {' or '.join(kinds)}, got {given}"
                    )
                    yield f"{entry_id}:{names[i]}.{arg}={other}", bad, message


def test_a_binding_of_the_wrong_kind_is_a_typed_input_error(tmp_path, capsys):
    pipe = tmp_path / "pipe.json"
    givens = set()
    cases = list(_swapped_binding_cases())
    for label, doc, message in cases:
        pipe.write_text(json.dumps(doc))
        assert main(["build", str(pipe)]) == 2, label
        err = capsys.readouterr().err
        assert err == f"build failed: {message}\n", label
        givens.add(message.rsplit("got ", 1)[1])
    # sets for matrices and matrices for sets, among others
    assert len(cases) >= 50
    assert {"a matrix", "an idempotent set", "a verification report"} <= givens


_TANGLE_INPUTS = [
    {"op": "matrix", "bind": "A", "entries": [["1", "0"], ["0", "1"]]},
    {"op": "identity", "bind": "B", "n": 2},
]
_C2_SET = {"op": "group_set", "bind": "s", "family": "cyclic", "order": 2}
_C2_W = {"op": "monomial_sum", "bind": "W", "set": "$s", "coeffs": ["1", "1"], "exponents": [0, 1]}
_C2_GRID = {"op": "block_arrangement", "bind": "W", "set": "$s", "grid": [[0, 1], [1, 0]],
            "cells": [["x", "y"], ["y", "x"]]}
_D2_MEMBERS = [
    {"op": "diagonal_set", "bind": "d", "n": 2},
    {"op": "member", "bind": "e1", "set": "$d", "index": 0},
    {"op": "member", "bind": "e2", "set": "$d", "index": 1},
]


def _misread(step, message):
    """A one-step pipeline, and the message of its refusal as step 1."""
    return [step], f"step 1 ({step['op']} -> {step['bind']}): {message}"


# each of these once built what it does not say and exited 0: true and null
# read as the variables True and None, a string read one character per item,
# an object read by its keys
_MISREAD_FORMS = [
    _misread({"op": "matrix", "bind": "M", "entries": [[True]]},
             "argument 'entries' must be polynomial text, got a boolean"),
    _misread({"op": "matrix", "bind": "M", "entries": [[None]]}, "argument 'entries' must be polynomial text, got null"),
    _misread({"op": "matrix", "bind": "M", "entries": ["12"]}, "argument 'entries' must be a list, got a string"),
    _misread({"op": "matrix", "bind": "M", "entries": [{"x": 1, "y": 2}]},
             "argument 'entries' must be a list, got an object"),
    _misread({"op": "basis_set", "bind": "b", "vectors": [[True, 0], [0, 1]]},
             "argument 'vectors' must be polynomial text, got a boolean"),
    _misread({"op": "basis_set", "bind": "b", "vectors": ["10", "01"]},
             "argument 'vectors' must be a list, got a string"),
    _misread({"op": "belevitch", "bind": "H", "vector": "10"}, "argument 'vector' must be a list, got a string"),
    _misread({"op": "spectral", "bind": "U", "vectors": ["10", "01"], "units": ["1", "1"]},
             "argument 'vectors' must be a list, got a string"),
    _misread({"op": "spectral", "bind": "U", "vectors": [[True, 0], [0, 1]], "units": ["1", "1"]},
             "argument 'vectors' must be polynomial text, got a boolean"),
    _misread({"op": "basis_finite_set", "bind": "f", "vectors": [[True, 0], [0, 1]]},
             "argument 'vectors': coordinate must be an integer, got True"),
    (
        [_C2_SET, {"op": "combine", "bind": "c", "coeffs": "23", "set": "$s"}],
        "step 2 (combine -> c): argument 'coeffs' must be a list, got a string",
    ),
    (
        [_C2_SET, {"op": "idempotent_inverse", "bind": "c", "coeffs": "23", "set": "$s"}],
        "step 2 (idempotent_inverse -> c): argument 'coeffs' must be a list, got a string",
    ),
    (
        [_C2_SET, dict(_C2_W, exponents="01")],
        "step 2 (monomial_sum -> W): argument 'exponents' must be a list, got a string",
    ),
    (
        [_TANGLE_INPUTS[0], {"op": "pseudo_from_rows", "bind": "W", "matrix": "$A", "coeffs": ["1", "1"],
                             "exponents": "01"}],
        "step 2 (pseudo_from_rows -> W): argument 'exponents' must be a list, got a string",
    ),
    (
        _D2_MEMBERS + [{"op": "idem_set", "bind": "t", "members": ["$e1", "$e2"], "labels": "xy"}],
        "step 4 (idem_set -> t): argument 'labels' must be a list, got a string",
    ),
    (
        [_TANGLE_INPUTS[1], {"op": "scale", "bind": "C", "matrix": "$B", "by": True}],
        "step 2 (scale -> C): argument 'by' must be polynomial text, got a boolean",
    ),
    (
        [_C2_SET, _C2_W, {"op": "substitute", "bind": "V", "matrix": "$W", "assign": {"z": True}}],
        "step 3 (substitute -> V): argument 'assign' must be polynomial text, got a boolean",
    ),
]
_MISREAD_IDS = [
    "entries-true", "entries-null", "entries-string-row", "entries-object-row", "basis-true", "basis-string-row",
    "belevitch-string", "spectral-string-rows", "spectral-true", "basis-finite-true", "combine-string",
    "inverse-string", "monomial-exponents-string", "pseudo-exponents-string", "labels-string", "scale-true",
    "substitute-true",
]


@pytest.mark.parametrize(
    "steps, message",
    [
        (
            _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "variant": "$A"}],
            "step 3 (tangle -> W): argument 'variant' takes a plain JSON value, not the binding '$A'",
        ),
        (
            _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "variant": {"order": "$A"}}],
            "step 3 (tangle -> W): argument 'variant' takes a plain JSON value, not the binding '$A'",
        ),
        (
            [_C2_SET, {"op": "merge_set", "bind": "m", "set": "$s", "groups": "$s"}],
            "step 2 (merge_set -> m): argument 'groups' takes a plain JSON value, not the binding '$s'",
        ),
        (
            [_C2_SET, {"op": "merge_set", "bind": "m", "set": "$s", "groups": [["$s"]]}],
            "step 2 (merge_set -> m): argument 'groups' takes a plain JSON value, not the binding '$s'",
        ),
        (
            [_C2_SET, {"op": "merge_set", "bind": "m", "set": "$s", "groups": 3}],
            "step 2 (merge_set -> m): argument 'groups' must be a list of lists of indices, got an integer",
        ),
        (
            _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "variant": {"shape": "x"}}],
            "step 3 (tangle -> W): argument 'variant' has unknown key 'shape'; "
            "allowed keys: order, base, perm, transpose",
        ),
        (
            _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "variant": "vertical"}],
            "step 3 (tangle -> W): argument 'variant' must be an object with keys "
            "order, base, perm, transpose, got a string",
        ),
        *_MISREAD_FORMS,
        (
            # once read as the member indices 1, 0: a bool is an int to the Latin-square check
            [_C2_SET, dict(_C2_GRID, grid=[[True, False], [False, True]])],
            "step 2 (block_arrangement -> W): argument 'grid': index must be an integer, got True",
        ),
        (
            [_C2_SET, dict(_C2_GRID, grid=[["0", "1"], ["1", "0"]])],
            "step 2 (block_arrangement -> W): argument 'grid': index must be an integer, got '0'",
        ),
        (
            [_C2_SET, dict(_C2_GRID, grid=["01", "10"])],
            "step 2 (block_arrangement -> W): argument 'grid' must be a list, got a string",
        ),
        (
            # once ended in Python's text: 'int' object has no attribute 'values'
            [_C2_SET, dict(_C2_GRID, cells=[[{"coeff": "1", "exps": 2}, "y"], ["y", "x"]])],
            "step 2 (block_arrangement -> W): argument 'cells': a cell's exps must be an object of {variable: power}, "
            "got an integer",
        ),
    ],
    ids=["variant-binding", "variant-field-binding", "groups-binding", "groups-index-binding",
         "groups-int", "variant-unknown-key", "variant-string", *_MISREAD_IDS, "grid-booleans",
         "grid-digit-strings", "grid-string-rows", "exps-number"],
)
def test_a_plain_argument_of_the_wrong_form_is_a_typed_input_error(tmp_path, capsys, steps, message):
    """A binding where an op reads a plain JSON value, or a plain value of
    the wrong form, is refused with the argument's name, never Python's text."""
    ring = {"kind": "cyclotomic", "conductor": 8}
    assert _build(tmp_path, capsys, steps, ring) == (2, f"build failed: {message}\n")


def test_cli_basis_with_a_boolean_coordinate_is_an_input_error(tmp_path, capsys):
    # once printed idempotent-set: PASS for a set over the variable True
    f = tmp_path / "vectors.json"
    f.write_text(json.dumps({"vectors": [[True, 0], [0, 1]]}))
    _assert_input_error(
        ["idem", "basis", "--vectors", str(f)], capsys, "argument 'vectors' must be polynomial text, got a boolean"
    )


def _plain_argument_swaps():
    """Each plain argument of each catalog step replaced by true, by an
    object and, where its form is a list, by a string: one case each, the
    pipeline cut after that step."""
    from paraunitary.catalog import catalog_ids, get_entry
    from paraunitary.pipeline import OPS

    for entry_id in catalog_ids():
        doc = get_entry(entry_id).pipeline
        for i, step in enumerate(doc["steps"]):
            for arg, form in OPS[step["op"]][1].items():
                if arg not in step or isinstance(form, tuple):
                    continue
                for value in [True, {"k": "x"}] + (["x"] if isinstance(form, list) else []):
                    if (arg, value) == ("expect_paraunitary", True):
                        continue  # a JSON boolean is its form
                    steps = json.loads(json.dumps(doc["steps"][: i + 1]))
                    steps[i][arg] = value
                    yield f"{entry_id}:{step['op']}.{arg}={json.dumps(value)}", doc["ring"], steps


def test_a_plain_argument_of_another_json_type_is_refused_in_every_catalog_step(tmp_path, capsys):
    cases = list(_plain_argument_swaps())
    for label, ring, steps in cases:
        code, err = _build(tmp_path, capsys, steps, ring)
        assert code == 2 and err.startswith(f"build failed: step {len(steps)} ({steps[-1]['op']} -> "), label
    assert len(cases) >= 300


def test_an_unknown_op_given_a_binding_is_named_as_unknown(tmp_path, capsys):
    steps = _TANGLE_INPUTS + [{"op": "tangel", "bind": "W", "a": "$A", "b": "$B"}]
    assert _build(tmp_path, capsys, steps) == (2, "build failed: step 3 (tangel -> W): unknown op 'tangel'\n")


def test_a_tangle_variant_with_every_allowed_key_builds(tmp_path, capsys):
    variant = {"order": "BA", "base": "horizontal", "perm": "cols", "transpose": True}
    steps = _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "variant": variant}]
    assert _build(tmp_path, capsys, steps, {"kind": "cyclotomic", "conductor": 8}) == (0, "")


def test_a_weight_list_short_of_the_exponents_is_a_typed_input_error(tmp_path, capsys):
    set_step = {"op": "group_set", "bind": "s", "family": "cyclic", "order": 2}
    for op, source in (("monomial_sum", "set"), ("pseudo_from_rows", "matrix")):
        steps = [set_step, {"op": "matrix", "bind": "P", "entries": [["1", "0"], ["0", "1"]]}]
        steps.append({"op": op, "bind": "W", source: "$s" if source == "set" else "$P",
                      "coeffs": ["1"], "exponents": [{"x": 0}, {"x": 1}]})
        code, err = _build(tmp_path, capsys, steps)
        assert code == 2
        assert err == (
            f"build failed: step 3 ({op} -> W): 1 coeffs for 2 exponents: one coefficient per exponent required\n"
        )


def test_an_invalid_ring_is_an_input_error_on_every_call(tmp_path, capsys):
    # rings are interned on first creation; an invalid one is never stored
    f = tmp_path / "m.json"
    bad_rings = (({"kind": "prime_field", "p": 4}, "got 4"), ({"kind": "cyclotomic", "conductor": 0}, "conductor >= 1"))
    for ring, message in bad_rings:
        f.write_text(json.dumps({"ring": ring, "entries": [["1"]]}))
        for _ in range(2):
            _assert_input_error(["verify", str(f), "--mode", "paraunitary"], capsys, message)


# --- every argument an op takes is declared in OPS; any other is refused ----

_NOT_PARAUNITARY = {"op": "matrix", "bind": "A", "entries": [["1", "1"], ["0", "1"]]}
_COMPOSE = {"op": "compose", "bind": "W", "parts": ["$A", "$A"]}


def test_compose_with_its_check_spelled_right_fails_the_build(tmp_path, capsys):
    """compose of a matrix that is not paraunitary fails the check it asks
    for (exit 1); with the check misspelled the step is refused (exit 2, the
    next test), never built without the check."""
    code, err = _build(tmp_path, capsys, [_NOT_PARAUNITARY, dict(_COMPOSE, expect_paraunitary=True)])
    assert code == 1 and err.startswith("build failed: step 2 (compose -> W): paraunitary: FAIL\n")


@pytest.mark.parametrize(
    "op, steps, message",
    [
        (
            "compose",
            [_NOT_PARAUNITARY, dict(_COMPOSE, expect_paraunitry=True)],
            "step 2 (compose -> W): op 'compose' takes no argument 'expect_paraunitry'; "
            "it takes parts, mode, expect_paraunitary",
        ),
        (
            "monomial_sum",
            [_C2_SET, {"op": "monomial_sum", "bind": "W", "set": "$s", "coeffs": ["1", "1"], "exponent": [0, 1]}],
            "step 2 (monomial_sum -> W): op 'monomial_sum' takes no argument 'exponent'; "
            "it takes set, coeffs, exponents",
        ),
        (
            "tangle",
            _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "varient": {"transpose": True}}],
            "step 3 (tangle -> W): op 'tangle' takes no argument 'varient'; it takes a, b, variant",
        ),
        (
            "tangle",
            _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "c": "$A"}],
            "step 3 (tangle -> W): op 'tangle' takes no argument 'c'; it takes a, b, variant",
        ),
    ],
    ids=["compose", "monomial_sum", "tangle", "tangle-binding"],
)
def test_an_argument_the_op_does_not_take_is_refused_before_the_op_runs(
    tmp_path, capsys, monkeypatch, op, steps, message
):
    calls = []
    monkeypatch.setattr(pipeline, op, lambda *args, **kwargs: calls.append(args))
    ring = {"kind": "cyclotomic", "conductor": 8}
    assert _build(tmp_path, capsys, steps, ring) == (2, f"build failed: {message}\n")
    assert calls == []


def _cells_steps(cells):
    return [
        _C2_SET,
        {"op": "block_arrangement", "bind": "W", "set": "$s", "grid": [[0, 1], [1, 0]], "cells": cells},
    ]


@pytest.mark.parametrize(
    "steps, message",
    [
        (
            [_NOT_PARAUNITARY, dict(_COMPOSE, mode="prodcut")],
            "step 2 (compose -> W): argument 'mode' must be 'product' or 'tensor', got 'prodcut'",
        ),
        (
            [_NOT_PARAUNITARY, dict(_COMPOSE, expect_paraunitary="true")],
            "step 2 (compose -> W): argument 'expect_paraunitary' must be true or false, got 'true'",
        ),
        (
            [_NOT_PARAUNITARY, dict(_COMPOSE, expect_paraunitary=1)],
            "step 2 (compose -> W): argument 'expect_paraunitary' must be true or false, got 1",
        ),
        (
            _TANGLE_INPUTS + [{"op": "tangle", "bind": "W", "a": "$A", "b": "$B", "variant": {"transpose": "false"}}],
            "step 3 (tangle -> W): argument 'variant': transpose must be true or false, got 'false'",
        ),
        (
            [{"op": "belevitch", "bind": "H", "vector": ["1", "0"], "var": 5}],
            "step 1 (belevitch -> H): argument 'var': 5 is not a variable name "
            "(a letter, then letters, digits, _; not zeta)",
        ),
        (
            [_C2_SET, {"op": "monomial_sum", "bind": "W", "set": "$s", "coeffs": ["1", "1"],
                       "exponents": [{"zeta": 1}, 0]}],
            "step 2 (monomial_sum -> W): argument 'exponents': 'zeta' is not a variable name "
            "(a letter, then letters, digits, _; not zeta)",
        ),
        (
            [_TANGLE_INPUTS[0],
             {"op": "pseudo_from_rows", "bind": "W", "matrix": "$A", "coeffs": ["1", "1"],
              "exponents": [{"z": 1}, {"1t": 1}]}],
            "step 2 (pseudo_from_rows -> W): argument 'exponents': '1t' is not a variable name "
            "(a letter, then letters, digits, _; not zeta)",
        ),
        (
            _cells_steps([["x", "zeta"], ["y", "x"]]),
            "step 2 (block_arrangement -> W): argument 'cells': 'zeta' is not a variable name "
            "(a letter, then letters, digits, _; not zeta)",
        ),
        (
            _cells_steps([["x", {"coeff": "1", "exps": {"zeta": 1}}], ["y", "x"]]),
            "step 2 (block_arrangement -> W): argument 'cells': 'zeta' is not a variable name "
            "(a letter, then letters, digits, _; not zeta)",
        ),
    ],
    ids=["mode", "expect-string", "expect-int", "transpose-string", "var-number", "exponents-zeta",
         "exponents-name", "cell-zeta", "exps-zeta"],
)
def test_a_plain_value_that_would_be_misread_is_refused(tmp_path, capsys, steps, message):
    """Read as given, each of these values would build what it does not say
    (a tensor product for "prodcut", a transpose for "false", a variable
    named zeta, which the text grammar reads as the root of unity) or end
    in a traceback: each is an input error naming its argument."""
    ring = {"kind": "cyclotomic", "conductor": 8}
    assert _build(tmp_path, capsys, steps, ring) == (2, f"build failed: {message}\n")



def _arrangement(cells):
    return [_C2_SET, {"op": "block_arrangement", "bind": "W", "set": "$s", "grid": [[0, 1], [1, 0]], "cells": cells}]


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"coeff": "1", "exp": {"y": 1}}, "argument 'cells': a cell has unknown key 'exp'; allowed keys: coeff, exps"),
        ({"exps": {"y": 1}}, "argument 'cells': a cell object needs the key 'coeff'; allowed keys: coeff, exps"),
        (2, "argument 'cells': a cell must be a variable name or an object with keys coeff, exps, got an integer"),
    ],
    ids=["misspelled-exps", "no-coeff", "integer"],
)
def test_a_block_cell_with_an_unknown_or_missing_key_is_a_typed_input_error(tmp_path, capsys, cell, message):
    # the misspelled exps once built the constant cell 1 and exited 0
    code, err = _build(tmp_path, capsys, _arrangement([["x", cell], ["y", "x"]]))
    assert (code, err) == (2, f"build failed: step 2 (block_arrangement -> W): {message}\n")


@pytest.mark.parametrize(
    "family, message",
    [
        ({"grid_family": "cyclic", "grid_order": 3},
         "argument 'grid_order' gives a group of order 3, not 2, the set's member count"),
        ({"grid_family": "s3"}, "argument 'grid_family' gives a group of order 6, not 2, the set's member count"),
        ({"grid_family": "cyclic", "grid_order": 0}, "argument 'grid_order': cyclic needs a positive order"),
        ({"grid_family": "dihedral", "grid_order": 3}, "argument 'grid_order': dihedral needs even order 2n"),
        ({"grid_family": "cyclic", "grid_order": 5000},
         "argument 'grid_order': group order 5000 exceeds the input limit 32"),
        ({"grid_family": "cyclic"}, "cyclic needs the argument 'grid_order'"),
        ({"grid_family": "x", "grid_order": 2},
         "argument 'grid_family' must be 'cyclic' or 'c2k' or 'dihedral' or 's3', got 'x'"),
    ],
    ids=["order-3", "s3", "order-0", "dihedral-odd", "past-the-limit", "no-order", "unknown-family"],
)
def test_a_grid_family_that_gives_no_grid_over_the_set_names_its_argument(tmp_path, capsys, family, message):
    # a group of another order than the set's once said: grid must be 2x2 over the member indices,
    # naming an argument the step never gave
    cells = [["x", "y"], ["y", "x"]]
    steps = [_C2_SET, {"op": "block_arrangement", "bind": "W", "set": "$s", "cells": cells, **family}]
    assert _build(tmp_path, capsys, steps) == (2, f"build failed: step 2 (block_arrangement -> W): {message}\n")


def test_a_group_family_is_one_of_the_built_in_names(tmp_path, capsys):
    steps = [{"op": "group_set", "bind": "s", "family": "cyclc", "order": 2}]
    assert _build(tmp_path, capsys, steps) == (
        2, "build failed: step 1 (group_set -> s): argument 'family' must be 'cyclic' or 'c2k' or 'dihedral' or 's3', "
        "got 'cyclc'\n"
    )


def test_a_block_cell_object_with_its_allowed_keys_builds(tmp_path, capsys):
    cells = [["x", {"coeff": "1", "exps": {"y": 1}}], [{"coeff": "-1"}, "x"]]
    assert _build(tmp_path, capsys, _arrangement(cells)) == (0, "")


_CELLS_2X2 = "cells must be 2x2, one cell per block"


@pytest.mark.parametrize(
    "cells, message",
    [
        ([], "argument 'cells' must be a nonempty list"),
        ([[]], "argument 'cells' must be a nonempty list"),
        ([["x"]], _CELLS_2X2),
        ([["x", "y"], ["y"]], "argument 'cells' must be a rectangular grid, got rows of different lengths"),
        ([["x", "y"], ["y", "x"], ["x", "y"]], _CELLS_2X2),
        ([["x", "y", "x"]] * 3, _CELLS_2X2),
    ],
    ids=["none", "empty-row", "1x1", "ragged", "3x2", "3x3"],
)
def test_block_cells_of_another_shape_than_the_grid_are_an_input_error_naming_cells(tmp_path, capsys, cells, message):
    # [] and [["x"]] once ended in Python's text (tuple index out of range),
    # and a 3x3 grid of cells over the order-2 set built W with exit 0
    code, err = _build(tmp_path, capsys, _arrangement(cells))
    assert (code, err) == (2, f"build failed: step 2 (block_arrangement -> W): {message}\n")


_W_XY = {"op": "monomial_sum", "bind": "W", "set": "$s", "coeffs": ["1", "1"], "exponents": [{"x": 1}, {"y": 1}]}


@pytest.mark.parametrize(
    "op, assign, unknown",
    [
        ("specialize", {"x": "1", "y": "1", "zeta": "1", "q": "-1"}, "'q', 'zeta'"),
        ("specialize", {"x": "1", "yy": "1"}, "'yy'"),
        ("substitute", {"zeta": "x", "q": "y"}, "'q', 'zeta'"),
        ("substitute", {"x": "y", "z": "1"}, "'z'"),
    ],
    ids=["specialize-extra", "specialize-misspelled", "substitute-zeta", "substitute-extra"],
)
def test_an_assigned_name_that_is_not_a_variable_of_the_matrix_is_refused(tmp_path, capsys, op, assign, unknown):
    # such names were once ignored: specialize exited 0 and substitute returned W unchanged
    steps = [_C2_SET, _W_XY, {"op": op, "bind": "H", "matrix": "$W", "assign": assign}]
    code, err = _build(tmp_path, capsys, steps, {"kind": "cyclotomic", "conductor": 8})
    assert code == 2
    assert err == f"build failed: step 3 ({op} -> H): cannot assign {unknown}: the matrix has variables x, y\n"


def test_cli_specialize_refuses_a_name_that_is_not_a_variable(tmp_path, capsys):
    f = tmp_path / "w.json"
    f.write_text(dumps(matrix_to_json(c2_haar_w())))
    for assign, unknown in (("z=1,q=1", "'q'"), ("z=1,zeta=1", "'zeta'")):
        assert main(["specialize", "--matrix", str(f), "--assign", assign]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot assign {unknown}: the matrix has variables z\n"


def test_specialize_and_substitute_refuse_unknown_names_in_the_library():
    from paraunitary.errors import UnknownVariable
    from paraunitary.hadamard import hadamard_check, specialize

    w = c2_haar_w()
    with pytest.raises(UnknownVariable, match="cannot assign 'q'"):
        specialize(w, {"z": 1, "q": 1})
    with pytest.raises(UnknownVariable, match="cannot assign 'z': the matrix has variables none"):
        hadamard_check(PolyMatrix(QQ, [[1, 1], [1, -1]])).scaled.substitute({"z": 1})
    with pytest.raises(UnknownVariable, match="cannot assign 'y'"):
        w.substitute({"y": 1})
    assert w.substitute({"z": 1}).is_scalar and w.substitute({}) == w


# --- a missing argument is named -------------------------------------------

def _dropped_argument_cases():
    """Each step of each catalog pipeline, cut after that step, with one of
    its arguments dropped: one case per step and argument."""
    from paraunitary.catalog import catalog_ids, get_entry

    for entry_id in catalog_ids():
        steps = get_entry(entry_id).pipeline["steps"]
        for i, step in enumerate(steps):
            for name in step:
                if name not in ("op", "bind"):
                    kept = {k: v for k, v in step.items() if k != name}
                    yield f"{entry_id}:{step['bind']}.{name}", entry_id, steps[:i] + [kept], name


@pytest.mark.time_bound(60)
def test_a_step_without_one_of_its_arguments_runs_or_names_the_argument(tmp_path, capsys):
    """Dropping any argument of any catalog step either leaves a step that
    still runs or exits 2 naming that argument; a missing argument once
    ended in Python's bare key text, such as ``step 3 (scale -> T): 'by'``."""
    from paraunitary.catalog import get_entry

    out = tmp_path / "out.json"
    failures, named = [], 0
    for case, entry_id, steps, name in _dropped_argument_cases():
        code, err = _build(tmp_path, capsys, steps, get_entry(entry_id).pipeline["ring"], ["--out", str(out)])
        if code == 0:
            continue
        named += 1
        bare = f"): {name!r}\n" in err  # a KeyError's text: the name alone
        if code != 2 or bare or "argument" not in err or repr(name) not in err:
            failures.append(f"{case}: exit {code}, {err.strip()}")
    assert not failures, "\n".join(failures)
    assert named >= 100


@pytest.mark.parametrize(
    "step, message",
    [
        ({"op": "scale", "matrix": "$A"}, "op 'scale' needs the argument 'by'"),
        ({"op": "monomial_sum", "set": "$s", "exponents": [0, 1]}, "op 'monomial_sum' needs the argument 'coeffs'"),
        ({"op": "member", "set": "$s"}, "op 'member' needs the argument 'index'"),
        ({"op": "block_arrangement", "set": "$s", "cells": [["x", "y"], ["y", "x"]]},
         "op 'block_arrangement' needs the argument 'grid' or 'grid_family'"),
        ({"op": "group_set", "family": "cyclic"}, "cyclic needs the argument 'order'"),
    ],
    ids=["scale", "monomial_sum", "member", "block_arrangement", "group_set"],
)
def test_a_missing_argument_is_an_input_error_naming_it(tmp_path, capsys, step, message):
    steps = [{"op": "identity", "bind": "A", "n": 2}, _C2_SET, dict(step, bind="T")]
    code, err = _build(tmp_path, capsys, steps)
    assert (code, err) == (2, f"build failed: step 3 ({step['op']} -> T): {message}\n")


@pytest.mark.parametrize(
    "step, name",
    [
        ({"op": "tangle", "a": "$A"}, "b"),
        ({"op": "spectral", "vectors": [["1"]]}, "units"),
        ({"op": "compose", "mode": "tensor"}, "parts"),
        ({"op": "idem_set", "labels": ["E1"]}, "members"),
        ({"op": "basis_finite_set"}, "vectors"),
    ],
    ids=["tangle", "spectral", "compose", "idem_set", "basis_finite_set"],
)
def test_an_op_that_once_took_its_arguments_by_keyword_names_the_one_it_lacks(tmp_path, capsys, step, name):
    # each once printed Python's text: tangle() missing 1 required positional argument: 'b'
    steps = [{"op": "identity", "bind": "A", "n": 2}, dict(step, bind="T")]
    code, err = _build(tmp_path, capsys, steps)
    op = step["op"]
    assert (code, err) == (2, f"build failed: step 2 ({op} -> T): op {op!r} needs the argument {name!r}\n")


# --- glued matrices are held to MAX_ENTRIES ----------------------------------

def _tangle_tower(steps):
    """``steps`` tangles, each of the last with itself, from the 1x1 identity:
    a 2^steps x 2^steps matrix over Q(zeta_8)."""
    tower = [{"op": "identity", "bind": "T0", "n": 1}]
    tower += [{"op": "tangle", "bind": f"T{i}", "a": f"$T{i - 1}", "b": f"$T{i - 1}"} for i in range(1, steps + 1)]
    return tower


@pytest.mark.time_bound(30)
def test_a_glued_matrix_past_the_entry_limit_is_refused(tmp_path, capsys):
    """Nine tangles glue a 512x512 W (2^18 entries, at the limit) in about
    0.5 s; the tenth would glue 2^20 entries and is refused before either
    block is scaled, about 0.05 s in all, where it once built W (1.4 s,
    203 MB) and exited 0."""
    z8, out = {"kind": "cyclotomic", "conductor": 8}, ["--out", str(tmp_path / "out.json")]
    start = time.perf_counter()
    assert _build(tmp_path, capsys, _tangle_tower(9), z8, out) == (0, "")
    assert time.perf_counter() - start < 10
    start = time.perf_counter()
    code, err = _build(tmp_path, capsys, _tangle_tower(10), z8, out)
    assert time.perf_counter() - start < 5
    assert code == 2
    assert err == (
        "build failed: step 11 (tangle -> T10): the glued 1024x1024 matrix would need 1048576 entries, "
        "past the input limit of 262144\n"
    )


@pytest.mark.time_bound(30)
def test_a_block_arrangement_past_the_entry_limit_is_refused_before_any_block_is_scaled(tmp_path, capsys, monkeypatch):
    """32 diagonal members of 32x32 in a 32x32 grid would glue 2^20 entries."""
    scaled = []
    monkeypatch.setattr(PolyMatrix, "scale", lambda self, f: scaled.append(f))
    steps = [
        {"op": "diagonal_set", "bind": "s", "n": 32},
        {"op": "block_arrangement", "bind": "W", "set": "$s", "grid_family": "cyclic", "grid_order": 32,
         "cells": [["x"] * 32] * 32},
    ]
    code, err = _build(tmp_path, capsys, steps)
    assert code == 2 and not scaled
    assert err == (
        "build failed: step 2 (block_arrangement -> W): the 32x32 block arrangement of 32x32 members "
        "would need 1048576 entries, past the input limit of 262144\n"
    )


@pytest.mark.time_bound(30)
def test_a_tangle_past_the_entry_limit_is_refused_before_either_block_is_scaled(monkeypatch):
    """The 512x512 T9 of nine tangles tangled with itself would glue 2^20
    entries: refused after the blocks' checks, with nothing scaled or stored."""
    t = PolyMatrix.identity(cyclotomic(8), 1)
    for _ in range(9):
        t = tangle(t, t)
    assert (t.rows, t.proof, t._tangle_blocks) == (512, "block-gram", None)
    scaled, original = [], PolyMatrix._scaled
    monkeypatch.setattr(PolyMatrix, "_scaled", lambda self, f, vars: scaled.append(f) or original(self, f, vars))
    with pytest.raises(SizeLimit) as err:
        tangle(t, t)
    assert str(err.value) == "the glued 1024x1024 matrix would need 1048576 entries, past the input limit of 262144"
    assert not scaled and t._tangle_blocks is None


# --- the integer flags of idem are read as every integer field is ------------

@pytest.mark.parametrize(
    "argv, message",
    [
        (["idem", "diagonal", "--n", "1_0"], "bad size '1_0'"),
        (["idem", "diagonal", "--n", "2.0"], "bad size '2.0'"),
        (["idem", "group", "--family", "cyclic", "--order", "1_0"], "bad order '1_0'"),
        (["idem", "diagonal", "--n", "2", "--ring", "cyclotomic", "--conductor", "0" * 12 + "8"],
         "bad conductor '0000000000008'"),
        (["idem", "diagonal", "--n", "2", "--ring", "prime_field", "--prime", "7.0"], "bad p '7.0'"),
    ],
)
def test_integer_flags_refuse_what_integer_fields_refuse(capsys, argv, message):
    # argparse's int() read 1_0 as 10 and 13-digit strings as numbers
    _assert_input_error(argv, capsys, message)
