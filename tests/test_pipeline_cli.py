"""Tests for the pipeline executor and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from _fixtures import HADAMARD_4_REAL, P1, block4_real_w, c2_haar_w
import paraunitary
from paraunitary import pipeline
from paraunitary.cli import CLOSED_STDOUT, main
from paraunitary.errors import InternalCheckError
from paraunitary.idempotents import IdempotentSet, diagonal_set, verify_set
from paraunitary.pipeline import PipelineError, execute_pipeline
from paraunitary.polymatrix import PolyMatrix
from paraunitary.scalars import QQ
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


@pytest.mark.parametrize("bad", ["a", 1.5, None])
def test_cli_basis_finite_non_integer_coordinate_is_an_input_error(tmp_path, capsys, bad):
    f = tmp_path / "vectors.json"
    f.write_text(json.dumps({"vectors": [[bad, "1"], ["1", "0"]]}))
    _assert_input_error(
        ["idem", "basis-finite", "--vectors", str(f), "--ring", "prime_field", "--prime", "5"],
        capsys,
        "coordinates must be integers",
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
    assert main(argv) == 2
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


def _build(tmp_path, capsys, steps, ring=None):
    pipe = tmp_path / "pipe.json"
    pipe.write_text(json.dumps({"ring": ring or {"kind": "rational"}, "steps": steps}))
    code = main(["build", str(pipe)])
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
    assert code == 2 and "coordinates must be integers" in err


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


# --- ring size limits: each holds at the limit and fails one step past it ----

def _ring_file(tmp_path, ring):
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"ring": ring, "entries": [["1"]]}))
    return ["verify", str(f), "--mode", "paraunitary"]


def test_cli_conductor_limit(tmp_path, capsys):
    from paraunitary.scalars import MAX_CONDUCTOR

    assert main(_ring_file(tmp_path, {"kind": "cyclotomic", "conductor": MAX_CONDUCTOR})) == 0
    argv = ["idem", "diagonal", "--n", "1", "--ring", "cyclotomic", "--conductor"]
    assert main([*argv, str(MAX_CONDUCTOR)]) == 0
    capsys.readouterr()
    message = f"conductor {MAX_CONDUCTOR + 1} exceeds the limit {MAX_CONDUCTOR}"
    _assert_input_error(
        _ring_file(tmp_path, {"kind": "cyclotomic", "conductor": MAX_CONDUCTOR + 1}), capsys, message
    )
    _assert_input_error([*argv, str(MAX_CONDUCTOR + 1)], capsys, message)


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
        _assert_input_error([*argv, str(p)], capsys, message)


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
        ("grid_order", 2, False, "grid_order must be an integer, got False"),
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
    "vectors, message", [([[]], "ragged or empty entry grid"), ([], "empty member list")]
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
    from paraunitary.pipeline import ARG_KINDS, _kind

    for entry_id in catalog_ids():
        doc = get_entry(entry_id).pipeline
        env = execute_pipeline(doc)
        names = list(env)  # every step binds, in step order
        for i, step in enumerate(doc["steps"]):
            for arg, kinds in ARG_KINDS.get(step["op"], {}).items():
                value = step.get(arg)
                if not (isinstance(value, str) or isinstance(value, list) and value):
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
    ],
    ids=["variant-binding", "variant-field-binding", "groups-binding", "groups-index-binding",
         "groups-int", "variant-unknown-key", "variant-string"],
)
def test_a_plain_argument_of_the_wrong_form_is_a_typed_input_error(tmp_path, capsys, steps, message):
    """A binding where an op reads a plain JSON value, or a plain value of
    the wrong form, is refused with the argument's name, never Python's text."""
    ring = {"kind": "cyclotomic", "conductor": 8}
    assert _build(tmp_path, capsys, steps, ring) == (2, f"build failed: {message}\n")


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
