"""Command-line front end: construct, verify, specialize, inspect, reproduce.

Exit codes are a stable contract for scripting: 0 = verified/ok,
1 = verification failed, 2 = input or usage error, 3 = internal error (a
constructor's output failed its own exact self-check: a bug, not bad input).
An error's class gives its code (``ExactAlgebraError.exit_code``), whichever
command or step raised it, and :func:`main` alone maps an error to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from .catalog import CATALOG, catalog_ids, entry_matches, get_entry, run_entry
from .errors import ExactAlgebraError, NotAPartition, ParseError
from .hadamard import hadamard_check, specialize
from .idempotents import verify_set
from .laurent import poly_to_text
from .pipeline import _MATRIX, _SET, OPS, PipelineError, _scalar, execute_pipeline, execute_step
from .polymatrix import determinant, is_paraunitary, is_pseudo_paraunitary, rank, trace
from .scalars import CYCLOTOMIC, PRIME_FIELD, RATIONAL, RingDescriptor
from .serialize import (
    dumps,
    idemset_from_json,
    idemset_to_json,
    matrix_from_json,
    object_to_json,
)

OK, FAILED = 0, 1
CLOSED_STDOUT = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader left


def _ring_from_flags(args) -> RingDescriptor:
    """The ring of --ring/--conductor/--prime, read by the parser of a file's ring."""
    flags = {"kind": args.ring, "conductor": args.conductor, "p": args.prime}
    return RingDescriptor.from_json({k: v for k, v in flags.items() if v is not None})


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_vectors(path: str) -> list:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "vectors" not in doc:
        raise ParseError(f'{path}: expected an object {{"vectors": [[...], ...]}}')
    return doc["vectors"]  # execute_step reads it in the form OPS gives it


def _emit(args, payload: dict | str):
    text = payload if isinstance(payload, str) else dumps(payload)
    if getattr(args, "out", None):
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_groups(spec: str) -> list[list[int]]:
    """'1/2,3' -> [[0], [1, 2]] (1-based on the command line)."""
    try:
        return [[int(x) - 1 for x in part.split(",") if x] for part in spec.split("/")]
    except ValueError as exc:
        raise ParseError(f"--groups {spec!r}: use 1-based indices like 1/2,3") from exc


_REQUIRED = {"required": True}

# idem subcommand -> (pipeline op, help, its flags). Each flag's name is the
# op's argument name: cmd_idem reads the file of a binding argument as the kind
# OPS gives it, and _FLAG_READERS parses the text of vectors and groups.
IDEM_COMMANDS = {
    "group": ("group_set", "group-ring idempotents of a built-in family", {"family": _REQUIRED, "order": {}}),
    "basis": (
        "basis_set",
        "projectors of an orthonormal basis",
        {
            "vectors": {"required": True, "help": 'JSON file {"vectors": [[...], ...]}'},
            "groups": {"help": "1-based partition like 1/2,3"},
        },
    ),
    "basis-finite": ("basis_finite_set", "orthogonal basis over a prime field", {"vectors": _REQUIRED}),
    "diagonal": ("diagonal_set", "diagonal unit set", {"n": _REQUIRED}),
    "rows": ("rows_set", "rank-1 idempotents from matrix rows", {"matrix": _REQUIRED}),
    "tensor": ("tensor_sets", "tensor product of two sets", {"a": _REQUIRED, "b": _REQUIRED}),
    "merge": ("merge_set", "merge members by a partition", {"set": _REQUIRED, "groups": _REQUIRED}),
    "realify": ("realify_set", "combine conjugate pairs", {"set": _REQUIRED}),
    "conjugate": (
        "conjugate_set",
        "conjugate a set by a paraunitary matrix",
        {"set": _REQUIRED, "by": _REQUIRED},
    ),
}


_FLAG_READERS = {"vectors": _load_vectors, "groups": _parse_groups}
_KIND_READERS = {_SET: idemset_from_json, _MATRIX: matrix_from_json}


def cmd_idem(args) -> int:
    ring = _ring_from_flags(args)
    op, _, flags = IDEM_COMMANDS[args.idem_cmd]
    takes = OPS[op][1]
    step = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    for name, value in step.items():
        if name in _FLAG_READERS:
            step[name] = _FLAG_READERS[name](value)
        elif isinstance(takes[name], tuple):
            step[name] = _KIND_READERS[takes[name][0]](_load_json(value))
    try:
        s = execute_step(ring, op, step)
    except NotAPartition as exc:  # the op counts members from 0, --groups from 1
        raise ParseError(f"--groups {args.groups!r}: groups must partition 1..{exc.count}") from exc
    # every op proves the set it returns, by its constructor's rule or by verify_set
    _emit(args, idemset_to_json(s))
    print("idempotent-set: PASS", file=sys.stderr)
    return OK


def cmd_build(args) -> int:
    env = execute_pipeline(_load_json(args.pipeline))
    _emit(args, {"outputs": {name: object_to_json(value) for name, value in env.items()}})
    return OK


def cmd_verify(args) -> int:
    doc = _load_json(args.file)
    mode = args.mode
    if mode == "idemset":
        s = idemset_from_json(doc, check=False)
        report = verify_set(s)
        print(report.summary())
        return OK if report.ok else FAILED
    m = matrix_from_json(doc)
    if mode == "paraunitary":
        report = is_paraunitary(m)
        print(report.summary())
        if not report.ok and report.residual is not None:
            print("residual (M M* - I):")
            print(report.residual)
        return OK if report.ok else FAILED
    if mode == "pseudo":
        mono = is_pseudo_paraunitary(m)
        if mono is None:
            print("pseudo-paraunitary: FAIL")
            return FAILED
        print(f"pseudo-paraunitary: PASS with p = {poly_to_text(mono)}")
        return OK
    if mode == "hadamard":
        report = hadamard_check(m)
        print(report.summary())
        return OK if report.ok and report.is_hadamard else FAILED
    raise ParseError(f"unknown mode {mode!r}")


def cmd_specialize(args) -> int:
    m = matrix_from_json(_load_json(args.matrix))
    assign = {}
    for item in filter(None, args.assign.split(",")):
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"bad assignment {item!r}; use var=value")
        if name.strip() in assign:
            raise ParseError(f"variable {name.strip()!r} is assigned twice")
        assign[name.strip()] = _scalar(m.ring, value)
    report = specialize(m, assign)
    _emit(args, object_to_json(report))
    print(report.summary(), file=sys.stderr)
    return OK if report.ok else FAILED


def cmd_det(args) -> int:
    m = matrix_from_json(_load_json(args.matrix))
    d = determinant(m)
    text = poly_to_text(d)
    _emit(args, {"determinant": text} if args.format == "json" else text)
    return OK


def cmd_rank(args) -> int:
    m = matrix_from_json(_load_json(args.matrix))
    t = trace(m)  # a Laurent matrix is refused here, before its rank is computed
    r = rank(m)
    _emit(args, {"rank": r, "trace": str(t)} if args.format == "json" else f"rank {r}, trace {t}")
    return OK


def cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        for entry in CATALOG:
            print(f"{entry.id}: {entry.title}")
        print(f"{len(CATALOG)} entries")
        return OK
    ids = [args.id] if args.id else catalog_ids()
    failures = []
    for entry_id in ids:
        entry = get_entry(entry_id)
        if args.catalog_cmd == "show":
            print(dumps({"id": entry.id, "title": entry.title, "outputs": run_entry(entry)}), end="")
            continue
        ok, diff = entry_matches(entry)  # diff is empty on a match
        if not ok:
            failures.append(entry_id)
        if args.catalog_cmd == "run":
            print(f"{entry_id}: {'PASS' if ok else 'FAIL'}" + (f"\n{diff}" if diff else ""))
        else:
            print(f"{entry_id}: no differences" if ok else f"{entry_id}:\n{diff}")
    return OK if not failures else FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraunitary",
        description="Exact paraunitary matrices from complete symmetric orthogonal idempotent sets.",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    idem = sub.add_parser("idem", help="construct and verify idempotent sets")
    idem_sub = idem.add_subparsers(dest="idem_cmd", required=True)
    for kind, (_, help_text, flags) in IDEM_COMMANDS.items():
        p = idem_sub.add_parser(kind, help=help_text)
        for name, options in flags.items():
            p.add_argument(f"--{name}", **options)
        p.add_argument("--ring", choices=(RATIONAL, CYCLOTOMIC, PRIME_FIELD), default=RATIONAL)
        p.add_argument("--conductor", help="cyclotomic conductor N")
        p.add_argument("--prime", help="prime for a prime field")
        p.add_argument("--out", help="write the primary output to this file")

    p = sub.add_parser("build", help="execute a pipeline file")
    p.add_argument("pipeline")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="verify a matrix or set file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("paraunitary", "pseudo", "hadamard", "idemset"), required=True)

    p = sub.add_parser("specialize", help="assign unit-modulus values to all variables")
    p.add_argument("--matrix", required=True)
    p.add_argument("--assign", required=True, help="comma list like z=1,t=-1")
    p.add_argument("--out")

    for name, help_text in (("det", "exact determinant of a matrix file"),
                            ("rank", "exact rank and trace of a scalar matrix file")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--matrix", required=True)
        p.add_argument("--out")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("catalog", help="list, run, or diff the regression catalog")
    p.add_argument("catalog_cmd", choices=("list", "run", "diff", "show"))
    p.add_argument("--id")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs milliseconds per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "idem": cmd_idem,
        "build": cmd_build,
        "verify": cmd_verify,
        "specialize": cmd_specialize,
        "det": cmd_det,
        "rank": cmd_rank,
        "catalog": cmd_catalog,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left early (``| head``): stop without a traceback,
        # and point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except ExactAlgebraError as exc:
        if exc.exit_code == 3:
            label = "internal error"
        elif isinstance(exc, PipelineError) and args.command == "build":
            label = "build failed"  # the document or one of its steps (under idem, an input error)
        else:
            label = "input error" if isinstance(exc, ParseError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
