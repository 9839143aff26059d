"""Checks of the benchmark itself: tracing must not change results.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

Each test runs a prefix of a workload's verdict list (a pair's build, or a
set's construction, always precedes the verdicts that use it, so a prefix is
self-contained) untraced and then twice under the tracer.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import _cli  # noqa: E402

PREFIX = {"tangle_z8": 30, "sets_mixed": 60, "catalog_cli": 45}
SEED = 11
EXACT = (".calls", ".term_pairs", ".mul_calls", ".repeats", "bytes_out", "bytes_in", "trace.spans", "trace.leaf_calls")


def _traced(verdicts):
    tracer = Tracer(run.PACKAGE)
    tracer.install()
    try:
        outcomes, latencies, _, failed = run.run_verdicts(verdicts, tracer)
    finally:
        tracer.uninstall()
    return outcomes, failed, tracer, sum(latencies)


@pytest.mark.parametrize("workload", sorted(PREFIX))
def test_tracing_keeps_verdicts_and_counts(workload, tmp_path):
    verdicts = run.set_up(workload, SEED, 1, tmp_path)[0][: PREFIX[workload]]
    plain, latencies, _, failed = run.run_verdicts(verdicts)
    plain_s = sum(latencies)
    assert failed == 0
    first, failed1, tracer1, traced_s = _traced(verdicts)
    second, failed2, tracer2, _ = _traced(verdicts)
    assert first == plain and second == plain
    assert failed1 == failed2 == 0

    m1 = tracer1.metrics(traced_s, traced_s, plain_s)
    m2 = tracer2.metrics(traced_s, traced_s, plain_s)
    exact = [name for name in m1 if name.endswith(EXACT)]
    assert {n: m1[n]["value"] for n in exact} == {n: m2[n]["value"] for n in exact}
    assert m1["trace.leaf_calls"]["value"] > 0
    # the self times of all records add up to the verdict spans' time
    assert m1["trace.coverage_share"]["value"] > 0.9


def test_uninstall_restores_the_package(tmp_path):
    verdicts = run.set_up("sets_mixed", SEED, 1, tmp_path)[0]
    polymatrix = sys.modules["paraunitary.polymatrix"]
    idempotents = sys.modules["paraunitary.idempotents"]
    scalars = sys.modules["paraunitary.scalars"]
    before = (polymatrix.mul, idempotents.mul, scalars.ExactScalar.__dict__["__mul__"],
              scalars.RingDescriptor.__dict__["degree"])
    _traced(verdicts[:5])
    after = (polymatrix.mul, idempotents.mul, scalars.ExactScalar.__dict__["__mul__"],
             scalars.RingDescriptor.__dict__["degree"])
    assert after == before


@pytest.mark.parametrize("entry_id", ["tangle-2x2", "c2-idempotents", "tangle-f7"])
def test_traced_catalog_bytes_match_frozen_file(entry_id, tmp_path):
    run.set_up("catalog_cli", SEED, 1, tmp_path)
    cli = sys.modules["paraunitary.cli"]
    frozen = (run.SRC / "paraunitary" / "catalog_data" / f"{entry_id}.json").read_text()
    show = ["catalog", "show", "--id", entry_id]
    code, untraced = _cli(cli, show)
    tracer = Tracer(run.PACKAGE)
    tracer.install()
    try:
        traced_code, traced = _cli(cli, show)
    finally:
        tracer.uninstall()
    assert code == traced_code == 0
    assert untraced == traced == frozen


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sets_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
