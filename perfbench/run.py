"""Benchmark of the paraunitary library: seeded verdict workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tangle_z8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1

One process, one caller, closed loop: each verdict starts when the previous
one has returned. The library is imported from ``src/`` of the checkout; the
run fails (exit 2, no result line) when that source tree is missing.

A run makes PASSES untraced passes over the verdict list, each on inputs set
up afresh. Times are reported at reference speed (see ``reference_probe``):
shared VMs change speed by up to a third over tens of seconds, and
scaling each verdict by the speed measured around it removes most of that.
The raw wall times are printed in the summary line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` one more pass runs under the tracer and the last line carries
the per-layer metrics; the spans are written to
``perfbench/.work/spans-<workload>-seed<seed>.jsonl``. ``--all`` runs every
workload untraced and prints one line of metrics each.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PACKAGE = "paraunitary"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import BUILDERS  # noqa: E402

# Nominal seconds of one untraced pass over one round of each workload,
# measured on a 2-core x86 VM at the seed commit. A run makes PASSES
# passes, so --seconds sets the rounds per pass from these figures: the
# verdict list is fixed for a given (seed, seconds) on any machine.
# MIN_ROUNDS keeps at least 200 verdicts per pass (a round holds 200 verdicts
# in tangle_z8, 92 in sets_mixed and 100 in catalog_cli); sets_mixed gets
# more, since its median verdict lies among many short kinds whose cost
# varies with the seeded content.
ROUND_SECONDS = {"tangle_z8": 8.5, "sets_mixed": 1.5, "catalog_cli": 5.5}
MIN_ROUNDS = {"tangle_z8": 1, "sets_mixed": 5, "catalog_cli": 2}
PASSES = 3
SETUPS_PER_PASS = 3
# Time of reference_kernel at full speed on that VM; a time measured
# while the kernel took longer is scaled down by the same factor. The speed
# changes over a few hundred milliseconds, so probing after every 20 ms of
# verdicts follows it.
REFERENCE_S = 0.0006
PROBE_EVERY_S = 0.02

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def reference_kernel():
    """Fixed interpreter work like the library's inner loops: Fraction
    products and sums into a dict keyed by exponent-like tuples."""
    acc = {}
    a, b = Fraction(3, 7), Fraction(5, 11)
    for i in range(150):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + a * b
        a, b = b, a + 1
    return acc


def reference_probe():
    """Seconds the reference kernel takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def import_package():
    """Import the library from the checkout's src/, dropping earlier imports."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} source tree under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        print(f"error: {PACKAGE} was imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return pkg


def set_up(workload, seed, rounds, workdir):
    """Import the library afresh and build the inputs.

    Returns (verdicts, seconds, seconds at reference speed)."""
    shutil.rmtree(workdir, ignore_errors=True)
    before = reference_probe()
    t0 = time.perf_counter()
    pkg = import_package()
    verdicts = BUILDERS[workload](pkg, seed, rounds, workdir)
    seconds = time.perf_counter() - t0
    scale = 2 * REFERENCE_S / (before + reference_probe())
    return verdicts, seconds, seconds * scale


def run_verdicts(verdicts, tracer=None):
    """Run every verdict in order, probing the machine's speed between them.

    A probe runs once at least PROBE_EVERY_S of verdicts have passed since
    the last one; each verdict is scaled by the mean of the probes on either
    side of it. Returns (outcomes, latencies_s, scaled_latencies_s, failed)."""
    outcomes, latencies, scaled, failed = [], [], [], 0
    clock = time.perf_counter
    before = reference_probe()
    pending = []  # latencies since the last probe
    for v in verdicts:
        if tracer is not None:
            tracer.begin_verdict(v.id)
        t0 = clock()
        try:
            outcome = v.run()
        except Exception as exc:  # an unexpected exception is a failed verdict
            outcome = ("raised", type(exc).__name__, str(exc)[:200])
        finally:
            seconds = clock() - t0
            if tracer is not None:
                tracer.end_verdict()
        latencies.append(seconds)
        pending.append(seconds)
        if sum(pending) >= PROBE_EVERY_S or len(latencies) == len(verdicts):
            after = reference_probe()
            scale = 2 * REFERENCE_S / (before + after)
            scaled.extend(x * scale for x in pending)
            before, pending = after, []
        outcomes.append(outcome)
        if outcome != v.expected:
            failed += 1
            print(f"verdict {v.id}: expected {v.expected!r}, got {outcome!r}", file=sys.stderr)
    return outcomes, latencies, scaled, failed


def measure(workload, seed, rounds, workdir):
    """PASSES untraced passes, each on inputs set up SETUPS_PER_PASS times,
    so set-up samples spread over the run. Each verdict keeps the fastest
    of its scaled latencies over the passes."""
    setups, raw_setups, passes = [], [], []
    for _ in range(PASSES):
        for _ in range(SETUPS_PER_PASS):
            verdicts, raw, seconds = set_up(workload, seed, rounds, workdir)
            raw_setups.append(raw)
            setups.append(seconds)
        passes.append(run_verdicts(verdicts))
    outcomes = passes[0][0]
    failed = sum(
        any(p[0][i] != v.expected for p in passes) for i, v in enumerate(verdicts)
    )
    if any(p[0] != outcomes for p in passes[1:]):
        print("error: passes gave different verdicts", file=sys.stderr)
        failed = max(failed, 1)
    latencies = [min(v) for v in zip(*(p[2] for p in passes))]
    return {
        "outcomes": outcomes,
        "expected_fail": sum("FAIL" in str(v.expected) for v in verdicts),
        "failed": failed,
        "latencies": latencies,
        "setups": setups,
        "raw_setup_s": statistics.median(raw_setups),
        "raw_pass_s": [sum(p[1]) for p in passes],
    }


def end_to_end(m):
    latencies = m["latencies"]
    return {
        "setup_s": statistics.median(m["setups"]),
        "run_s": sum(latencies),
        "verdict_p50_ms": statistics.median(latencies) * 1000,
        "verdict_p95_ms": statistics.quantiles(latencies, n=20)[18] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS[workload], round(seconds / (PASSES * ROUND_SECONDS[workload])))


def run_workload(workload, seed, seconds, trace):
    """Returns (summary, failed, metrics) of one run."""
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    rounds = rounds_for(workload, seconds)
    try:
        m = measure(workload, seed, rounds, workdir)
        n = len(m["outcomes"])
        summary = {
            "workload": workload,
            "seed": seed,
            "verdicts": n,
            "expected_fail": m["expected_fail"],
            "passes": PASSES,
            "failed": m["failed"],
            "failed_share": m["failed"] / n,
            "raw_setup_s": m["raw_setup_s"],
            "raw_pass_s": m["raw_pass_s"],
        }
        if not trace:
            values = end_to_end(m)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            return summary, m["failed"], metrics
        verdicts, _, _ = set_up(workload, seed, rounds, workdir)
        tracer = Tracer(PACKAGE)
        tracer.install()
        try:
            traced, raw, scaled, traced_failed = run_verdicts(verdicts, tracer)
        finally:
            tracer.uninstall()
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(WORK / f"spans-{workload}-seed{seed}.jsonl")
        if traced != m["outcomes"]:
            print("error: the traced pass gave other verdicts than the untraced passes", file=sys.stderr)
            traced_failed += 1
        summary["traced_failed"] = traced_failed
        metrics = tracer.metrics(sum(raw), sum(scaled), sum(m["latencies"]))
        return summary, m["failed"] + traced_failed, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")

    if args.all:
        worst = 0
        for workload in sorted(BUILDERS):
            summary, failed, metrics = run_workload(workload, args.seed, args.seconds, False)
            shown = " ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in metrics.items())
            print(f"{workload}: {shown} failed_share={summary['failed_share']:.4g} ratio "
                  f"({summary['failed']} of {summary['verdicts']} verdicts)", flush=True)
            worst = max(worst, failed)
        return 1 if worst else 0

    summary, failed, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["verdicts"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
