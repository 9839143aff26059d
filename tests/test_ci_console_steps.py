"""The console-script steps of the CI workflow, run as tier-1 tests.

``.github/workflows/ci.yml`` checks the CLI through the installed
``paraunitary`` console script in every step named "... through the
installed console script".  This test runs the ``run:`` text of each such
step with ``bash -e``, as the runner does, so the workflow stays the one
source of these checks.  The steps run in turn, as on the runner, in one
temporary directory that holds a copy of the working tree's ``src/`` (they
read ``src/paraunitary/catalog_data/`` by relative path and write their
files into the working directory), with a ``paraunitary`` wrapper for
``python -m paraunitary.cli`` first on ``PATH`` in place of an install.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
SUFFIX = "through the installed console script"
STEP_SECONDS = 20  # each step takes under 2 s; one that never ends fails instead of growing
pytestmark = pytest.mark.time_bound(120)


def console_steps() -> list[dict]:
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    return [
        step
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if step.get("name", "").endswith(SUFFIX)
    ]


def run_step(script: str, cwd: Path, env: dict) -> tuple[str, str]:
    """``("exit N" or "timed out ...", output)`` of ``bash -e`` on ``script``.

    The step runs in its own process group, which is killed whole on a
    timeout or an interrupt: killing bash alone would leave its commands
    running."""
    with subprocess.Popen(
        ["bash", "-e", "-c", script], cwd=cwd, env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=STEP_SECONDS)
            return f"exit {proc.returncode}", out
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return f"timed out after {STEP_SECONDS} s", proc.communicate()[0]
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise


def test_every_console_script_step_of_ci_passes(tmp_path):
    steps = console_steps()
    assert steps, f"no step of ci.yml is named '... {SUFFIX}'"
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "paraunitary"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m paraunitary.cli "$@"\n')
    wrapper.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}", PYTHONPATH=str(tmp_path / "src"))
    failures = []
    for step in steps:
        print(f"step: {step['name']}")
        status, out = run_step(step["run"], tmp_path, env)
        if status != "exit 0":
            failures.append(f"{step['name']}: {status}\n{out[-2000:]}")
    assert not failures, "\n\n".join(failures)
