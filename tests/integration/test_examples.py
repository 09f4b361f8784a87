"""Smoke test: the fast example scripts run to completion.

Each example runs as its own subprocess (the way a user runs it), from a
temporary working directory so nothing lands in the checkout.  The slow
``campaign_sweep.py`` writes a result store and runs as a separate CI
step instead.
"""

import os
import subprocess
import sys

import pytest

import repro

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "examples")
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Example script -> a line fragment its output must contain.
EXAMPLES = {
    "quickstart": "cycles match interpreted run: True",
    "custom_processor": "r0 checksum:",
    "cpn_analysis": "reachable markings:",
    "strongarm_vs_simplescalar": "rcpn-strongarm",
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC_DIR, env.get("PYTHONPATH")) if part
    )
    script = os.path.abspath(os.path.join(EXAMPLES_DIR, name + ".py"))
    completed = subprocess.run(
        [sys.executable, script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert EXAMPLES[name] in completed.stdout
    assert list(tmp_path.iterdir()) == []
