"""The demos call the library the way a user would (``run_contact``,
``get_experiment``, ``oscillation_plane_angle``, ...); each must still run."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", [
    ["convergence_orders.py"],
    ["falling_disk.py"],
    ["foucault_precession.py", "--t-final", "120"],
], ids=["convergence_orders", "falling_disk", "foucault_precession"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo[0])] + demo[1:],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
