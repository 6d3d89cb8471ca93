"""The benchmark looks library names up by attribute (``contact.StepStats``,
``model.discrete_constraint``, ``cli.write_summary_csv``, ...); its smoke
mode runs every workload at tiny size and fails if one of them is gone."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout
