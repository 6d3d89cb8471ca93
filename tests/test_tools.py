"""The two comparison tools a change to the step kernel is checked with,
``tests/catalog_dq.py`` and ``tests/kernel_timing.py``, run on this checkout
against itself, so that a change to the kernel's signatures that breaks
either one fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tool(name, *args):
    """The lines a tool under ``tests/`` prints; it must exit 0."""
    proc = subprocess.run([sys.executable, os.path.join("tests", name), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_catalog_dq_reads_equal_against_itself():
    header, *rows = run_tool("catalog_dq.py", "src", "src", "--ids", "disk-2.3",
                             "foucault-1/la", "--t-final", "1")
    assert header.split()[0] == "experiment"
    assert [row.split()[0] for row in rows] == ["disk-2.3", "foucault-1/la"]
    # the columns end with bytes and status
    assert [row.split()[-2] for row in rows] == ["equal", "equal"]


def test_kernel_timing_prints_its_nine_rows():
    header, *rows = run_tool("kernel_timing.py", "src", "src", "--rounds", "1")
    assert header.split() == ["case", "kernel", "old", "us", "new", "us", "new/old"]
    assert [row.split()[0] for row in rows] == ["foucault-1"] * 3 + ["foucault-1/la"] * 3 \
        + ["disk-4.2"] * 3
    for row in rows:
        float(row.split()[-1])  # each row ends with its ratio
