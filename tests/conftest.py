import time
import warnings

import numpy as np
import pytest

from nhcontact import Integrator, StepStats, get_experiment, run_experiment
from nhcontact.experiments import catalog_ids

# numpy drops the imaginary part of a complex value stored into a real array
# with only a warning; the complex-step Jacobians rely on that never happening
warnings.filterwarnings("error", category=getattr(np, "exceptions", np).ComplexWarning)


@pytest.fixture(scope="session")
def catalog_runs():
    """Contact-integrator run of every catalog experiment, with wall times."""
    runs = {}
    for eid in catalog_ids():
        spec = get_experiment(eid)
        stats = StepStats()
        start = time.perf_counter()
        traj = run_experiment(spec, stats=stats)
        elapsed = time.perf_counter() - start
        runs[eid] = {"spec": spec, "trajectory": traj,
                     "elapsed": elapsed, "stats": stats}
    return runs


@pytest.fixture(scope="session")
def foucault1_la():
    spec = get_experiment("foucault-1", integrator=Integrator.LAGRANGE_DALEMBERT)
    return spec, run_experiment(spec)


@pytest.fixture(scope="session")
def foucault1_rkf45():
    spec = get_experiment("foucault-1", integrator=Integrator.RKF45_REFERENCE)
    return spec, run_experiment(spec)


@pytest.fixture(scope="session")
def foucault2_la():
    spec = get_experiment("foucault-2", integrator=Integrator.LAGRANGE_DALEMBERT)
    return spec, run_experiment(spec)


_CRITERION_LINES = []


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    """One-line pass/fail record for an acceptance criterion.

    Printed immediately (visible with ``-s``) and repeated in the terminal
    summary so the lines survive pytest's output capture.
    """
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {number:2d}] {name}: {status}{suffix}"
    _CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
