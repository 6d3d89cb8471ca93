"""Golden digests: short runs of the catalog must reproduce recorded bits.

Each entry of ``golden_digests.json`` is the SHA-256 of one short run's
trajectory arrays (``tobytes``), termination and Newton statistics: the 13
catalog experiments under the contact integrator with every position and z
rule, and the Lagrange-d'Alembert runs of ``foucault-1`` and ``foucault-2``
with every rule.  Changes that do not alter the algorithm keep them; a change
that moves trajectory bits regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and states its largest catalog |dq| against the old tree's Newton error,
which ``python tests/catalog_dq.py OLD_SRC NEW_SRC`` prints.

The step kernel and the built-in systems compute on Python floats, but the
seed's small dots (the drift's ``A(q) v``), the complex difference
velocities of the Jacobian's probes and Newton's linear algebra are numpy's:
each Jacobian is inverted by the LAPACK that numpy loads, and each Newton
correction is a product with that inverse.  So the digests hold for the
numpy build and the LAPACK kernel they were recorded with.  Another numpy
version, or one whose small dot, complex-by-real division or 8-by-8 inverse
rounds otherwise (the probe below; OpenBLAS picks its kernel for the CPU it
runs on), skips the test with the reason.  The built-in systems square a
variable as a product, correctly rounded, so the digests do not depend on
how libm's ``pow`` rounds ``x ** 2``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from nhcontact import Integrator, StepStats, get_experiment, run_experiment
from nhcontact.experiments import catalog_ids
from nhcontact.model import DiscretizationRule, PositionRule, ZRule

TABLE = pathlib.Path(__file__).with_name("golden_digests.json")
#: Horizon of each run: 80 Foucault steps, 40 disk steps.
T_FINAL = 4.0
RULES = [(position, z_rule) for position in PositionRule for z_rule in ZRule]


def rounding_probe() -> dict:
    """One length-5 dot, one complex array divided by a real scalar and the
    inverse of one 8-by-8 matrix, as hex floats; a plain sum of products, a
    true division and another LAPACK kernel would round these otherwise."""
    a = np.array([0.01, -0.28, 1.29, 1.01, -2.71])
    b = np.array([-1.89, -0.17, -0.42, 0.21, 0.22])
    quotient = np.array([2.12 - 1.11j]) / 0.8
    # exact entries, so that only the inverse's own rounding shows
    k = np.arange(64.0)
    matrix = ((k * k + 3.0 * k) % 17.0).reshape(8, 8) / 4.0 - 2.0
    return {"dot": float(a @ b).hex(),
            "complex_div": [quotient[0].real.hex(), quotient[0].imag.hex()],
            "inverse_8x8": [v.hex() for v in np.linalg.inv(matrix).ravel().tolist()]}


def run_digest(eid: str, integrator: Integrator, position: PositionRule,
               z_rule: ZRule) -> str:
    rule = DiscretizationRule(position, z_rule, get_experiment(eid).h)
    spec = get_experiment(eid, t_final=T_FINAL, integrator=integrator, rule=rule)
    stats = StepStats()
    traj = run_experiment(spec, stats=stats)
    digest = hashlib.sha256()
    for array in (traj.times, traj.configurations, traj.velocities, traj.z_values,
                  traj.multipliers, traj.energies):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr((traj.termination, stats.total_iterations, stats.max_iterations,
                        stats.max_constraint.hex())).encode())
    return digest.hexdigest()


def cases():
    for eid in catalog_ids():
        for position, z_rule in RULES:
            yield eid, Integrator.CONTACT, position, z_rule
    for eid in ("foucault-1", "foucault-2"):
        for position, z_rule in RULES:
            yield eid, Integrator.LAGRANGE_DALEMBERT, position, z_rule


def key(eid, integrator, position, z_rule) -> str:
    return f"{integrator.value}/{eid}/{position.value}-{z_rule.value}"


def record() -> dict:
    return {"numpy": np.__version__, "probe": rounding_probe(),
            "digests": {key(*case): run_digest(*case) for case in cases()}}


def test_catalog_runs_match_golden_digests():
    table = json.loads(TABLE.read_text())
    if np.__version__ != table["numpy"]:
        pytest.skip(f"digests recorded with numpy {table['numpy']}, running {np.__version__}")
    if rounding_probe() != table["probe"]:
        pytest.skip("this numpy's small dot, complex division or LAPACK inverse rounds "
                    "otherwise than the recording's")
    moved = [key(*case) for case in cases() if run_digest(*case) != table["digests"][key(*case)]]
    assert not moved, f"{len(moved)} runs moved bits: {moved}"


if __name__ == "__main__":
    TABLE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
