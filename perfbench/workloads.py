"""Seeded experiment variants for each workload, and the run of one variant.

A *variant* is one experiment built through the public API
(``get_experiment`` with overrides).  A *run* does what ``nhcontact run``
(or ``nhcontact compare``) does for it: integrate with ``run_experiment``,
check the output, and write ``trajectory.csv`` and ``summary.csv``.

Variants come in fixed *rounds*: every round holds the same kinds of variant
in the same order, and only their parameters are drawn from the seed.  The
timed loop stops at a round boundary, so the share of each kind among the
runs, and with it the failure share, does not depend on how many runs fit in
the time.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Criterion-1 bound on the discrete-constraint residual of a trajectory.
CONSTRAINT_BOUND = 1e-5

#: Largest configuration error against the reference solver, as a share of
#: the reference's largest |q|.  It flags gross errors, not discretisation
#: error: over 300 seeded pendulum variants the largest share seen was 9e-4,
#: but a grid point that lands within ~1e-5 |q| of the pivot point, where the
#: constraint row A(q) = (-y, x) vanishes, gave 0.022 (h = 0.05; 2e-5 at
#: h = 0.005).  Disk families 1-3 stay below 0.02.
REFERENCE_ERROR_SHARE = 0.1

FOUCAULT_PERIOD = 2.0 * math.pi / math.sqrt(9.81 / 67.0)


@dataclass
class Variant:
    kind: str
    spec: object                     # experiment under test (contact or la)
    system: object                   # its system, for the constraint check
    reference: object = None         # reference-solver experiment of a compare variant


@dataclass
class Outcome:
    wall: float                      # seconds: integrate, check, write
    steps: int                       # completed integration steps of ``spec``
    failure: Optional[str] = None    # None, "solver_failure", an exception name or "check:..."
    incorrect: bool = False          # a returned output failed its check
    csv_paths: list = field(default_factory=list)
    bytes_written: int = 0
    speed: float = 1.0               # machine-speed factor the driver scales ``wall`` by


# ---------------------------------------------------------------------------
# Variant generators
# ---------------------------------------------------------------------------

def _foucault_overrides(lib, rng, t_final):
    base = lib.experiments.get_experiment("foucault-1")
    length = base.parameters["l"]
    alpha = float(10.0 ** rng.uniform(-4.0, -3.0))
    beta = float(np.deg2rad(rng.uniform(20.0, 80.0)))
    amplitude = length * float(rng.uniform(1.0 / 200.0, 1.0 / 50.0))
    direction = float(rng.uniform(0.0, math.pi))
    axis = np.array([math.cos(direction), math.sin(direction)])
    radial_speed = amplitude * 2.0 * math.pi / FOUCAULT_PERIOD * float(rng.uniform(-1.0, 1.0))
    return dict(alpha=alpha, parameters={**base.parameters, "beta": beta},
                q0=amplitude * axis, v0=radial_speed * axis, t_final=t_final)


def _disk_overrides(lib, rng, family, t_final):
    """Perturb catalog family ``family`` (1-4): alpha, rates, and the tilt of
    the families that start tilted.  Families 1 and 3 start upright; tilting
    those makes the disk fall over within the run, so they get spin instead."""
    base = lib.experiments.get_experiment(f"disk-{family}.1")
    q0 = np.array(base.q0, dtype=float)
    v0 = np.array(base.v0, dtype=float) * rng.uniform(0.9, 1.1, size=5)
    if q0[2] == 0.0:
        v0[4] += float(rng.uniform(0.0, 1.0))
    else:
        q0[2] *= float(rng.uniform(0.8, 1.2))
        v0[2] += float(rng.uniform(-0.05, 0.05))
    return dict(alpha=float(rng.uniform(0.0, 0.1)), q0=q0, v0=v0, t_final=t_final)


def _contact_variant(lib, kind, eid, overrides):
    spec = lib.experiments.get_experiment(eid, **overrides)
    return Variant(kind, spec, lib.experiments.build_contact_system(spec))


def _foucault_variant(lib, rng, size):
    return _contact_variant(lib, "foucault", "foucault-1",
                            _foucault_overrides(lib, rng, size["foucault_t"]))


def _disk_variant(lib, rng, size, family):
    return _contact_variant(lib, f"disk-{family}", f"disk-{family}.1",
                            _disk_overrides(lib, rng, family, size["disk_t"]))


#: Coarse-step catalog variants at the robustness edge, one per round in turn.
#: All of them fail: by ``solver_failure``, or for disk-4.3 at h = 0.8 by a
#: ``NewtonDivergence`` that escapes ``run_experiment`` from the window
#: seeding.  They are not perturbed: near the edge, small perturbations flip
#: runs between failing and completing, which would make the failure share a
#: matter of the seed.
COARSE_VARIANTS = (("disk-4.3", 0.3, 10.0), ("disk-2.3", 2.0, 20.0),
                   ("disk-4.3", 0.45, 10.0), ("disk-4.3", 0.8, 10.0))


def _coarse_disk_variant(lib, round_index):
    eid, h, t_final = COARSE_VARIANTS[round_index % len(COARSE_VARIANTS)]
    return _contact_variant(lib, "disk-coarse", eid, {"h": h, "t_final": t_final})


def _compare_foucault_variant(lib, rng, size):
    overrides = _foucault_overrides(lib, rng, size["compare_foucault_t"])
    integrator = lib.model.Integrator
    la = lib.experiments.get_experiment(
        "foucault-1", integrator=integrator.LAGRANGE_DALEMBERT, **overrides)
    ref = lib.experiments.get_experiment(
        "foucault-1", integrator=integrator.RKF45_REFERENCE, **overrides)
    return Variant("cmp-foucault", la, lib.experiments.build_la_system(la), ref)


def _compare_disk_variant(lib, rng, size, family):
    overrides = _disk_overrides(lib, rng, family, size["compare_disk_t"])
    integrator = lib.model.Integrator
    contact = lib.experiments.get_experiment(f"disk-{family}.1", **overrides)
    ref = lib.experiments.get_experiment(
        f"disk-{family}.1", integrator=integrator.IMPLICIT_DAE_REFERENCE, **overrides)
    return Variant("cmp-disk", contact, lib.experiments.build_contact_system(contact), ref)


def _foucault_round(lib, rng, size, r):
    return [_foucault_variant(lib, rng, size) for _ in range(4)]


def _disk_round(lib, rng, size, r):
    normal = [_disk_variant(lib, rng, size, fam) for fam in (1, 2, 3, 4, 1, 2, 3, 4)]
    return normal + [_coarse_disk_variant(lib, r)]


def _compare_round(lib, rng, size, r):
    return [_compare_foucault_variant(lib, rng, size),
            _compare_foucault_variant(lib, rng, size),
            _compare_disk_variant(lib, rng, size, 1 + r % 3)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    warmup: tuple                    # catalog id of the warm-up run, and its SIZES key for t_final


WORKLOADS = {
    "foucault-sweep": Workload("foucault-sweep", _foucault_round, ("foucault-1", "foucault_t")),
    "disk-sweep": Workload("disk-sweep", _disk_round, ("disk-2.2", "disk_t")),
    "compare-sweep": Workload("compare-sweep", _compare_round, ("foucault-2", "foucault_t")),
}

#: Variant sizes (simulated seconds).  Foucault steps at h = 0.05, the disk
#: at h = 0.1 except for the coarse variants.
SIZES = {
    "full": {"foucault_t": 8.0, "disk_t": 4.0, "compare_foucault_t": 12.0,
             "compare_disk_t": 0.5, "pool_rounds": 32},
    "tiny": {"foucault_t": 0.5, "disk_t": 0.5, "compare_foucault_t": 4.5,
             "compare_disk_t": 0.2, "pool_rounds": 2},
}


def build_pool(lib, workload: Workload, seed: int, size: dict) -> list:
    """The seeded list of rounds the timed loop cycles through."""
    rng = np.random.default_rng(seed)
    return [workload.make_round(lib, rng, size, r) for r in range(size["pool_rounds"])]


def warmup_variant(lib, workload: Workload, size: dict) -> Variant:
    """Catalog experiment, shortened to the workload's variant size; its
    trajectory CSV is the same for every seed."""
    eid, size_key = workload.warmup
    return _contact_variant(lib, "catalog", eid, {"t_final": size[size_key]})


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def _all_finite(traj) -> bool:
    arrays = (traj.times, traj.configurations, traj.velocities, traj.z_values,
              traj.multipliers, traj.energies)
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def constraint_check(lib, system, rule, traj) -> float:
    """Worst discrete-constraint residual over the trajectory, as
    ``nhcontact run`` computes it for its summary."""
    if system.dim_c == 0 or traj.n_steps == 0:
        return 0.0
    discrete_constraint = lib.model.discrete_constraint
    worst = 0.0
    for j in range(traj.n_steps):
        r = discrete_constraint(system, rule, traj.configurations[j],
                                traj.configurations[j + 1])
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def _compare_check(lib, kind, traj, ref) -> Optional[str]:
    if len(traj.times) != len(ref.times):
        return "check:grid"
    errors = lib.analysis.trajectory_error(traj, ref.configurations).errors
    scale = float(np.max(np.linalg.norm(ref.configurations, axis=1)))
    if not float(np.max(errors)) <= REFERENCE_ERROR_SHARE * scale:
        return "check:reference_error"
    if kind == "cmp-foucault":
        window = 0.25 * FOUCAULT_PERIOD
        for run in (traj, ref):
            _, angles = lib.analysis.oscillation_plane_angle(run, window)
            if not np.all(np.isfinite(angles)):
                return "check:plane_angle"
    return None


def _run_and_write(lib, spec, system, out_dir):
    """``run_experiment``, then the trajectory CSV, the constraint check and
    the summary CSV, as ``nhcontact run`` does.  Returns the trajectory, the
    failure (or None), whether it is an output-check failure, and the paths
    written."""
    tag = spec.integrator.value
    stats = lib.contact.StepStats()
    start = time.perf_counter()
    traj = lib.experiments.run_experiment(spec, stats=stats)
    wall = time.perf_counter() - start
    paths = [os.path.join(out_dir, f"trajectory-{tag}.csv"),
             os.path.join(out_dir, f"summary-{tag}.csv")]
    lib.cli.write_trajectory_csv(paths[0], traj)
    max_c = 0.0 if system is None else constraint_check(lib, system, spec.rule, traj)
    lib.cli.write_summary_csv(paths[1], traj, wall, stats, max_c)
    if not _all_finite(traj):
        return traj, "check:non_finite", True, paths
    if not max_c <= CONSTRAINT_BOUND:
        return traj, "check:constraint", True, paths
    if not traj.termination.completed:
        return traj, traj.termination.status, False, paths
    return traj, None, False, paths


def run_variant(lib, variant: Variant, out_dir: str) -> Outcome:
    """Integrate, check and write one variant; every failure is caught and
    reported in the outcome, so the loop keeps going."""
    steps = 0
    failure = None
    incorrect = False
    paths = []
    start = time.perf_counter()
    try:
        traj, failure, incorrect, paths = _run_and_write(lib, variant.spec, variant.system,
                                                         out_dir)
        steps = traj.n_steps
        if variant.reference is not None:
            ref, ref_failure, ref_incorrect, ref_paths = _run_and_write(
                lib, variant.reference, None, out_dir)
            paths += ref_paths
            failure = failure or ref_failure
            incorrect = incorrect or ref_incorrect
            if failure is None:
                failure = _compare_check(lib, variant.kind, traj, ref)
                incorrect = failure is not None
    except Exception as exc:   # an escaped solver error counts as a failed run
        failure = type(exc).__name__
    wall = time.perf_counter() - start
    return Outcome(wall=wall, steps=steps, failure=failure, incorrect=incorrect,
                   csv_paths=[p for p in paths if "trajectory-" in os.path.basename(p)],
                   bytes_written=sum(os.path.getsize(p) for p in paths))
