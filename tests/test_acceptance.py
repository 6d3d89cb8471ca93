"""Acceptance gate: eleven end-to-end criteria, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Each test computes its quantities first, prints a single
PASS/FAIL line through ``conftest.report``, then asserts.
"""

import numpy as np
import pytest
from conftest import report

from nhcontact.analysis import (
    convergence_order,
    oscillation_plane_angle,
    period_averaged,
)
from nhcontact.cli import main as cli_main
from nhcontact.contact import run_contact
from nhcontact.experiments import (
    build_contact_system,
    catalog_ids,
    get_experiment,
    run_experiment,
)
from nhcontact.model import (
    DiscretizationRule,
    Integrator,
    PositionRule,
    ZRule,
    discrete_constraint,
)
from nhcontact.newton import NewtonConfig
from nhcontact.reference import consistent_init, make_continuous_system, rkf45_integrate
from nhcontact.systems import (
    FoucaultParams,
    damped_oscillator,
    damped_oscillator_solution,
    disk_eliminated_step,
)

PENDULUM_PERIOD = 2.0 * np.pi * np.sqrt(67.0 / 9.8)  # ~16.4 s swing period
# two swing periods: averages out the fast oscillation while still
# resolving the slow plane rotation
PLANE_WINDOW = 2.0 * PENDULUM_PERIOD


def max_discrete_constraint(spec, traj):
    system = build_contact_system(spec)
    if system.dim_c == 0 or traj.n_steps == 0:
        return 0.0
    return max(
        float(np.max(np.abs(discrete_constraint(
            system, spec.rule, traj.configurations[j], traj.configurations[j + 1]))))
        for j in range(traj.n_steps)
    )


def test_criterion_01_constraint_satisfaction_and_runtime(catalog_runs):
    worst = 0.0
    total_elapsed = 0.0
    all_completed = True
    for eid, run in catalog_runs.items():
        worst = max(worst, max_discrete_constraint(run["spec"], run["trajectory"]))
        total_elapsed += run["elapsed"]
        all_completed &= run["trajectory"].termination.completed
    passed = all_completed and worst <= 1e-5 and total_elapsed < 600.0
    report(1, "catalog constraint satisfaction",
           passed,
           f"max residual {worst:.2e} <= 1e-5, catalog wall time "
           f"{total_elapsed:.0f}s < 600s, all completed: {all_completed}")
    assert passed


def test_criterion_02_order_of_accuracy():
    alpha, omega, t_final = 0.1, 1.0, 10.0
    system = damped_oscillator(alpha, omega)
    slopes = {}
    for label, pos, zr, window in [
        ("first-order", PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, (0.7, 1.3)),
        ("second-order", PositionRule.MIDPOINT, ZRule.SECOND_ORDER, (1.7, 2.3)),
    ]:
        pairs = []
        for h in [0.1, 0.05, 0.025, 0.0125]:
            rule = DiscretizationRule(pos, zr, h)
            n = int(round(t_final / h))
            traj = run_contact(system, rule, np.array([1.0]), np.array([0.0]), n,
                               solver=NewtonConfig(tolerance=1e-12))
            exact = damped_oscillator_solution(alpha, omega, traj.times)
            pairs.append((h, float(np.max(np.abs(traj.configurations[:, 0] - exact)))))
        slopes[label] = (convergence_order(pairs), window)
    passed = all(lo <= s <= hi for s, (lo, hi) in slopes.values())
    detail = ", ".join(f"{k} slope {s:.2f} in [{lo}, {hi}]"
                       for k, (s, (lo, hi)) in slopes.items())
    report(2, "oscillator order of accuracy", passed, detail)
    assert passed


def test_criterion_03_conservative_equivalence():
    n_steps = 10_000
    spec_c = get_experiment("foucault-1", alpha=0.0, t_final=n_steps * 0.05)
    spec_la = get_experiment("foucault-1", alpha=0.0, t_final=n_steps * 0.05,
                             integrator=Integrator.LAGRANGE_DALEMBERT)
    tight = NewtonConfig(tolerance=1e-12)
    traj_c = run_experiment(spec_c, solver=tight)
    traj_la = run_experiment(spec_la, solver=tight)
    per_step = np.max(np.abs(np.diff(traj_c.configurations - traj_la.configurations,
                                     axis=0)))
    cumulative = float(np.max(np.abs(traj_c.configurations - traj_la.configurations)))
    length = spec_c.parameters["l"]
    passed = per_step <= 1e-9 and cumulative <= 1e-6 * length
    report(3, "conservative contact = forced-variational", passed,
           f"per-step {per_step:.2e} <= 1e-9, "
           f"cumulative {cumulative:.2e} <= {1e-6 * length:.2e}")
    assert passed


def test_criterion_04_pendulum_energy_decay(catalog_runs, foucault1_la):
    run = catalog_runs["foucault-1"]
    traj = run["trajectory"]
    _, la_traj = foucault1_la
    alpha = run["spec"].alpha

    _, means = period_averaged(traj.times, traj.energies, PENDULUM_PERIOD)
    expected = traj.energies[0] * np.exp(-alpha * 3600.0)
    ratio = means[-1] / expected

    _, la_means = period_averaged(la_traj.times, la_traj.energies, PENDULUM_PERIOD)
    rel_gap = float(np.max(np.abs(means - la_means) / np.abs(means)))

    passed = 0.8 <= ratio <= 1.2 and rel_gap < 0.02
    report(4, "pendulum energy decay", passed,
           f"final/expected {ratio:.3f} in [0.8, 1.2], "
           f"two-integrator gap {100 * rel_gap:.3f}% < 2%")
    assert passed


def test_criterion_05_pendulum_precession(catalog_runs, foucault1_rkf45):
    run = catalog_runs["foucault-1"]
    params = FoucaultParams(alpha=run["spec"].alpha)
    expected = params.omega_vertical * 3600.0

    def total_rotation(traj):
        _, angles = oscillation_plane_angle(traj, PLANE_WINDOW)
        return abs(angles[-1] - angles[0])

    got = total_rotation(run["trajectory"])
    _, ref_traj = foucault1_rkf45
    ref = total_rotation(ref_traj)
    passed = (abs(got - expected) <= 0.05 * expected
              and abs(ref - expected) <= 0.05 * expected)
    report(5, "pendulum precession rate", passed,
           f"contact {got:.4f}, reference {ref:.4f}, "
           f"target {expected:.4f} rad +-5%")
    assert passed


def test_criterion_06_low_damping_plane_angle_smoothness(catalog_runs, foucault2_la):
    def jump_ratio(traj):
        _, angles = oscillation_plane_angle(traj, PLANE_WINDOW)
        increments = np.abs(np.diff(angles))
        return float(np.max(increments) / np.median(increments))

    la_ratio = jump_ratio(foucault2_la[1])
    contact_ratio = jump_ratio(catalog_runs["foucault-2"]["trajectory"])
    anomaly_reproduced = la_ratio > 10.0

    if anomaly_reproduced:
        # full check: jump on the forced-variational side only, gone at h/20
        spec_fine = get_experiment("foucault-2", h=0.05 / 20.0,
                                   integrator=Integrator.LAGRANGE_DALEMBERT)
        fine_ratio = jump_ratio(run_experiment(spec_fine))
        passed = contact_ratio <= 10.0 and fine_ratio <= 10.0
        detail = (f"anomaly reproduced (baseline jump {la_ratio:.1f}x median); "
                  f"contact {contact_ratio:.1f}x, refined baseline {fine_ratio:.1f}x")
    else:
        # downgraded check: the contact series must stay smooth regardless
        passed = contact_ratio <= 10.0
        detail = (f"anomaly not reproduced at default step "
                  f"(baseline jump {la_ratio:.1f}x median <= 10x); downgraded "
                  f"check: contact jump {contact_ratio:.1f}x median <= 10x")
    report(6, "low-damping plane-angle smoothness", passed, detail)
    assert passed


def test_criterion_07_generic_engine_matches_eliminated_form():
    from nhcontact.experiments import _disk_params

    spec = get_experiment("disk-1.1", t_final=10.0)  # 100 steps at h = 0.1
    tight = NewtonConfig(tolerance=1e-12)
    traj = run_experiment(spec, solver=tight)
    params = _disk_params(spec)
    h = spec.h
    worst = 0.0
    for j in range(1, traj.n_steps):
        q_next = disk_eliminated_step(params, h, traj.configurations[j - 1],
                                      traj.configurations[j], j * h, tight)
        worst = max(worst, float(np.max(np.abs(q_next - traj.configurations[j + 1]))))
    passed = worst <= 1e-8
    report(7, "generic engine vs hand-eliminated disk", passed,
           f"max per-step configuration gap {worst:.2e} <= 1e-8")
    assert passed


def test_criterion_08_disk_conservative_energy(catalog_runs):
    traj = catalog_runs["disk-2.1"]["trajectory"]
    e0 = traj.energies[0]
    drift = float(np.max(np.abs(traj.energies - e0) / abs(e0)))
    passed = drift <= 0.01
    report(8, "undamped disk energy drift", passed,
           f"max relative drift {100 * drift:.3f}% <= 1%")
    assert passed


def test_criterion_09_disk_dissipative_robustness(catalog_runs):
    traj = catalog_runs["disk-2.3"]["trajectory"]
    completed = traj.termination.completed

    _, means = period_averaged(traj.times, traj.energies, 1.0)
    monotone = bool(np.all(np.diff(means) <= 1e-9 * abs(means[0])))

    mask = traj.times <= 11.1
    theta_bounded = bool(np.all(traj.configurations[mask, 2] < np.pi / 2.0))

    passed = completed and monotone and theta_bounded
    report(9, "damped disk completes without falling", passed,
           f"completed: {completed}, period-averaged energy non-increasing: "
           f"{monotone}, max tilt {np.max(traj.configurations[mask, 2]):.3f} < pi/2")
    assert passed


def test_criterion_10_reference_solvers():
    # adaptive explicit solver on the exponential
    rk = rkf45_integrate(lambda t, y: -y, np.array([1.0]), (0.0, 5.0),
                         rel_tol=1e-8, abs_tol=1e-8)
    rk_err = abs(rk.states[-1, 0] - np.exp(-5.0))

    # implicit fixed-step solver order on a linear DAE with a known solution
    from test_reference import LINEAR_DAE
    from nhcontact.reference import implicit_dae_integrate

    pairs = []
    for h in [0.1, 0.05, 0.025, 0.0125]:
        dae = implicit_dae_integrate(LINEAR_DAE, np.array([1.0, 0.0, 1.0]),
                                     np.array([0.0, -1.0, 0.0]), (0.0, 5.0), h,
                                     NewtonConfig(tolerance=1e-12))
        pairs.append((h, abs(dae.states[-1, 0] - np.cos(5.0))))
    slope = convergence_order(pairs)

    # consistent initialization on every catalog initial state
    worst_init = 0.0
    for eid in catalog_ids():
        spec = get_experiment(eid)
        continuous = make_continuous_system(build_contact_system(spec))
        y0, ydot0 = consistent_init(continuous, spec.q0, spec.v0)
        worst_init = max(worst_init,
                         float(np.max(np.abs(continuous.residual(0.0, y0, ydot0)))))

    passed = rk_err <= 1e-7 and 1.7 <= slope <= 2.3 and worst_init <= 1e-10
    report(10, "reference solver accuracy", passed,
           f"adaptive error {rk_err:.2e} <= 1e-7, implicit order {slope:.2f} "
           f"in [1.7, 2.3], worst init residual {worst_init:.2e} <= 1e-10")
    assert passed


def test_criterion_11_determinism(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = cli_main(["run", "disk-2.3", "--output-dir", str(d)])
        assert code == 0
    traj_identical = ((dirs[0] / "trajectory.csv").read_bytes()
                      == (dirs[1] / "trajectory.csv").read_bytes())

    # summary rows must agree except the wall-time column, which measures
    # the run rather than describing the trajectory
    def summary_without_wall_time(d):
        header, row = (d / "summary.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        fields.pop("wall_time")
        return fields

    summaries_identical = (summary_without_wall_time(dirs[0])
                           == summary_without_wall_time(dirs[1]))
    passed = traj_identical and summaries_identical
    report(11, "byte-identical repeated runs", passed,
           f"trajectory bytes identical: {traj_identical}, "
           f"summaries identical (wall time excluded): {summaries_identical}")
    assert passed
