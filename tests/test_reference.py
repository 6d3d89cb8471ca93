import dataclasses

import numpy as np
import pytest

from nhcontact.experiments import build_contact_system, get_experiment
from nhcontact.model import ContactSystem, EvaluationError
from nhcontact.newton import NewtonConfig
from nhcontact.reference import (
    ConsistencyFailure,
    ContinuousConstrainedSystem,
    consistent_init,
    implicit_dae_integrate,
    make_continuous_system,
    rkf45_integrate,
)
from nhcontact.systems import DiskParams, FoucaultParams, disk_system, foucault_system


def test_rkf45_exponential_accuracy():
    traj = rkf45_integrate(lambda t, y: -y, np.array([1.0]), (0.0, 5.0),
                           rel_tol=1e-8, abs_tol=1e-8)
    assert abs(traj.states[-1, 0] - np.exp(-5.0)) <= 1e-7


def test_rkf45_non_finite_rhs_raises():
    # a NaN error estimate used to reject the step and grow it, forever
    calls = []

    def ode(t, y):
        calls.append(t)
        assert len(calls) < 10_000, "rkf45 kept stepping on a NaN right-hand side"
        return np.array([np.nan if t > 0.5 else -y[0]])

    with pytest.raises(EvaluationError, match="error estimate nan"):
        rkf45_integrate(ode, np.array([1.0]), (0.0, 5.0))


def test_rkf45_error_scales_with_tolerance():
    def final_error(tol):
        traj = rkf45_integrate(lambda t, y: -y, np.array([1.0]), (0.0, 5.0),
                               rel_tol=tol, abs_tol=tol)
        return abs(traj.states[-1, 0] - np.exp(-5.0))

    # error-per-unit-step control: halving the tolerance roughly halves
    # the global error
    ratio = final_error(1e-8) / final_error(5e-9)
    assert ratio >= 1.5


def test_rkf45_dense_output_between_steps():
    traj = rkf45_integrate(lambda t, y: np.array([np.cos(t)]),
                           np.array([0.0]), (0.0, 10.0),
                           rel_tol=1e-10, abs_tol=1e-12)
    t = np.linspace(0.0, 10.0, 137)
    sampled = traj.sample(t)[:, 0]
    # cubic Hermite between accepted steps, not solver accuracy
    assert np.max(np.abs(sampled - np.sin(t))) < 1e-6


def test_rkf45_two_dimensional_oscillator():
    def ode(t, y):
        return np.array([y[1], -y[0]])

    traj = rkf45_integrate(ode, np.array([1.0, 0.0]), (0.0, 2.0 * np.pi),
                           rel_tol=1e-10, abs_tol=1e-12)
    assert np.allclose(traj.states[-1], [1.0, 0.0], atol=1e-8)


LINEAR_DAE = ContinuousConstrainedSystem(
    dim_q=1,
    dim_c=1,
    residual=lambda t, y, ydot: np.array(
        [ydot[0] - y[1], ydot[1] + y[0], y[2] - y[0]]
    ),
    constraint_matrix=lambda q: np.zeros((1, 1)),
    constraint_offset=lambda q: np.zeros(1),
)


def test_bdf2_second_order_on_linear_dae():
    from nhcontact.analysis import convergence_order

    y0 = np.array([1.0, 0.0, 1.0])
    ydot0 = np.array([0.0, -1.0, 0.0])
    pairs = []
    for h in [0.1, 0.05, 0.025, 0.0125]:
        traj = implicit_dae_integrate(LINEAR_DAE, y0, ydot0, (0.0, 5.0), h,
                                      NewtonConfig(tolerance=1e-12))
        assert traj.completed
        pairs.append((h, abs(traj.states[-1, 0] - np.cos(5.0))))
    assert 1.7 <= convergence_order(pairs) <= 2.3


def test_bdf2_algebraic_variable_tracks_state():
    traj = implicit_dae_integrate(LINEAR_DAE, np.array([1.0, 0.0, 1.0]),
                                  np.array([0.0, -1.0, 0.0]), (0.0, 2.0), 0.01,
                                  NewtonConfig(tolerance=1e-12))
    assert np.max(np.abs(traj.states[:, 2] - traj.states[:, 0])) < 1e-11


def test_dae_failure_recorded_not_raised():
    # algebraic equation exp(y) = 1 - t has no root beyond t = 1
    def residual(t, y, ydot):
        return np.array([np.exp(y[0]) - (1.0 - t)])

    system = ContinuousConstrainedSystem(
        dim_q=1, dim_c=0, residual=residual,
        constraint_matrix=lambda q: np.zeros((0, 1)),
        constraint_offset=lambda q: np.zeros(0),
    )
    traj = implicit_dae_integrate(system, np.array([0.0]), np.array([-1.0]),
                                  (0.0, 2.0), 0.05,
                                  NewtonConfig(tolerance=1e-10, max_iterations=10))
    assert not traj.completed
    assert traj.failure_time is not None
    assert traj.failure_time <= 2.0
    assert len(traj.times) == len(traj.states)


def log_well_oscillator():
    # L = v^2/2 - q^2/2 - log(q + 1.1) - 0.1 z: the swing reaches q = -1.1,
    # where the Lagrangian is not finite, near t = 1.85
    return ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v - 0.5 * q @ q
        - np.log(q[0] + 1.1) - 0.1 * z,
        constraint_matrix=lambda q: np.zeros((0, 1)),
        lagrangian_gradients=lambda t, q, v, z: (-q - 1.0 / (q + 1.1), v.copy(), -0.1),
    )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("h", [0.05, 0.1, 0.2])
def test_dae_non_finite_residual_recorded_not_raised(h):
    system = make_continuous_system(log_well_oscillator())
    y0, ydot0 = consistent_init(system, np.array([1.0]), np.array([0.0]))
    traj = implicit_dae_integrate(system, y0, ydot0, (0.0, 10.0), h)
    assert traj.completed is False
    assert 1.7 < traj.failure_time < 2.0
    assert "not finite" in traj.failure_message


def test_consistent_init_foucault():
    system = make_continuous_system(foucault_system(FoucaultParams(alpha=1e-3)))
    y0, ydot0 = consistent_init(system, np.array([0.0, 0.67]), np.zeros(2))
    assert np.max(np.abs(system.residual(0.0, y0, ydot0))) <= 1e-10


def test_consistent_init_disk():
    params = DiskParams(alpha=0.1)
    system = make_continuous_system(disk_system(params))
    q0 = np.array([0.0, 0.0, np.pi / 36.0, 0.0, 0.0])
    v0 = np.array([np.pi, 0.0, 0.0, 0.0, 2.0 * np.pi])
    y0, ydot0 = consistent_init(system, q0, v0)
    assert np.max(np.abs(system.residual(0.0, y0, ydot0))) <= 1e-10
    # velocity part satisfies the rolling constraints
    a = system.constraint_matrix(q0)
    v = y0[5:10]
    assert np.max(np.abs(a @ v)) < 1e-12


def test_consistent_init_constraint_matrix_calls():
    # the constraint drift does not depend on the unknowns, so it is computed
    # once and not at every Gauss-Newton probe (143 calls when it was)
    spec = get_experiment("disk-2.2")
    base = build_contact_system(spec)
    calls = []

    def counting(q):
        calls.append(1)
        return base.constraint_matrix(q)

    system = make_continuous_system(dataclasses.replace(base, constraint_matrix=counting))
    y0, ydot0 = consistent_init(system, spec.q0, spec.v0)
    assert np.max(np.abs(system.residual(0.0, y0, ydot0))) <= 1e-8
    assert 0 < len(calls) <= 80


def test_consistent_init_projects_infeasible_velocity():
    system = make_continuous_system(foucault_system(FoucaultParams()))
    q0 = np.array([0.1, 0.5])
    v0 = np.array([1.0, 1.0])  # violates the rotating-frame constraint
    y0, _ = consistent_init(system, q0, v0)
    a = system.constraint_matrix(q0)
    b = system.constraint_offset(q0)
    assert np.max(np.abs(a @ y0[2:4] + b)) < 1e-12


def test_make_continuous_system_requires_gradients():
    bare = ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v,
        constraint_matrix=lambda q: np.zeros((0, 1)),
    )
    with pytest.raises(ValueError):
        make_continuous_system(bare)


def test_dae_matches_rkf45_on_foucault():
    params = FoucaultParams(alpha=1e-3)
    from nhcontact.systems import foucault_reference_ode

    system = make_continuous_system(foucault_system(params))
    q0, v0 = np.array([0.0, 0.67]), np.zeros(2)
    y0, ydot0 = consistent_init(system, q0, v0)
    dae = implicit_dae_integrate(system, y0, ydot0, (0.0, 5.0), 0.005,
                                 NewtonConfig(tolerance=1e-10))
    rk = rkf45_integrate(foucault_reference_ode(params),
                         np.concatenate([q0, y0[2:4]]), (0.0, 5.0),
                         rel_tol=1e-10, abs_tol=1e-12)
    q_dae = dae.states[-1, :2]
    q_rk = rk.sample(np.array([5.0]))[0, :2]
    assert np.max(np.abs(q_dae - q_rk)) < 1e-4
