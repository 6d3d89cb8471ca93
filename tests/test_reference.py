import dataclasses
import math
import warnings

import numpy as np
import numpy_oracle
import pytest

from nhcontact.experiments import (
    DAE_REFINEMENT,
    _foucault_params,
    build_contact_system,
    get_experiment,
    run_experiment,
)
from nhcontact.contact import run_contact
from nhcontact.model import (ContactSystem, DiscretizationRule, EvaluationError, Integrator,
                             PositionRule, SolverFailure, ZRule, central_difference,
                             project_velocity)
from nhcontact.newton import NewtonConfig, newton_solve
from nhcontact.reference import (
    ContinuousConstrainedSystem,
    consistent_init,
    implicit_dae_integrate,
    make_continuous_system,
    rkf45_integrate,
)
from nhcontact.systems import (
    DiskParams,
    FoucaultParams,
    disk_system,
    foucault_reference_ode,
    foucault_system,
)


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


def test_rkf45_infinite_rhs_raises_without_a_warning():
    # the float kernel adds no numpy operation on the stages, so no
    # RuntimeWarning from an inf stage reaches the caller before the error
    def ode(t, y):
        return np.array([np.inf if t > 0.5 else -y[0]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="error estimate nan"):
            rkf45_integrate(ode, np.array([1.0]), (0.0, 5.0))


def test_rkf45_stops_at_once_on_a_stiff_problem():
    # y' = -rate (y - cos t) - sin t from y = 1 follows y = cos t, but
    # stability holds RKF45's step near 3/rate: at rate 1e8 the span 1.5
    # needs about 5e7 steps, past the cap, which it used to reach after
    # minutes.  At rate 1e4 they fit within the cap, and the run completes
    # as without the stiffness test
    calls = []

    def ode(rate):
        def f(t, y):
            calls.append(t)
            return [-rate * (y[0] - math.cos(t)) - math.sin(t)]
        return f

    with pytest.raises(SolverFailure, match=r"rkf45: stiff at t=.* \(\|h lambda\| 3"):
        rkf45_integrate(ode(1e8), np.array([1.0]), (0.0, 1.5))
    assert len(calls) < 50_000
    traj = rkf45_integrate(ode(1e4), np.array([1.0]), (0.0, 1.5))
    assert traj.times[-1] == 1.5 and len(traj.times) > 1.5 * 1e4 / 3.1
    assert abs(traj.states[-1, 0] - math.cos(1.5)) <= 1e-8


def test_rkf45_pendulum_at_the_origin_ends_as_failure():
    # the eliminated multiplier divides by |q|^2: at the origin it is NaN as
    # with numpy, not a ZeroDivisionError, so the run ends as a Termination
    spec = get_experiment("foucault-1", q0=np.zeros(2), t_final=1.0,
                          integrator=Integrator.RKF45_REFERENCE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_experiment(spec)
    assert traj.termination.status == "solver_failure"
    assert "error estimate nan" in traj.termination.message and len(traj.times) == 1


@pytest.mark.parametrize("case", ["foucault-1", "decay"])
def test_rkf45_matches_numpy_oracle(case):
    # the same algorithm with other tableau sums: the step-size controller
    # divides by a difference of two stage sums, so accepted times move (by
    # 3e-7 on foucault-1), but as many steps are accepted and the dense
    # output on the grid agrees to about 1e-13
    if case == "decay":
        ode = oracle_ode = lambda t, y: -y
        y0, grid = [1.0], np.linspace(0.0, 5.0, 101)
    else:
        spec = get_experiment(case, t_final=200.0)
        params = _foucault_params(spec)
        v0 = project_velocity(foucault_system(params), spec.q0, spec.v0)
        ode = foucault_reference_ode(params)
        oracle_ode = numpy_oracle.foucault_reference_ode(params)
        y0, grid = np.concatenate([spec.q0, v0]), spec.h * np.arange(4001)
    span = (grid[0], grid[-1])
    traj = rkf45_integrate(ode, np.array(y0), span)
    oracle = numpy_oracle.rkf45_integrate(oracle_ode, np.array(y0), span)
    assert traj.states.shape == oracle.states.shape
    assert np.max(np.abs(traj.sample(grid) - oracle.sample(grid))) <= 1e-11


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
    )
    traj = implicit_dae_integrate(system, np.array([0.0]), np.array([-1.0]),
                                  (0.0, 2.0), 0.05,
                                  NewtonConfig(tolerance=1e-10))
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
    y0, ydot0 = consistent_init(log_well_oscillator(), np.array([1.0]), np.array([0.0]))
    traj = implicit_dae_integrate(system, y0, ydot0, (0.0, 10.0), h)
    assert traj.completed is False
    assert 1.7 < traj.failure_time < 2.0
    assert "not finite" in traj.failure_message


def action_dependent_inertia():
    # L = (1 + 0.3 z) v^2/2 - q^2/2 - 0.1 z: the momentum (1 + 0.3 z) v
    # changes with z, so its rate carries dp/dz zdot
    return ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * (1.0 + 0.3 * z) * (v[0] * v[0])
        - 0.5 * (q[0] * q[0]) - 0.1 * z,
        constraint_matrix=lambda q: np.zeros((0, 1)),
        lagrangian_gradients=lambda t, q, v, z: (
            [-q[0]], [(1.0 + 0.3 * z) * v[0]], 0.15 * (v[0] * v[0]) - 0.1),
    )


def test_bdf2_momentum_rate_includes_the_action_rate():
    # without dp/dz zdot the consistent rates leave a residual of 5.6e-2;
    # with it BDF2 agrees with the contact integrator to 5.9e-5 in q and
    # 3.7e-5 in z at T = 5
    system = action_dependent_inertia()
    q0, v0 = np.array([1.0]), np.array([0.5])
    y0, ydot0 = consistent_init(system, q0, v0)
    dae = implicit_dae_integrate(make_continuous_system(system), y0, ydot0, (0.0, 5.0),
                                 0.001, NewtonConfig(tolerance=1e-10))
    assert dae.completed
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.01)
    traj = run_contact(system, rule, q0, v0, 500, NewtonConfig(tolerance=1e-10))
    assert traj.termination.completed
    assert abs(dae.states[-1, 0] - traj.configurations[-1, 0]) < 1e-3
    assert abs(dae.states[-1, 2] - traj.z_values[-1]) < 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dae_overflowing_initial_rates_end_as_solver_failure():
    # cmath overflows in initial_acceleration's drift, where numpy gives inf
    v0 = get_experiment("disk-2.3").v0.copy()
    v0[0] = 1e300
    traj = run_experiment(get_experiment(
        "disk-2.3", v0=v0, t_final=1.0, integrator=Integrator.IMPLICIT_DAE_REFERENCE))
    assert (traj.termination.status, traj.termination.step) == ("solver_failure", 1)
    assert traj.n_steps == 0


def continuous_pair(eid: str):
    """The package's continuous form of ``eid``'s contact system and the
    same form with the numpy oracle's residual."""
    system = build_contact_system(get_experiment(eid))
    package = make_continuous_system(system)
    return package, dataclasses.replace(
        package, residual=numpy_oracle.continuous_residual(system))


@pytest.mark.parametrize("eid", ["foucault-1", "disk-2.3", "disk-3.1"])
def test_continuous_residual_matches_numpy_oracle(eid):
    package, oracle = continuous_pair(eid)
    n, m = package.dim_q, package.dim_c
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = rng.normal(size=2 * n + 1 + m)
        ydot = rng.normal(size=2 * n + 1 + m)
        t = float(rng.uniform(0.0, 20.0))
        r = package.residual(t, y, ydot)
        assert isinstance(r, list)
        expected = oracle.residual(t, y, ydot)
        assert np.max(np.abs(np.array(r) - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_bdf2_matches_numpy_oracle_on_disk():
    spec = get_experiment("disk-2.3")
    runs = []
    for continuous in continuous_pair("disk-2.3"):
        y0, ydot0 = consistent_init(build_contact_system(spec), spec.q0, spec.v0)
        runs.append(implicit_dae_integrate(continuous, y0, ydot0, (0.0, 0.5),
                                           spec.h / DAE_REFINEMENT))
    assert all(run.completed for run in runs) and len(runs[0].states) == 51
    assert np.max(np.abs(runs[0].states - runs[1].states)) <= 1e-9


@pytest.mark.parametrize("eid", ["foucault-1", "disk-2.3"])
def test_bdf2_jacobian_matches_central_difference(eid, monkeypatch):
    # forward differences for the q, qdot and z columns, from the residual
    # Newton holds; the multiplier columns -A(q)^T in the momentum rows, exactly
    import nhcontact.reference

    builders = []

    def capturing(residual, x0, config, jacobian=None, build_jacobian=None):
        builders.append((residual, build_jacobian))
        return newton_solve(residual, x0, config, jacobian, build_jacobian)

    monkeypatch.setattr(nhcontact.reference, "newton_solve", capturing)
    spec = get_experiment(eid)
    system = build_contact_system(spec)
    continuous = make_continuous_system(system)
    y0, ydot0 = consistent_init(system, spec.q0, spec.v0)
    traj = implicit_dae_integrate(continuous, y0, ydot0, (0.0, 3 * spec.h), spec.h)
    assert traj.completed
    residual, build = builders[-1]
    n, m = continuous.dim_q, continuous.dim_c
    u = traj.states[-1] + 1e-3 * np.random.default_rng(3).standard_normal(len(y0))
    jac = build(u, residual(u))
    fd = central_difference(lambda v: np.asarray(residual(v), dtype=float), u)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))
    closed = np.zeros((len(u), m))
    closed[n:2 * n] = -np.asarray(continuous.constraint_matrix(u[:n])).T
    assert np.array_equal(jac[:, 2 * n + 1:], closed)


def test_bdf2_jacobian_costs_its_probed_columns(monkeypatch):
    # a fresh Jacobian evaluates the residual once per probed column, 2 n + 1
    # on the disk, and never at its own point, whose residual Newton hands it
    import nhcontact.reference

    counts = {"newton": 0, "builds": 0, "system": 0}
    builders = []

    def capturing(residual, x0, config, jacobian=None, build_jacobian=None):
        def counted(u):
            counts["newton"] += 1
            return residual(u)

        def building(u, fu):
            counts["builds"] += 1
            return build_jacobian(u, fu)

        builders.append((residual, build_jacobian))
        return newton_solve(counted, x0, config, jacobian, building)

    monkeypatch.setattr(nhcontact.reference, "newton_solve", capturing)
    spec = get_experiment("disk-2.3")
    system = build_contact_system(spec)
    continuous = make_continuous_system(system)

    def counting(*args):
        counts["system"] += 1
        return continuous.residual(*args)

    y0, ydot0 = consistent_init(system, spec.q0, spec.v0)
    traj = implicit_dae_integrate(dataclasses.replace(continuous, residual=counting),
                                  y0, ydot0, (0.0, 10 * spec.h), spec.h)
    assert traj.completed and counts["builds"] >= 1
    probed = 2 * continuous.dim_q + 1
    assert counts["system"] == counts["newton"] + probed * counts["builds"]
    residual, build = builders[-1]
    fu = residual(traj.states[-1])
    before = counts["system"]
    build(traj.states[-1], fu)
    assert counts["system"] - before == probed


def test_consistent_init_foucault():
    system = make_continuous_system(foucault_system(FoucaultParams(alpha=1e-3)))
    y0, ydot0 = consistent_init(foucault_system(FoucaultParams(alpha=1e-3)),
                                np.array([0.0, 0.67]), np.zeros(2))
    assert np.max(np.abs(system.residual(0.0, y0, ydot0))) <= 1e-10


def test_consistent_init_disk():
    params = DiskParams(alpha=0.1)
    system = make_continuous_system(disk_system(params))
    q0 = np.array([0.0, 0.0, np.pi / 36.0, 0.0, 0.0])
    v0 = np.array([np.pi, 0.0, 0.0, 0.0, 2.0 * np.pi])
    y0, ydot0 = consistent_init(disk_system(params), q0, v0)
    assert np.max(np.abs(system.residual(0.0, y0, ydot0))) <= 1e-10
    # velocity part satisfies the rolling constraints
    a = system.constraint_matrix(q0)
    v = y0[5:10]
    assert np.max(np.abs(a @ v)) < 1e-12


def test_consistent_init_constraint_matrix_calls():
    # one A(q) each for the projection, the saddle system, the drift's
    # complex step and the two residual checks: none per probe (143 calls
    # when the drift was taken at every Gauss-Newton probe)
    spec = get_experiment("disk-2.2")
    base = build_contact_system(spec)
    calls = []

    def counting(q):
        calls.append(1)
        return base.constraint_matrix(q)

    counted = dataclasses.replace(base, constraint_matrix=counting)
    system = make_continuous_system(counted)
    y0, ydot0 = consistent_init(counted, spec.q0, spec.v0)
    assert np.max(np.abs(system.residual(0.0, y0, ydot0))) <= 1e-8
    assert 0 < len(calls) <= 8


def test_consistent_init_projects_infeasible_velocity():
    system = foucault_system(FoucaultParams())
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
    system = make_continuous_system(foucault_system(params))
    q0, v0 = np.array([0.0, 0.67]), np.zeros(2)
    y0, ydot0 = consistent_init(foucault_system(params), q0, v0)
    dae = implicit_dae_integrate(system, y0, ydot0, (0.0, 5.0), 0.005,
                                 NewtonConfig(tolerance=1e-10))
    rk = rkf45_integrate(foucault_reference_ode(params),
                         np.concatenate([q0, y0[2:4]]), (0.0, 5.0),
                         rel_tol=1e-10, abs_tol=1e-12)
    q_dae = dae.states[-1, :2]
    q_rk = rk.sample(np.array([5.0]))[0, :2]
    assert np.max(np.abs(q_dae - q_rk)) < 1e-4


@pytest.mark.parametrize("integrator, measured", [
    (Integrator.RKF45_REFERENCE, 4.3e-8),
    (Integrator.IMPLICIT_DAE_REFERENCE, 5.7e-6),
], ids=["rkf45", "bdf2"])
def test_references_match_scipy_dop853(integrator, measured):
    # an independent check of both reference solvers: scipy's 8th-order
    # Dormand-Prince at 1e-12 on the eliminated pendulum ODE, 20 s of
    # foucault-1 (|q| up to 0.67); the bound is twice the error measured
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    spec = get_experiment("foucault-1", t_final=20.0, integrator=integrator)
    params = _foucault_params(spec)
    traj = run_experiment(spec)
    assert traj.termination.completed and len(traj.times) == 401
    v0 = project_velocity(foucault_system(params), spec.q0, spec.v0)
    exact = solve_ivp(foucault_reference_ode(params), (0.0, 20.0), np.concatenate([spec.q0, v0]),
                      method="DOP853", rtol=1e-12, atol=1e-12, t_eval=traj.times)
    assert exact.success
    error = np.max(np.abs(traj.configurations - exact.y[:2].T))
    assert error <= 2.0 * measured
