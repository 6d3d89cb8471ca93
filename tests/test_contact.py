import numpy as np
import pytest

import nhcontact.contact
import nhcontact.newton
from nhcontact.contact import (
    DenominatorSingular,
    StepStats,
    contact_jacobian,
    contact_residual,
    contact_step,
    contact_window_terms,
    initialize_window,
    project_velocity,
    run_contact,
    solve_z_update,
)
from nhcontact.dalembert import _seed_window, la_jacobian, la_residual, la_window_terms, run_la
from nhcontact.experiments import (
    DISK_RULE,
    build_contact_system,
    build_la_system,
    get_experiment,
    run_experiment,
)
from nhcontact.model import (
    ContactSystem,
    DiscretizationRule,
    Integrator,
    PositionRule,
    StepState,
    ZRule,
    central_difference,
    discrete_constraint,
    evaluate_discrete_lagrangian,
    partials_of_Ld,
)
from nhcontact.newton import NewtonConfig
from nhcontact.systems import (
    FoucaultParams,
    damped_oscillator,
    damped_oscillator_solution,
    foucault_system,
)

TRAP_FIRST = DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, 0.05)


def test_pendulum_residual_matches_hand_coded_stepping_equations():
    """The engine's momentum rows must equal the hand-expanded scheme

    m[(2q_j - q_{j+1} - q_{j-1})/h^2 - (g/l)q_j
      - alpha((q_j - q_{j-1})/h - (h/2)(g/l)q_j)] - A(q_j)^T lambda
    for the damped pendulum in the rotating frame.
    """
    params = FoucaultParams(alpha=1e-3)
    system = foucault_system(params)
    h = TRAP_FIRST.h
    m, g, l, alpha = params.m, params.g, params.l, params.alpha
    rng = np.random.default_rng(0)
    for _ in range(10):
        qm = rng.normal(size=2)
        qj = qm + 0.05 * rng.normal(size=2)
        qp = qj + 0.05 * rng.normal(size=2)
        lam = rng.normal(size=1)
        zm, zj, zp = rng.normal(size=3)
        window = StepState(q_prev=qm, q_curr=qj, z_prev=zm, z_curr=zj, t_curr=1.0)
        res = contact_residual(system, TRAP_FIRST, window,
                               contact_window_terms(system, TRAP_FIRST, window),
                               np.concatenate([qp, [zp], lam]))
        hand = m * ((2 * qj - qp - qm) / h ** 2 - (g / l) * qj
                    - alpha * ((qj - qm) / h - (h / 2) * (g / l) * qj))
        hand -= np.array([[-qj[1], qj[0]]]).T @ lam
        assert np.allclose(res[:2], hand, rtol=1e-12, atol=1e-9)


def test_pendulum_residual_constraint_row():
    params = FoucaultParams(alpha=1e-3)
    system = foucault_system(params)
    h = TRAP_FIRST.h
    qj = np.array([0.1, 0.6])
    qp = np.array([0.15, 0.58])
    window = StepState(q_prev=qj, q_curr=qj, z_prev=0.0, z_curr=0.0, t_curr=0.0)
    res = contact_residual(system, TRAP_FIRST, window,
                           contact_window_terms(system, TRAP_FIRST, window),
                           np.concatenate([qp, [0.0], [0.0]]))
    expected = (-qj[1] * (qp[0] - qj[0]) / h + qj[0] * (qp[1] - qj[1]) / h
                + params.omega_vertical * (qj @ qj))
    assert res[-1] == pytest.approx(expected, rel=1e-12)


def unhoisted_contact_residual(system, rule, window, unknowns):
    """Reference residual that recomputes every window term per call."""
    w = window
    n, m, h = system.dim_q, system.dim_c, rule.h
    q_next, z_next, lam = unknowns[:n], unknowns[n], unknowns[n + 1:]
    d1f, _, d3f, _ = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, w.z_curr, z_next)
    _, d2b, _, d4b = partials_of_Ld(system, rule, w.t_curr - h, w.q_prev, w.q_curr,
                                    w.z_prev, w.z_curr)
    momentum = d1f + d2b * (1.0 + h * d3f) / (1.0 - h * d4b)
    if m:
        momentum = momentum - system.constraint_matrix(w.q_curr).T @ lam
    ld_fwd = evaluate_discrete_lagrangian(system, rule, w.t_curr, w.q_curr, q_next,
                                          w.z_curr, z_next)
    out = np.empty(n + 1 + m)
    out[:n] = momentum
    out[n] = z_next - w.z_curr - h * ld_fwd
    if m:
        out[n + 1:] = discrete_constraint(system, rule, w.q_curr, q_next)
    return out


def pendulum_case():
    return foucault_system(FoucaultParams(alpha=1e-3)), TRAP_FIRST, np.array([0.1, 0.6])


def forced_disk_case():
    # family 3 ramps its forcing with t, so the window's time matters
    spec = get_experiment("disk-3.2")
    return build_contact_system(spec), DISK_RULE, spec.q0 + np.array([0.0, 0.0, 0.1, 0.2, 0.3])


KERNEL_CASES = [pendulum_case, forced_disk_case]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=["pendulum-trap-first", "disk-mid-second"])
def test_hoisted_residual_bit_identical_to_unhoisted(case):
    system, rule, q = case()
    n, m = system.dim_q, system.dim_c
    rng = np.random.default_rng(3)
    for _ in range(20):
        qm = q + 0.05 * rng.normal(size=n)
        qj = qm + 0.05 * rng.normal(size=n)
        zm, zj = rng.normal(size=2)
        window = StepState(q_prev=qm, q_curr=qj, z_prev=zm, z_curr=zj,
                           t_curr=rng.uniform(0.1, 10.0))
        terms = contact_window_terms(system, rule, window)
        for _ in range(5):
            unknowns = np.concatenate([qj + 0.05 * rng.normal(size=n),
                                       rng.normal(size=1 + m)])
            assert np.array_equal(contact_residual(system, rule, window, terms, unknowns),
                                  unhoisted_contact_residual(system, rule, window, unknowns))


@pytest.mark.parametrize("case", KERNEL_CASES, ids=["pendulum-trap-first", "disk-mid-second"])
def test_contact_step_computes_window_partials_once(case, monkeypatch):
    system, rule, q = case()
    calls = {"partials": 0, "residual": 0}

    def counting(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    window = initialize_window(system, rule, q, np.zeros(system.dim_q))
    monkeypatch.setattr(nhcontact.contact, "partials_of_Ld",
                        counting("partials", partials_of_Ld))
    monkeypatch.setattr(nhcontact.contact, "contact_residual",
                        counting("residual", contact_residual))
    _, _, _, _, iterations = contact_step(system, rule, window, np.zeros(system.dim_c),
                                          None, NewtonConfig())
    assert iterations >= 1
    assert calls["partials"] == calls["residual"] + 1


def test_oscillator_against_analytic_solution():
    alpha, omega = 0.1, 1.0
    system = damped_oscillator(alpha, omega)
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.01)
    traj = run_contact(system, rule, np.array([1.0]), np.array([0.0]), 1000,
                       NewtonConfig(tolerance=1e-12))
    exact = damped_oscillator_solution(alpha, omega, traj.times)
    assert np.max(np.abs(traj.configurations[:, 0] - exact)) < 5e-5


@pytest.mark.parametrize(
    "rule, window",
    [
        (DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.1), (0.7, 1.3)),
        (DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1), (1.7, 2.3)),
    ],
    ids=["left-first", "mid-second"],
)
def test_oscillator_convergence_order(rule, window):
    from nhcontact.analysis import convergence_order

    alpha, omega, t_final = 0.1, 1.0, 10.0
    system = damped_oscillator(alpha, omega)
    pairs = []
    for h in [0.1, 0.05, 0.025, 0.0125]:
        r = DiscretizationRule(rule.position_rule, rule.z_rule, h)
        traj = run_contact(system, r, np.array([1.0]), np.array([0.0]),
                           int(round(t_final / h)), NewtonConfig(tolerance=1e-12))
        err = abs(traj.configurations[-1, 0]
                  - damped_oscillator_solution(alpha, omega, t_final))
        pairs.append((h, err))
    assert window[0] <= convergence_order(pairs) <= window[1]


def test_z_tracks_accumulated_action():
    # alpha = 0: zdot = L, so z(T) is the action integral of the motion
    system = damped_oscillator(alpha=0.0)
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.001)
    # the momentum residual scales like 1/h^2, so 1e-10 is the realistic floor
    traj = run_contact(system, rule, np.array([1.0]), np.array([0.0]), 1000,
                       NewtonConfig(tolerance=1e-10))
    assert traj.termination.completed
    # x = cos t: action of the harmonic oscillator over [0, 1]
    t = 1.0
    exact = -0.25 * np.sin(2.0 * t)
    assert traj.z_values[-1] == pytest.approx(exact, abs=1e-5)


def test_solve_z_update_first_order_is_explicit():
    system = damped_oscillator(alpha=0.2)
    rule = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.1)
    q, qn = np.array([1.0]), np.array([1.05])
    z = 0.3
    ld = system.lagrangian(0.0, q, (qn - q) / 0.1, z)
    assert solve_z_update(system, rule, 0.0, q, qn, z) == pytest.approx(z + 0.1 * ld)


def test_solve_z_update_second_order_fixed_point():
    system = damped_oscillator(alpha=0.2)
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1)
    q, qn = np.array([1.0]), np.array([1.05])
    z = 0.3
    zn = solve_z_update(system, rule, 0.0, q, qn, z)
    ld = system.lagrangian(0.05, 0.5 * (q + qn), (qn - q) / 0.1, 0.5 * (z + zn))
    assert zn == pytest.approx(z + 0.1 * ld, abs=1e-12)


def test_project_velocity_affine():
    system = foucault_system(FoucaultParams())
    q = np.array([0.0, 0.67])
    v = project_velocity(system, q, np.zeros(2))
    a = system.constraint_matrix(q)
    b = system.constraint_offset(q)
    assert np.max(np.abs(a @ v + b)) < 1e-15


def test_initialize_window_satisfies_z_update():
    system = damped_oscillator()
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1)
    w = initialize_window(system, rule, np.array([1.0]), np.array([0.0]))
    assert w.z_curr == pytest.approx(
        solve_z_update(system, rule, 0.0, w.q_prev, w.q_curr, 0.0)
    )
    assert w.t_curr == pytest.approx(0.1)


def test_denominator_singularity_detected():
    # L = z/h makes D4 = 1/(2h) under the second-order rule: 1 - h D4 = 1/2,
    # while L = 2z/h gives exactly zero
    h = 0.1
    system = ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: 2.0 * z / h,
        constraint_matrix=lambda q: np.zeros((0, 1)),
    )
    rule = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.SECOND_ORDER, h)
    window = StepState(q_prev=np.zeros(1), q_curr=np.zeros(1),
                       z_prev=0.0, z_curr=0.0, t_curr=h)
    with pytest.raises(DenominatorSingular):
        contact_window_terms(system, rule, window)


DRIVERS = [run_contact, run_la]


def cusp_system():
    # Lagrangian with no stationary point of the step map: sqrt blows up FD
    return ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v - np.sqrt(np.abs(q[0]) + 1e-12) * 1e6,
        constraint_matrix=lambda q: np.zeros((0, 1)),
    )


def log_singular_system():
    # the log well pulls the swing past q = -1.1, where L is not finite
    return ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v - 0.5 * q @ q - np.log(q[0] + 1.1),
        constraint_matrix=lambda q: np.zeros((0, 1)),
    )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("system", [cusp_system(), log_singular_system()],
                         ids=["cusp", "log-singular"])
@pytest.mark.parametrize("run", DRIVERS, ids=lambda run: run.__name__)
def test_solver_failure_truncates_trajectory(run, system):
    rule = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.1)
    traj = run(system, rule, np.array([1.0]), np.array([0.0]), 50,
               NewtonConfig(tolerance=1e-14, max_iterations=4))
    assert not traj.termination.completed
    assert traj.termination.status == "solver_failure"
    assert traj.termination.step == traj.n_steps + 1
    assert len(traj.times) == traj.n_steps + 1
    assert traj.n_steps < 50


def nan_gradient_system():
    # L stays finite everywhere; the gradient of its potential is NaN below -0.5
    def gradients(t, q, v, z):
        return -q * np.sqrt(q + 0.5) / np.sqrt(q + 0.5), v.copy(), -0.1

    return ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v - 0.5 * q @ q - 0.1 * z,
        constraint_matrix=lambda q: np.zeros((0, 1)),
        lagrangian_gradients=gradients,
    )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("run, step", [(run_contact, 23), (run_la, 22)],
                         ids=["run_contact", "run_la"])
def test_non_finite_gradient_ends_as_solver_failure(run, step):
    # the swing from q = 1 passes q = -0.5 near t = 2.1; the failure step is
    # the one at which per-call partials checks used to stop the run
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1)
    traj = run(nan_gradient_system(), rule, np.array([1.0]), np.array([0.0]), 60,
               NewtonConfig(tolerance=1e-10))
    assert traj.termination.status == "solver_failure"
    assert "not finite" in traj.termination.message
    assert traj.termination.step == step == traj.n_steps + 1
    assert np.all(np.isfinite(traj.configurations))


def test_step_stats_recorded():
    system = damped_oscillator()
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.05)
    stats = StepStats()
    run_contact(system, rule, np.array([1.0]), np.array([0.0]), 20,
                NewtonConfig(tolerance=1e-10), stats=stats)
    assert stats.steps == 19  # the seeding step is not an implicit solve
    assert stats.total_iterations >= stats.steps
    assert stats.max_iterations <= 5  # smooth problem, extrapolated guesses


@pytest.mark.parametrize("run", DRIVERS, ids=lambda run: run.__name__)
def test_zero_steps_returns_initial_state(run):
    system = damped_oscillator()
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.05)
    traj = run(system, rule, np.array([1.0]), np.array([0.0]), 0)
    assert traj.n_steps == 0
    assert traj.configurations.shape == (1, 1)
    assert traj.termination.completed


@pytest.mark.parametrize("integrator", [Integrator.CONTACT, Integrator.LAGRANGE_DALEMBERT],
                         ids=["contact", "la"])
def test_newton_reuses_jacobian_across_steps(integrator, monkeypatch):
    # a Newton that builds a fresh Jacobian at every iteration needs 1.87
    # (contact) and 1.0 (LA) per Foucault step; chord iterations on the
    # previous step's factors need far fewer.  Every fresh Jacobian, exact or
    # finite-difference, is factored once.
    original, calls = nhcontact.newton.lu_factor, []

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(nhcontact.newton, "lu_factor", counting)
    traj = run_experiment(get_experiment("foucault-1", t_final=10.0, integrator=integrator))
    assert traj.n_steps == 200 and traj.termination.completed
    assert len(calls) <= 0.75 * traj.n_steps


def test_reused_jacobian_belongs_to_its_run():
    # a disk run (8 unknowns) between two runs of one Foucault variant
    # (4 unknowns) must not change the second
    spec = get_experiment("foucault-1", t_final=5.0, alpha=0.01)
    first = run_experiment(spec)
    assert run_experiment(get_experiment("disk-2.2", t_final=1.0)).termination.completed
    second = run_experiment(spec)
    for field in ("times", "configurations", "velocities", "z_values", "multipliers",
                  "energies"):
        assert np.array_equal(getattr(first, field), getattr(second, field)), field
    assert first.termination == second.termination


def _jacobian_case(case, rule):
    """(residual, jacobian, system, window, terms, guess) of one step of ``case``."""
    if case == "oscillator":
        system, q0, v0 = damped_oscillator(), np.array([1.0]), np.array([0.0])
    else:
        spec = get_experiment("foucault-1" if case.startswith("foucault") else "disk-2.3")
        build = build_la_system if case == "foucault-la" else build_contact_system
        system, q0, v0 = build(spec), spec.q0, spec.v0
    if case == "foucault-la":
        window = _seed_window(system, rule, q0, v0)
        residual, jacobian, z = la_residual, la_jacobian, []
        terms = la_window_terms(system, rule, window)
    else:
        window = initialize_window(system, rule, q0, v0)
        residual, jacobian, z = contact_residual, contact_jacobian, [window.z_curr + 0.1]
        terms = contact_window_terms(system, rule, window)
    guess = np.concatenate([2.0 * window.q_curr - window.q_prev, z, np.ones(system.dim_c)])
    return residual, jacobian, system, window, terms, guess


@pytest.mark.parametrize("z_rule", list(ZRule), ids=lambda r: r.value)
@pytest.mark.parametrize("position", list(PositionRule), ids=lambda r: r.value)
@pytest.mark.parametrize("case", ["oscillator", "foucault", "foucault-la", "disk"])
def test_step_jacobian_matches_central_difference(case, position, z_rule):
    # known multiplier and first-order z columns, complex steps for the rest
    rule = DiscretizationRule(position, z_rule, 0.05 if case.startswith("foucault") else 0.1)
    residual, jacobian, system, window, terms, guess = _jacobian_case(case, rule)
    x = guess + 1e-3 * np.random.default_rng(0).standard_normal(len(guess))
    exact = jacobian(system, rule, window, terms, x)
    fd = central_difference(lambda u: residual(system, rule, window, terms, u), x)
    assert exact.dtype == float
    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_catalog_newton_iterations_keep_margin_below_cap(catalog_runs):
    # every resolved catalog step needs at most 7 iterations, 3 below the cap
    # that makes steps too coarse to resolve fail
    assert NewtonConfig().max_iterations == 10
    worst = {eid: run["stats"].max_iterations for eid, run in catalog_runs.items()}
    assert max(worst.values()) <= 7, worst
