from dataclasses import replace
from functools import partial

import numpy as np
import numpy_oracle
import pytest
from numpy_oracle import Window, state, window_carry
from hypothesis import given, settings
from hypothesis import strategies as st

import nhcontact.contact
import nhcontact.dalembert
import nhcontact.newton
from nhcontact.contact import (
    StepCarry,
    StepStats,
    contact_residual,
    contact_window_terms,
    initialize_window,
    project_velocity,
    run_contact,
    seed_residual,
    solve_step,
    step_jacobian,
)
from nhcontact.dalembert import la_residual, run_la
from nhcontact.experiments import (
    DISK_RULE,
    _disk_params,
    build_contact_system,
    build_la_system,
    catalog_ids,
    get_experiment,
    run_experiment,
)
from nhcontact.model import (
    COMPLEX_STEP,
    ContactSystem,
    DiscretizationRule,
    Integrator,
    PositionRule,
    SolverFailure,
    StepState,
    ZRule,
    central_difference,
    complex_step,
    discrete_constraint,
    evaluate_discrete_lagrangian,
    initial_acceleration,
    partials_of_Ld,
    step_evaluator,
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
        window = Window(qm, qj, zm, zj, 1.0)
        terms = contact_window_terms(system, TRAP_FIRST, state(window),
                                     window_carry(system, TRAP_FIRST, window))
        res = contact_residual(system, TRAP_FIRST, state(window), terms,
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
    window = Window(qj, qj, 0.0, 0.0, 0.0)
    terms = contact_window_terms(system, TRAP_FIRST, state(window),
                                 window_carry(system, TRAP_FIRST, window))
    res = contact_residual(system, TRAP_FIRST, state(window), terms,
                           np.concatenate([qp, [0.0], [0.0]]))
    expected = (-qj[1] * (qp[0] - qj[0]) / h + qj[0] * (qp[1] - qj[1]) / h
                + params.omega_vertical * (qj @ qj))
    assert res[-1] == pytest.approx(expected, rel=1e-12)


def pendulum_case():
    return foucault_system(FoucaultParams(alpha=1e-3)), TRAP_FIRST, np.array([0.1, 0.6])


def forced_disk_case():
    # family 3 ramps its forcing with t, so the window's time matters
    spec = get_experiment("disk-3.2")
    return build_contact_system(spec), DISK_RULE, spec.q0 + np.array([0.0, 0.0, 0.1, 0.2, 0.3])


KERNEL_CASES = [pendulum_case, forced_disk_case]


def _oracle_case(name):
    """``(residual, system, oracle residual, oracle system, q, h)``: the
    built-in systems against their numpy callables, the others against
    themselves."""
    if name in ("pendulum", "fd-pendulum", "la-pendulum"):
        params = FoucaultParams(alpha=1e-3)
        formulation = "la" if name == "la-pendulum" else "herglotz"
        system = foucault_system(params, formulation)
        oracle = numpy_oracle.foucault_system(params, formulation)
        if name == "fd-pendulum":
            system = replace(system, lagrangian_gradients=None)
            oracle = replace(oracle, lagrangian_gradients=None)
        q, h = np.array([0.1, 0.6]), TRAP_FIRST.h
    elif name in ("disk", "la-disk"):
        # the disk has no external-force formulation; its contact Lagrangian
        # with z frozen at zero still exercises the forced Lagrange-d'Alembert
        # residual.  Family 3 ramps its forcing with t, so the window's time
        # matters.
        spec = get_experiment("disk-3.2")
        system = build_contact_system(spec)
        oracle = numpy_oracle.disk_system(_disk_params(spec))
        q, h = spec.q0 + np.array([0.0, 0.0, 0.1, 0.2, 0.3]), DISK_RULE.h
    else:
        system = oracle = damped_oscillator()
        q, h = np.array([0.7]), 0.1
    if name.startswith("la-"):
        return la_residual, system, numpy_oracle.la_residual, oracle, q, h
    return contact_residual, system, numpy_oracle.contact_residual, oracle, q, h


RULE_IDS = {PositionRule.LEFT_ENDPOINT: "left", PositionRule.MIDPOINT: "mid",
            PositionRule.TRAPEZOIDAL: "trap"}


def exact_jacobian(residual, system, rule, window, terms, x):
    """The step Jacobian at ``x`` as :func:`solve_step` builds it: the action
    row from the real evaluation at ``x``, complex probes without ``L_d``."""
    keep = []
    residual(system, rule, window, terms, x, keep)
    return step_jacobian(lambda u, probe: residual(system, rule, window, terms, u, None, probe),
                         x, terms[2], window.q_curr, rule, keep[:2])
ORACLE_CASES = [(name, position, z_rule)
                for name in ("pendulum", "disk", "oscillator", "fd-pendulum", "la-pendulum",
                             "la-disk")
                for position in PositionRule for z_rule in ZRule]


@pytest.mark.parametrize(
    "name, position, z_rule", ORACLE_CASES,
    ids=[f"{name}-{RULE_IDS[position]}-{z_rule.value}" for name, position, z_rule in ORACLE_CASES])
def test_hoisted_residual_bit_identical_to_unhoisted(name, position, z_rule):
    # the Python-number residual and callables against numpy's, recomputing
    # the window terms per call: on real unknowns and, with analytic
    # gradients, on every complex-step probe of the exact Jacobian, zero
    # signs included; and the step Jacobian against numpy's column loop on
    # the numpy residual
    residual, system, oracle, oracle_system, q, h = _oracle_case(name)
    rule = DiscretizationRule(position, z_rule, h)
    with_z = residual is contact_residual
    n, m = system.dim_q, system.dim_c
    rng = np.random.default_rng(3)
    for _ in range(8):
        qm = q + 0.05 * rng.normal(size=n)
        qj = qm + 0.05 * rng.normal(size=n)
        zm, zj = rng.normal(size=2) if with_z else (0.0, 0.0)
        window = Window(qm, qj, zm, zj, rng.uniform(0.1, 10.0))
        point = state(window)
        terms = contact_window_terms(system, rule, point,
                                     window_carry(system, rule, window, with_z))
        for _ in range(3):
            x = np.concatenate([qj + 0.05 * rng.normal(size=n),
                                rng.normal(size=int(with_z) + m)])
            probes = [] if system.lagrangian_gradients is None else \
                [x + 1j * COMPLEX_STEP * e for e in np.eye(len(x))]
            for unknowns in [x] + probes:
                hoisted = np.asarray(residual(system, rule, point, terms, unknowns))
                expected = oracle(oracle_system, rule, window, unknowns)
                assert hoisted.dtype == expected.dtype == unknowns.dtype
                assert hoisted.tobytes() == expected.tobytes()
            if probes:
                jac = exact_jacobian(residual, system, rule, point, terms, x)
                action = numpy_oracle.action_partials(oracle_system, rule, window, x) \
                    if with_z else None
                expected = numpy_oracle.step_jacobian(
                    lambda u: oracle(oracle_system, rule, window, u), x, terms[2], rule, action)
                assert jac.tobytes() == expected.tobytes()


def test_step_jacobian_bit_identical_to_column_loop():
    # real parts of the probes: -0.0 entries of x enter as +0.0, as in
    # x + 1j * 1e-200 * e_i, which log's branch cut tells apart (an imaginary
    # part pi instead of 0); exp overflows and 1/0 make non-finite columns
    x = np.array([-0.0, 0.5, 0.0, -0.0, 2.0])
    a_t = [[1.0], [-0.0], [3.0], [0.5]]

    def residual(u):
        return np.array([np.log(u[0]) + u[1], np.exp(800.0 * u[1]) * u[3],
                         1.0 / u[2] - u[0] * u[4], u[3] * u[1], -0.0 * u[2]])

    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.FIRST_ORDER, 0.1)
    with np.errstate(all="ignore"):
        # the residual reads its unknowns alone, not the probe points
        jac = step_jacobian(lambda u, probe: residual(u), x, a_t, np.zeros(4), rule)
        expected = numpy_oracle.step_jacobian(residual, x, a_t, rule)
    assert not np.all(np.isfinite(jac))
    assert jac.tobytes() == expected.tobytes()


def numpy_seed_residual(system, rule, q0, target, with_z, unknowns):
    """The seed step's residual on numpy arrays, with the oracle's kernel:
    ``q1 - target - A(q0)^T mu``, ``z1 - h L_d`` when ``with_z``, then the
    discrete constraint of the step from ``(0, q0, 0)``."""
    n, m = system.dim_q, system.dim_c
    q1, mu = unknowns[:n], unknowns[n + with_z:]
    rows = [q1 - np.array(target)]
    if m:
        rows[0] = rows[0] - numpy_oracle.matvec(np.asarray(system.constraint_matrix(q0)).T, mu)
    if with_z:
        z1 = unknowns[n]
        ld = numpy_oracle.evaluate_discrete_lagrangian(system, rule, 0.0, q0, q1, 0.0, z1)
        rows.append([z1 - rule.h * ld])
    if m:
        rows.append(numpy_oracle.discrete_constraint(system, rule, q0, q1))
    return np.concatenate(rows)


SEED_CASES = [(name, position, z_rule, with_z)
              for name in ("pendulum", "disk", "oscillator")
              for position in PositionRule for z_rule in ZRule for with_z in (True, False)]


@pytest.mark.parametrize(
    "name, position, z_rule, with_z", SEED_CASES,
    ids=[f"{name}-{RULE_IDS[position]}-{z_rule.value}-{'z' if with_z else 'la'}"
         for name, position, z_rule, with_z in SEED_CASES])
def test_seed_jacobian_bit_identical_to_column_loop(name, position, z_rule, with_z):
    # the seed step's rows go through the same probe path as the implicit
    # steps': its residual and exact Jacobian against the numpy seed
    # residual and numpy's column loop, with and without z (the
    # Lagrange-d'Alembert seed), zero signs included
    _, system, _, oracle_system, q, h = _oracle_case(name)
    rule = DiscretizationRule(position, z_rule, h)
    n, m = system.dim_q, system.dim_c
    rng = np.random.default_rng(7)
    q0 = q + 0.05 * rng.normal(size=n)
    seed = StepState(q0, 0.0, 0.0)
    terms = contact_window_terms(system, rule, seed, StepCarry(None, [0.0] * n, 0.0, 0.0, []),
                                 with_z)
    for _ in range(3):
        target = (q0 + 0.05 * rng.normal(size=n)).tolist()
        residual = partial(seed_residual, target, with_z)
        x = np.concatenate([np.array(target) + 0.01 * rng.normal(size=n),
                            rng.normal(size=int(with_z) + m)])

        def oracle(u):
            return numpy_seed_residual(oracle_system, rule, q0, target, with_z, u)

        for unknowns in [x] + [x + 1j * COMPLEX_STEP * e for e in np.eye(len(x))]:
            assert _same_bytes(residual(system, rule, seed, terms, unknowns), oracle(unknowns))
        action = None
        if with_z:
            _, d2, _, d4 = numpy_oracle.partials_of_Ld(oracle_system, rule, 0.0, q0, x[:n], 0.0,
                                                       x[n])
            action = d2, d4
        expected = numpy_oracle.step_jacobian(oracle, x, terms[2], rule, action)
        assert exact_jacobian(residual, system, rule, seed, terms, x).tobytes() \
            == expected.tobytes()


def _array_twin(name):
    """``(residual, run, system, twin, q0, v0, h)``: a system whose
    gradients (and constraint offset and force) return lists or tuples, and
    its twin that returns numpy arrays."""
    if name in ("pendulum", "la-pendulum"):
        params = FoucaultParams(alpha=1e-3)
        formulation = "la" if name == "la-pendulum" else "herglotz"
        system = foucault_system(params, formulation)
        twin = numpy_oracle.foucault_system(params, formulation)
        q0, v0, h = np.array([0.1, 0.6]), np.array([0.2, -0.1]), TRAP_FIRST.h
    elif name == "forced-disk":
        spec = get_experiment("disk-3.2")
        system = build_contact_system(spec)
        twin = numpy_oracle.disk_system(_disk_params(spec))
        q0, v0, h = spec.q0, spec.v0, spec.h
    else:
        twin = damped_oscillator()

        def tuples(t, q, v, z):
            gq, gv, gz = twin.lagrangian_gradients(t, q, v, z)
            return tuple(gq.tolist()), tuple(gv.tolist()), gz

        system = replace(twin, lagrangian_gradients=tuples)
        q0, v0, h = np.array([1.0]), np.array([0.0]), 0.1
    if name.startswith("la-"):
        return la_residual, run_la, system, twin, q0, v0, h
    return contact_residual, run_contact, system, twin, q0, v0, h


TWIN_CASES = [(name, position, z_rule)
              for name in ("pendulum", "la-pendulum", "forced-disk", "tuple-oscillator")
              for position in PositionRule for z_rule in ZRule]


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "name, position, z_rule", TWIN_CASES,
    ids=[f"{name}-{RULE_IDS[position]}-{z_rule.value}" for name, position, z_rule in TWIN_CASES])
def test_sequence_returns_bit_identical_to_array_returns(name, position, z_rule):
    # the kernel takes a returned list or tuple as it is and turns an array
    # into a list: the built-in systems, whose callables return lists, and
    # an oscillator whose gradients return tuples, against twins returning
    # numpy arrays, on real unknowns and every complex-step probe
    residual, run, system, twin, q0, v0, h = _array_twin(name)
    rule = DiscretizationRule(position, z_rule, h)
    with_z = residual is contact_residual
    n, m = system.dim_q, system.dim_c
    rng = np.random.default_rng(4)
    qm = q0 + 0.05 * rng.normal(size=n)
    qj = qm + 0.05 * rng.normal(size=n)
    zm, zj = rng.normal(size=2) if with_z else (0.0, 0.0)
    window = Window(qm, qj, zm, zj, 1.3)
    terms = [contact_window_terms(s, rule, state(window), window_carry(s, rule, window, with_z),
                                  with_z)
             for s in (system, twin)]
    x = np.concatenate([qj + 0.05 * rng.normal(size=n), rng.normal(size=int(with_z) + m)])
    for unknowns in [x] + [x + 1j * COMPLEX_STEP * e for e in np.eye(len(x))]:
        got, expected = (residual(s, rule, state(window), t, unknowns)
                         for s, t in zip((system, twin), terms))
        assert _same_bytes(got, expected)
        assert _same_bytes(discrete_constraint(system, rule, qj, unknowns[:n]),
                           discrete_constraint(twin, rule, qj, unknowns[:n]))
    got, expected = (exact_jacobian(residual, s, rule, state(window), t, x)
                     for s, t in zip((system, twin), terms))
    assert _same_bytes(got, expected)
    stats = [StepStats(), StepStats()]
    got, expected = (run(s, rule, q0, v0, 50, stats=st) for s, st in zip((system, twin), stats))
    assert got.termination == expected.termination
    for field in ("times", "configurations", "velocities", "z_values", "multipliers",
                  "energies"):
        assert _same_bytes(getattr(got, field), getattr(expected, field))
    assert stats[0] == stats[1]


@pytest.mark.parametrize("eid, counts, shared", [
    # the midpoint point is built once and serves all three callables
    ("disk-2.3", {"lagrangian_gradients": 1, "lagrangian": 1, "constraint_matrix": 1,
                  "constraint_offset": 1}, True),
    # the trapezoid samples L at both ends; the window supplies A(q_j), b(q_j)
    ("foucault-1", {"lagrangian_gradients": 2, "lagrangian": 2}, False),
], ids=["disk-2.3", "foucault-1"])
def test_residual_calls_each_system_callable_once_per_point(eid, counts, shared):
    # a real evaluation calls each callable once per point; so does each
    # complex probe of a whole step Jacobian, which takes its action row in
    # closed form: it makes no lagrangian call and asks the evaluator for
    # neither D2 nor L_d
    spec = get_experiment(eid)
    system = build_contact_system(spec)
    calls = {}

    def counting(name, f):
        def wrapped(*args):
            calls.setdefault(name, []).append(args)
            return f(*args)
        return wrapped

    def check_points():
        if shared:
            points = [args[1] for args in calls["lagrangian_gradients"]
                      + calls.get("lagrangian", [])]
            points += [args[0] for args in calls["constraint_matrix"] + calls["constraint_offset"]]
            assert all(point is points[0] for point in points)

    system = replace(system, **{name: counting(name, getattr(system, name))
                                for name in ("lagrangian_gradients", "lagrangian",
                                             "constraint_matrix", "constraint_offset")})
    window, carry = initialize_window(system, spec.rule, spec.q0, spec.v0)
    terms = contact_window_terms(system, spec.rule, window, carry)
    x = np.concatenate([2.0 * window.q_curr - spec.q0, [window.z_curr],
                        np.zeros(system.dim_c)])
    calls.clear()
    keep = []
    contact_residual(system, spec.rule, window, terms, x, keep)
    assert {name: len(args) for name, args in calls.items()} == counts
    check_points()

    forward, probes = terms[3], []

    def evaluate(*args, **kwargs):
        calls.clear()
        parts = forward(*args, **kwargs)
        assert parts[4] is None and parts[7] is None  # neither D2 nor L_d
        probes.append({name: len(args) for name, args in calls.items()})
        check_points()
        return parts

    terms = terms[:3] + (evaluate,)
    step_jacobian(lambda u, probe: contact_residual(system, spec.rule, window, terms, u, None,
                                                    probe),
                  x, terms[2], window.q_curr, spec.rule, keep[:2])
    probe_counts = {name: k for name, k in counts.items() if name != "lagrangian"}
    columns = system.dim_q + (spec.rule.z_rule is ZRule.SECOND_ORDER)
    assert probes == [probe_counts] * columns


def linear_start(window, lam, carry, h):
    """The driver's linear start of a step from the two-point ``window``, on
    Python floats: ``2 q_j - q_{j-1}``, then ``z_j + h L_d`` of the carried
    backward step, then the multipliers ``lam``."""
    q = [2.0 * c - p for p, c in zip(window.q_prev.tolist(), window.q_curr.tolist())]
    return q + [window.z_curr + h * carry.ld] + lam.tolist()


def contact_step(system, rule, window, lam, carry, solver, starts=None):
    """One contact step from the two-point ``window``, Newton starting from
    ``starts``, by default the linear start alone, the residual looked up
    when called, so a counting wrapper set on
    ``nhcontact.contact.contact_residual`` sees it."""
    if starts is None:
        starts = (linear_start(window, lam, carry, rule.h),)
    return solve_step(system, rule, state(window), nhcontact.contact.contact_residual, True,
                      carry, solver, starts)


def first_window(system, rule, q0, v0):
    """:func:`initialize_window`'s window, as the two-point :class:`Window`
    from ``q0``, and its carry."""
    window, carry = initialize_window(system, rule, q0, v0)
    q0 = np.asarray(q0, dtype=float)
    return Window(q0, window.q_curr, 0.0, window.z_curr, window.t_curr), carry


def count_calls(monkeypatch, calls):
    """Count into ``calls`` the step residuals and the partials evaluations:
    each evaluation of a ``step_evaluator`` that returns partials, the
    residual's and the seed step's real ones and the probes of the implicit
    steps' Jacobians; complex Jacobian probes of the seed step ask for none."""
    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    def evaluator(*args):
        forward = step_evaluator(*args)

        def evaluate(*args, **kwargs):
            parts = forward(*args, **kwargs)
            calls["partials"] += parts[5] is not None
            return parts

        return evaluate

    monkeypatch.setattr(nhcontact.contact, "step_evaluator", evaluator)
    monkeypatch.setattr(nhcontact.contact, "contact_residual",
                        counting("residual", contact_residual))


@pytest.mark.parametrize("case", KERNEL_CASES, ids=["pendulum-trap-first", "disk-mid-second"])
def test_contact_step_computes_window_partials_once(case, monkeypatch):
    # the first window's backward partials come from the seed step's carry,
    # so the step evaluates partials once per residual and no more
    system, rule, q = case()
    calls = {"partials": 0, "residual": 0}
    window, carry = first_window(system, rule, q, np.zeros(system.dim_q))
    count_calls(monkeypatch, calls)
    _, _, _, _, iterations = contact_step(system, rule, window, np.zeros(system.dim_c),
                                          carry, NewtonConfig())
    assert iterations >= 1
    assert calls["partials"] == calls["residual"]


def _walk(system, rule, step, window, carry, steps, solver=NewtonConfig()):
    """``steps`` steps from the first ``window`` and its ``carry`` as the
    driver takes them, from no multipliers, each window's ``t_curr`` on the
    grid: yields each step's window, the carry it was handed and the step's
    result."""
    lam = np.zeros(system.dim_c)
    for j in range(1, steps + 1):
        result = step(system, rule, window, lam, carry, solver)
        yield window, carry, result
        q_next, z_next, lam, carry, _ = result
        window = Window(window.q_curr, q_next, window.z_curr, z_next, (j + 1) * rule.h)


@pytest.mark.parametrize("j", [2], ids=["exact-t"])
@pytest.mark.parametrize("case", KERNEL_CASES, ids=["pendulum-trap-first", "disk-mid-second"])
def test_carry_replaces_window_partials(case, j, monkeypatch):
    # step j's backward partials are step j - 1's forward ones, taken from
    # its carry; the driver keeps the window's t_curr at exactly j h
    system, rule, q = case()
    window, carry = first_window(system, rule, q, np.zeros(system.dim_q))
    *_, (_, _, before), (window, _, plain) = _walk(system, rule, contact_step, window, carry, j)
    assert window.t_curr == j * rule.h
    calls = {"partials": 0, "residual": 0}
    count_calls(monkeypatch, calls)
    result = contact_step(system, rule, window, before[2], before[3], NewtonConfig())
    assert calls["residual"] >= 1
    assert calls["partials"] == calls["residual"]
    assert np.array_equal(result[0], plain[0]) and result[1] == plain[1]
    assert np.array_equal(result[2], plain[2]) and result[4] == plain[4]


@pytest.mark.parametrize("z_rule", list(ZRule), ids=lambda r: r.value)
@pytest.mark.parametrize("position", list(PositionRule), ids=lambda r: r.value)
def test_window_terms_from_carry_equal_recomputed(position, z_rule):
    # every window, the first one included, against its backward step
    # recomputed from the previous window's t_curr (the seed step's t = 0 for
    # the first); the forced disk's time-dependent forcing makes a wrong t show
    spec = get_experiment("disk-3.2")
    system = build_contact_system(spec)
    rule = DiscretizationRule(position, z_rule, spec.h)
    window, carry = first_window(system, rule, spec.q0, spec.v0)
    t_prev, used = 0.0, 0
    for window, carry, _ in _walk(system, rule, contact_step, window, carry, 8):
        used += 1
        backward = (system, rule, t_prev, window.q_prev, window.q_curr, window.z_prev,
                    window.z_curr)
        _, d2b, _, d4b = partials_of_Ld(*backward)
        recomputed = StepCarry(None, d2b, d4b, evaluate_discrete_lagrangian(*backward),
                               discrete_constraint(system, rule, window.q_prev, window.q_curr))
        for field in ("d2", "d4", "ld", "constraint"):
            assert _same_bytes(getattr(carry, field), getattr(recomputed, field)), field
        carried, expected = (contact_window_terms(system, rule, state(window), c)
                             for c in (carry, recomputed))
        assert all(_same_bytes(a, b) for a, b in zip(carried[:3], expected[:3]))
        # the forward evaluators are the window's, whatever the carry
        q_next = 2.0 * window.q_curr - window.q_prev
        for a, b in zip(carried[3](q_next, window.z_curr, True),
                        expected[3](q_next, window.z_curr, True)):
            assert _same_bytes(a, b)
        t_prev = window.t_curr
    assert used == 8


@pytest.mark.parametrize("z_rule", list(ZRule), ids=lambda r: r.value)
@pytest.mark.parametrize("position", list(PositionRule), ids=lambda r: r.value)
@pytest.mark.parametrize("case", ["foucault", "disk-3.2", "oscillator", "foucault-la"])
def test_seed_carry_equals_backward_step_of_first_window(case, position, z_rule):
    # the seed step's evaluator starts where the first window's backward step
    # does, at t_curr - h = 0 from (q0, z = 0), and ends at (q1, z1): its
    # carry is that step's partials, L_d and constraint rows, bit for bit
    if case == "oscillator":
        system, q0, v0, h = damped_oscillator(), np.array([1.0]), np.array([0.0]), 0.1
    else:
        spec = get_experiment("disk-3.2" if case == "disk-3.2" else "foucault-1")
        build = build_la_system if case == "foucault-la" else build_contact_system
        system, q0, v0, h = build(spec), spec.q0, spec.v0, spec.h
    with_z = case != "foucault-la"
    rule = DiscretizationRule(position, z_rule, h)
    window, carry = initialize_window(system, rule, q0, v0, with_z)
    assert window.t_curr - rule.h == 0.0
    q0 = np.asarray(q0, dtype=float)
    backward = (system, rule, 0.0, q0, window.q_curr, 0.0, window.z_curr)
    _, d2, _, d4 = partials_of_Ld(*backward)
    assert carry.factors is None
    assert _same_bytes(carry.d2, d2) and _same_bytes(carry.d4, d4)
    if with_z:
        assert _same_bytes(carry.ld, evaluate_discrete_lagrangian(*backward))
    else:
        assert carry.ld is None and window.z_curr == 0.0
    assert _same_bytes(carry.constraint, discrete_constraint(system, rule, q0, window.q_curr))


@pytest.mark.parametrize("case", ["foucault", "disk-3.2", "foucault-la"])
def test_seed_falls_back_on_linear_start(case, monkeypatch):
    # when Newton fails from the Taylor point, the seed step is solved again
    # from 2 q0 - q0, then zero z and mu, without factors both times: exactly
    # the seed step solved from that start alone.  A -0.0 entry of q0 shows
    # 2 q0 - q0 apart from q0: it starts from +0.0
    spec = get_experiment("disk-3.2" if case == "disk-3.2" else "foucault-1")
    build = build_la_system if case == "foucault-la" else build_contact_system
    system, rule, with_z = build(spec), spec.rule, case != "foucault-la"
    q0 = spec.q0.copy()
    q0[0] = -0.0
    newton_calls, step_calls = [], []

    def failing_once(residual, x0, config, jacobian=None, build_jacobian=None):
        newton_calls.append((np.array(x0, dtype=float), jacobian))
        if len(newton_calls) == 1:
            raise SolverFailure("no convergence from the Taylor point")
        return nhcontact.newton.newton_solve(residual, x0, config, jacobian, build_jacobian)

    def recording(*args):
        step_calls.append(args)
        return solve_step(*args)

    monkeypatch.setattr(nhcontact.contact, "newton_solve", failing_once)
    monkeypatch.setattr(nhcontact.contact, "solve_step", recording)
    window, carry = initialize_window(system, rule, q0, spec.v0, with_z)
    monkeypatch.undo()
    assert len(newton_calls) == 2 and len(step_calls) == 1
    assert all(jacobian is None for _, jacobian in newton_calls)
    linear = np.concatenate([2.0 * q0 - q0, np.zeros(int(with_z) + system.dim_c)])
    assert _same_bytes(newton_calls[1][0], linear)
    assert np.signbit(q0[0]) and not np.signbit(newton_calls[1][0][0])
    *args, starts = step_calls[0]
    assert _same_bytes(starts[-1], linear.tolist())
    q1, z1, _, alone, _ = solve_step(*args, (starts[-1],))
    assert _same_bytes(window.q_curr, q1) and _same_bytes(window.z_curr, z1)
    assert window.t_curr == rule.h and carry.factors is None
    assert _same_bytes(carry.d2, alone.d2) and _same_bytes(carry.d4, alone.d4)
    assert _same_bytes(carry.constraint, alone.constraint)
    if with_z:
        assert _same_bytes(carry.ld, alone.ld)
    else:
        assert carry.ld is alone.ld is None


@pytest.mark.parametrize("integrator, most", [
    # 4.42 and 3.33 when every window computes its backward partials
    (Integrator.CONTACT, 3.45),
    (Integrator.LAGRANGE_DALEMBERT, 2.35),
], ids=["contact", "la"])
def test_carry_cuts_partials_per_step(integrator, most, monkeypatch):
    calls = {"partials": 0, "residual": 0}
    count_calls(monkeypatch, calls)
    stats = StepStats()
    traj = run_experiment(get_experiment("foucault-1", t_final=200.0, integrator=integrator),
                          stats=stats)
    assert traj.termination.completed and stats.steps == 3999
    assert calls["partials"] / stats.steps <= most


def test_oscillator_against_analytic_solution():
    alpha, omega = 0.1, 1.0
    system = damped_oscillator(alpha, omega)
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.01)
    traj = run_contact(system, rule, np.array([1.0]), np.array([0.0]), 1000,
                       NewtonConfig(tolerance=1e-12))
    exact = damped_oscillator_solution(alpha, omega, traj.times)
    assert np.max(np.abs(traj.configurations[:, 0] - exact)) < 5e-5


@settings(max_examples=36, derandomize=True, deadline=None, database=None)
@given(alpha=st.floats(0.05, 0.2), omega=st.floats(0.5, 2.0), h_omega=st.floats(0.05, 0.2),
       position=st.sampled_from(PositionRule), z_rule=st.sampled_from(ZRule))
def test_dissipation_law(alpha, omega, h_omega, position, z_rule):
    # q'' + alpha q' + omega^2 q = 0 conserves
    # Q = e^{alpha t} (q'^2/2 + omega^2 q^2/2 + alpha q q'/2).  A contact step
    # contracts the symplectic form by c = (1 + h D3)/(1 - h D4), 1 - h alpha
    # under the first-order z rule, against the exact e^{-alpha h}, so log Q
    # drifts by log(c e^{alpha h}), about -(alpha h)^2/2, per step: alpha^2 h T/2
    # over T.  Its fitted slope is within 2.7% of that over 240 draws of these
    # ranges; the bound is 10%.  Second-order z rules drift by O(h^2): the
    # largest max|Q_j/Q_0 - 1| over 100 draws was 0.51 (h omega)^2 (midpoint)
    # and 0.76 (h omega)^2 (trapezoidal), bounded here by 1.5 (h omega)^2, and
    # 0.039 for the left endpoint, first order in q, bounded by 0.06.  The
    # first-order z rules reach 15 (h omega)^2, so neither bound passes them
    h = h_omega / omega
    rule = DiscretizationRule(position, z_rule, h)
    n = int(round(60.0 / h))
    traj = run_contact(damped_oscillator(alpha, omega), rule, np.array([1.0]), np.array([0.0]),
                       n, NewtonConfig(tolerance=1e-12))
    assert traj.termination.completed
    q, v = traj.configurations[:, 0], traj.velocities[:, 0]
    conserved = np.exp(alpha * traj.times) * (0.5 * v * v + 0.5 * omega ** 2 * q * q
                                              + 0.5 * alpha * q * v)
    if z_rule is ZRule.FIRST_ORDER:
        slope = np.polyfit(np.arange(n + 1), np.log(conserved), 1)[0]
        assert abs(slope / (np.log(1.0 - h * alpha) + h * alpha) - 1.0) <= 0.1
    else:
        bound = 0.06 if position is PositionRule.LEFT_ENDPOINT else 1.5 * h_omega ** 2
        assert np.max(np.abs(conserved / conserved[0] - 1.0)) <= bound


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


@pytest.mark.parametrize("z_rule", list(ZRule), ids=lambda r: r.value)
@pytest.mark.parametrize("position", list(PositionRule), ids=lambda r: r.value)
@pytest.mark.parametrize("case", ["foucault", "disk-3.2", "disk-2.3", "oscillator",
                                  "foucault-la"])
def test_seed_step_solves_projection_and_z_update(case, position, z_rule):
    # the seed step's one Newton solve meets the discrete constraint and the
    # action update's fixed point, and moves q1 off the Taylor point only
    # along the constraint-force directions, the rows of A(q0)
    if case == "oscillator":
        system, q0, v0, h = damped_oscillator(), np.array([1.0]), np.array([0.0]), 0.1
    else:
        spec = get_experiment("foucault-1" if case.startswith("foucault") else case)
        build = build_la_system if case == "foucault-la" else build_contact_system
        system, q0, v0, h = build(spec), spec.q0, spec.v0, spec.h
    with_z = case != "foucault-la"
    rule = DiscretizationRule(position, z_rule, h)
    window, _ = initialize_window(system, rule, q0, v0, with_z)
    q1, z1 = window.q_curr, window.z_curr
    assert window.t_curr == h
    assert np.max(np.abs(discrete_constraint(system, rule, q0, q1)), initial=0.0) <= 1e-12
    if with_z:
        ld = evaluate_discrete_lagrangian(system, rule, 0.0, q0, q1, 0.0, z1)
        assert abs(z1 - h * ld) <= 1e-12
    else:
        assert z1 == 0.0
    v = project_velocity(system, q0, v0)
    target = q0 + h * v + 0.5 * h ** 2 * initial_acceleration(system, q0, v)[0]
    a_t = np.asarray(system.constraint_matrix(q0)).T
    shift = q1 - target
    if system.dim_c:
        shift = shift - a_t @ np.linalg.lstsq(a_t, shift, rcond=None)[0]
    assert np.max(np.abs(shift)) <= 1e-12


def test_project_velocity_affine():
    system = foucault_system(FoucaultParams())
    q = np.array([0.0, 0.67])
    v = project_velocity(system, q, np.zeros(2))
    a = system.constraint_matrix(q)
    b = system.constraint_offset(q)
    assert np.max(np.abs(a @ v + b)) < 1e-15


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
    window = Window(np.zeros(1), np.zeros(1), 0.0, 0.0, h)
    with pytest.raises(SolverFailure, match="z-coupling"):
        contact_window_terms(system, rule, state(window), window_carry(system, rule, window))


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
               NewtonConfig(tolerance=1e-14))
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


def _with_tilt(eid, theta):
    q0 = get_experiment(eid).q0.copy()
    q0[2] = theta
    return q0


def _with_speed(eid, speed):
    v0 = get_experiment(eid).v0.copy()
    v0[0] = speed
    return v0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("eid, overrides, integrator", [
    ("foucault-1", {"q0": np.array([1e160, 0.0])}, Integrator.CONTACT),
    ("foucault-1", {"q0": np.array([1e160, 0.0])}, Integrator.LAGRANGE_DALEMBERT),
    ("disk-2.3", {"q0": _with_tilt("disk-2.3", 1e308)}, Integrator.CONTACT),
    ("foucault-1", {"q0": np.array([np.nan, 0.0])}, Integrator.CONTACT),
    ("foucault-1", {"h": 1e200, "t_final": 1e200}, Integrator.CONTACT),
    ("foucault-1", {"h": 1e200, "t_final": 1e200}, Integrator.LAGRANGE_DALEMBERT),
    ("disk-2.3", {"v0": _with_speed("disk-2.3", 1e300)}, Integrator.CONTACT),
], ids=["foucault-1e160", "foucault-la-1e160", "disk-tilt-1e308", "foucault-nan",
        "foucault-h-1e200", "foucault-la-h-1e200", "disk-speed-1e300"])
def test_huge_or_non_finite_initial_state_ends_as_solver_failure(eid, overrides, integrator):
    # where numpy gives inf or NaN, Python's float power and math and cmath
    # raise OverflowError, math's sine of an infinity ValueError and LAPACK's
    # least squares on NaN LinAlgError; the seed must carry the inf or NaN on
    # to Newton's finiteness checks, or fail on the overflow, and the message
    # names the seed
    traj = run_experiment(get_experiment(eid, **{"t_final": 1.0, **overrides},
                                         integrator=integrator))
    assert (traj.termination.status, traj.termination.step) == ("solver_failure", 1)
    assert traj.termination.message.startswith("seed step: ")
    assert traj.n_steps == 0


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


@pytest.mark.parametrize("eid, t_final, most", [
    # the linear start alone needs 4.54 per step on this horizon
    ("foucault-1", 200.0, 3.6 * 3999),
    # the linear start's counts: the predictor may not raise them
    ("disk-2.2", None, 1617),
    ("disk-2.3", None, 2910),
    ("disk-4.2", None, 4273),
])
def test_predictor_cuts_residual_evaluations(eid, t_final, most, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return contact_residual(*args)

    monkeypatch.setattr(nhcontact.contact, "contact_residual", counting)
    overrides = {} if t_final is None else {"t_final": t_final}
    stats = StepStats()
    traj = run_experiment(get_experiment(eid, **overrides), stats=stats)
    assert traj.termination.completed
    assert len(calls) <= most, len(calls) / stats.steps


@pytest.mark.parametrize("eid, h, failure_step", [
    ("disk-4.3", 0.3, 4), ("disk-4.3", 0.375, 2), ("disk-4.3", 0.4, 3),
    ("disk-4.3", 0.45, 11), ("disk-4.3", 0.8, 1), ("disk-2.3", 2.0, 2),
    ("disk-4.3", 0.725, None),
])
def test_coarse_disk_runs_keep_linear_start_termination(eid, h, failure_step):
    # where the quadratic start fails, the step is solved again from the
    # linear start, so each run ends where it does from the linear start alone
    term = run_experiment(get_experiment(eid, h=h)).termination
    if failure_step is None:
        assert term.completed, term
    else:
        assert (term.status, term.step) == ("solver_failure", failure_step)


def test_upright_rolling_disk_stays_upright():
    # family 1 rolls upright and straight: its exact solution keeps Y, theta
    # and phi at 0, so only round-off feeds the upright disk's unstable mode.
    # A contact start accepted without a correction lets them grow to about
    # 1e-9; finite-difference noise in the consistent initial rates, to 0.3
    # (BDF2 on disk-1.2)
    for eid in ("disk-1.1", "disk-1.2"):
        for integrator in (Integrator.CONTACT, Integrator.IMPLICIT_DAE_REFERENCE):
            q = run_experiment(get_experiment(eid, integrator=integrator)).configurations
            assert np.max(np.abs(q[:, 1:4])) <= 1e-20, (eid, integrator)


@pytest.mark.parametrize("shift", [1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9])
def test_long_disk_run_completes_from_shifted_tilts(shift):
    # disk-2.3 is unresolved near t = 58 s (tilt 1.538 rad, heading rate
    # about 50 rad/s, 5 rad per step); the extrapolated starts must leave the
    # run completing from nearby initial tilts too, not only from its own
    spec = get_experiment("disk-2.3", t_final=60.0)
    q0 = spec.q0.copy()
    q0[2] += shift
    term = run_experiment(get_experiment("disk-2.3", t_final=60.0, q0=q0)).termination
    assert term.completed, term


def test_quadratic_start_falls_back_on_linear_start():
    # a quadratic start whose Newton fails is solved again from the linear
    # one with the factors the step began with: the solve without ``start``
    system, rule, q = pendulum_case()
    window, carry = first_window(system, rule, q, np.zeros(system.dim_q))
    lam = np.zeros(system.dim_c)
    # a NaN start makes Newton raise at its first residual
    start = [np.nan] * (system.dim_q + 1 + system.dim_c)
    plain = contact_step(system, rule, window, lam, carry, NewtonConfig())
    retried = contact_step(system, rule, window, lam, carry, NewtonConfig(),
                           (start, linear_start(window, lam, carry, rule.h)))
    q, z, multipliers, carry, iterations = retried
    assert np.array_equal(q, plain[0]) and z == plain[1]
    assert np.array_equal(multipliers, plain[2]) and iterations == plain[4] >= 1
    assert np.array_equal(carry.factors.inverse, plain[3].factors.inverse)


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
    """(residual, system, window, terms, guess) of one step of ``case``."""
    if case == "oscillator":
        system, q0, v0 = damped_oscillator(), np.array([1.0]), np.array([0.0])
    else:
        eid = {"disk": "disk-2.3", "forced-disk": "disk-3.2"}.get(case, "foucault-1")
        spec = get_experiment(eid)
        build = build_la_system if case == "foucault-la" else build_contact_system
        system, q0, v0 = build(spec), spec.q0, spec.v0
    if case == "foucault-la":
        window, carry = initialize_window(system, rule, q0, v0, with_z=False)
        residual, z = la_residual, []
    else:
        window, carry = initialize_window(system, rule, q0, v0)
        residual, z = contact_residual, [window.z_curr + 0.1]
    terms = contact_window_terms(system, rule, window, carry)
    guess = np.concatenate([2.0 * window.q_curr - q0, z, np.ones(system.dim_c)])
    return residual, system, window, terms, guess


@pytest.mark.parametrize("z_rule", list(ZRule), ids=lambda r: r.value)
@pytest.mark.parametrize("position", list(PositionRule), ids=lambda r: r.value)
@pytest.mark.parametrize("case", ["oscillator", "foucault", "foucault-la", "disk"])
def test_step_jacobian_matches_central_difference(case, position, z_rule):
    # multiplier columns in closed form, complex steps for the rest
    rule = DiscretizationRule(position, z_rule, 0.05 if case.startswith("foucault") else 0.1)
    residual, system, window, terms, guess = _jacobian_case(case, rule)
    x = guess + 1e-3 * np.random.default_rng(0).standard_normal(len(guess))

    def f(u):
        return residual(system, rule, window, terms, u)

    exact = exact_jacobian(residual, system, rule, window, terms, x)
    fd = central_difference(f, x)
    assert exact.dtype == float
    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))
    n, m = system.dim_q, system.dim_c
    # the multiplier columns are -A(q_j)^T, exactly
    a_t = np.asarray(system.constraint_matrix(window.q_curr)).T
    assert np.array_equal(exact[:, len(x) - m:],
                          np.vstack([-a_t, np.zeros((len(x) - n, m))]))
    if case != "foucault-la" and z_rule is ZRule.FIRST_ORDER:
        # only the action row sees z_{j+1}, with coefficient one: the closed
        # form column is the complex step's, zero signs included
        probed = complex_step(f, x, np.eye(len(x))[n])
        assert np.array_equal(exact[:, n], np.eye(len(x))[n])
        assert exact[:, n].tobytes() == probed.tobytes()


@pytest.mark.parametrize("z_rule", list(ZRule), ids=lambda r: r.value)
@pytest.mark.parametrize("position", list(PositionRule), ids=lambda r: r.value)
@pytest.mark.parametrize("case", ["oscillator", "foucault", "disk", "forced-disk"])
def test_action_row_matches_complex_step(case, position, z_rule):
    # the closed-form action row -h D2 L_d, 1 - h D4 L_d, 0 against the
    # complex steps of the full residual, L_d included
    rule = DiscretizationRule(position, z_rule, 0.05 if case == "foucault" else 0.1)
    residual, system, window, terms, guess = _jacobian_case(case, rule)
    x = guess + 1e-3 * np.random.default_rng(1).standard_normal(len(guess))
    n = system.dim_q
    exact = exact_jacobian(residual, system, rule, window, terms, x)
    probed = np.array([complex_step(lambda u: residual(system, rule, window, terms, u), x, e)[n]
                       for e in np.eye(len(x))])
    assert np.max(np.abs(exact[n] - probed)) <= 1e-13 * np.max(np.abs(probed))
    assert np.all(exact[n, n + 1:] == 0.0)


def test_jacobian_action_row_comes_from_its_own_point(monkeypatch):
    # Newton builds each Jacobian at an iterate it evaluated, after a
    # dropped chord iterate at the chord's start: the action row must come
    # from that point's own real evaluation, not from the last one
    evaluated, last = {}, []

    def recording(system, rule, window, terms, unknowns, keep=None, probe=None):
        values = contact_residual(system, rule, window, terms, unknowns, keep, probe)
        if keep is not None:
            evaluated[unknowns.tobytes()] = tuple(keep[:2])
            last[:] = [unknowns.tobytes()]
        return values

    builds = []

    def checking(residual, x, a_t, q, rule, action=None):
        # the builds before the first contact_residual evaluation are the
        # seed step's, whose residual is its own
        if last:
            builds.append(x.tobytes() != last[0])
            assert action == evaluated[x.tobytes()]
        return step_jacobian(residual, x, a_t, q, rule, action)

    monkeypatch.setattr(nhcontact.contact, "contact_residual", recording)
    monkeypatch.setattr(nhcontact.contact, "step_jacobian", checking)
    assert run_experiment(get_experiment("disk-2.3", t_final=5.0)).termination.completed
    assert sum(builds) >= 1 and len(builds) > sum(builds)


def test_catalog_newton_iterations_keep_margin_below_cap(catalog_runs):
    # every resolved catalog step needs at most 7 iterations, 3 below the cap
    # that makes steps too coarse to resolve fail
    assert nhcontact.newton.MAX_ITERATIONS == 10
    worst = {eid: run["stats"].max_iterations for eid, run in catalog_runs.items()}
    assert max(worst.values()) <= 7, worst


@pytest.mark.parametrize("position, z_rule, reversible", [
    (PositionRule.MIDPOINT, ZRule.SECOND_ORDER, True),
    # the controls: 18.6 (left-first) and 5.8 (trap-first) from q_0
    (PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, False),
    (PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, False),
], ids=["mid-second", "left-first", "trap-first"])
def test_midpoint_rule_is_reversible(position, z_rule, reversible):
    # disk-2.1 is conservative (alpha = 0, no forcing, so z never feeds back)
    # and autonomous: stepping back from the reversed window (q_N, q_{N-1})
    # retraces the midpoint trajectory to q_0, 9.1e-12 away
    spec = get_experiment("disk-2.1")
    system = build_contact_system(spec)
    rule = DiscretizationRule(position, z_rule, spec.h)
    solver = NewtonConfig(tolerance=1e-10)
    traj = run_contact(system, rule, spec.q0, spec.v0, 20, solver)
    assert traj.termination.completed
    qs, zs = traj.configurations, traj.z_values
    window = Window(qs[20], qs[19], zs[20], zs[19], traj.times[20])
    *_, (_, _, (q_back, *_)) = _walk(system, rule, contact_step, window,
                                     window_carry(system, rule, window), 19, solver)
    assert bool(np.max(np.abs(q_back - qs[0])) <= 1e-8) is reversible


@pytest.mark.parametrize("position, z_rule, orders", [
    (PositionRule.MIDPOINT, ZRule.SECOND_ORDER, (1.8, 2.2)),
    (PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, (0.7, 1.3)),
], ids=["mid-second", "left-first"])
def test_constrained_disk_order(position, z_rule, orders):
    # self-convergence of the endpoint over T = 2 s against the same rule at
    # h/8 of the finest step; measured 2.01 (mid-second) and 1.08 (left-first)
    from nhcontact.analysis import convergence_order

    solver = NewtonConfig(tolerance=1e-9)

    def endpoint(h):
        spec = get_experiment("disk-3.3", t_final=2.0, h=h,
                              rule=DiscretizationRule(position, z_rule, h))
        traj = run_experiment(spec, solver)
        assert traj.termination.completed and traj.times[-1] == pytest.approx(2.0)
        return traj.configurations[-1]

    steps = [0.1, 0.05, 0.025, 0.0125]
    reference = endpoint(steps[-1] / 8)
    errors = [(h, float(np.max(np.abs(endpoint(h) - reference)))) for h in steps]
    low, high = orders
    assert low <= convergence_order(errors) <= high, errors


def _anharmonic_system(alpha):
    """``L = |v|^2/2 - V(q) - alpha z``, ``V = |q|^2/2 + 0.3 q_0^2 q_1 +
    0.1 q_1^4``: unconstrained, nonlinear, with constant ``dL/dz``."""
    def lagrangian(t, q, v, z):
        return 0.5 * (v @ v) - (0.5 * (q @ q) + 0.3 * q[0] ** 2 * q[1] + 0.1 * q[1] ** 4) \
            - alpha * z

    def gradients(t, q, v, z):
        gq = -np.array([q[0] + 0.6 * q[0] * q[1], q[1] + 0.3 * q[0] ** 2 + 0.4 * q[1] ** 3])
        return gq, v.copy(), -alpha

    return ContactSystem(dim_q=2, dim_c=0, lagrangian=lagrangian,
                         constraint_matrix=lambda q: np.zeros((0, 2)),
                         lagrangian_gradients=gradients)


@pytest.mark.parametrize("z_rule", list(ZRule), ids=lambda r: r.value)
@pytest.mark.parametrize("position", list(PositionRule), ids=lambda r: r.value)
def test_step_map_is_conformally_symplectic(position, z_rule):
    # with a constant dL/dz the step map F: (q_{j-1}, q_j) -> (q_j, q_{j+1})
    # scales the discrete symplectic form by c = (1 + h D3 L_d)/(1 - h D4 L_d):
    # J^T W(F x) J = c W(x), W built from the mixed Hessian of L_d
    # (Vermeeren, Bravetti & Seri 2019).  J is exact to round-off: implicit
    # differentiation of the step residual, by complex steps.  Under the
    # midpoint rule the mixed Hessian varies, so W(F x) != W(x).
    system, n, t = _anharmonic_system(alpha=0.5), 2, 1.0
    rule = DiscretizationRule(position, z_rule, 0.1)
    z_prev, z_curr = 0.1, 0.2
    q_prev, q_curr = np.array([0.4, -0.3]), np.array([0.45, -0.25])
    window = Window(q_prev, q_curr, z_prev, z_curr, t)
    q_next, z_next, *_ = contact_step(system, rule, window, np.zeros(0),
                                      window_carry(system, rule, window),
                                      NewtonConfig(tolerance=1e-13))

    def residual(y, unknowns):
        w = Window(y[:n], y[n:], z_prev, z_curr, t)
        terms = contact_window_terms(system, rule, state(w), window_carry(system, rule, w))
        return contact_residual(system, rule, state(w), terms, unknowns)

    y, x = np.concatenate([q_prev, q_curr]), np.concatenate([q_next, [z_next]])
    d_x = exact_jacobian(contact_residual, system, rule, state(window),
                         contact_window_terms(system, rule, state(window),
                                              window_carry(system, rule, window)), x)
    d_y = np.stack([complex_step(lambda yy: residual(yy, x), y, e) for e in np.eye(2 * n)],
                   axis=1)
    jac = np.block([[np.zeros((n, n)), np.eye(n)], [-np.linalg.solve(d_x, d_y)[:n]]])

    def form(q0, q1):
        # mixed[i, j] = d(D2 L_d)_i / d(q0)_j
        mixed = np.stack([complex_step(
            lambda qa: np.asarray(partials_of_Ld(system, rule, t, qa, q1, z_prev, z_curr)[1]),
            q0, e) for e in np.eye(n)], axis=1)
        return np.block([[np.zeros((n, n)), mixed.T], [-mixed, np.zeros((n, n))]])

    _, _, d3, d4 = partials_of_Ld(system, rule, t, q_curr, q_next, z_curr, z_next)
    c = (1.0 + rule.h * d3) / (1.0 - rule.h * d4)
    expected = c * form(q_prev, q_curr)
    assert c != 1.0
    assert np.max(np.abs(jac.T @ form(q_curr, q_next) @ jac - expected)) \
        <= 1e-12 * np.max(np.abs(expected))
