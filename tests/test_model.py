import importlib
import inspect
from dataclasses import replace

import numpy as np
import numpy_oracle
import pytest

from nhcontact.contact import run_contact
from nhcontact.experiments import _disk_params, build_contact_system, get_experiment
from nhcontact.model import (
    COMPLEX_STEP,
    ContactSystem,
    DiscretizationRule,
    EvaluationError,
    PositionRule,
    SolverFailure,
    ZRule,
    central_difference,
    complex_step,
    discrete_constraint,
    divide,
    evaluate_discrete_lagrangian,
    initial_acceleration,
    partials_of_Ld,
    project_velocity,
)
from nhcontact.systems import (
    FoucaultParams,
    damped_oscillator,
    foucault_reference_multiplier,
    foucault_reference_ode,
    foucault_system,
)

ALL_RULES = [
    DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.1),
    DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1),
    DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, 0.1),
]


def free_particle(m=2.0):
    return ContactSystem(
        dim_q=1,
        dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * m * v @ v,
        constraint_matrix=lambda q: np.zeros((0, 1)),
    )


def oscillator(alpha=0.1, omega=1.0, with_gradients=True):
    grads = None
    if with_gradients:
        grads = lambda t, q, v, z: (-omega ** 2 * q, v.copy(), -alpha)
    return ContactSystem(
        dim_q=1,
        dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v - 0.5 * omega ** 2 * q @ q - alpha * z,
        constraint_matrix=lambda q: np.zeros((0, 1)),
        lagrangian_gradients=grads,
    )


def test_central_difference_columns_and_layout():
    def f(x):
        return np.array([x[0] ** 3, x[0] * x[1], np.sin(x[1])])

    x = np.array([0.5, -3.0])
    probe = 1e-4
    jac = central_difference(f, x, probe)
    # C order: the dense solver's row dot products then sum in a fixed order
    assert jac.shape == (3, 2) and jac.flags.c_contiguous
    for i, e in enumerate(probe * np.maximum(1.0, np.abs(x))):
        step = np.zeros(2)
        step[i] = e
        assert np.array_equal(jac[:, i], (f(x + step) - f(x - step)) / (2 * e))
    assert central_difference(lambda x: x @ x, x).shape == (2,)


def test_complex_step_directional_derivative():
    def f(x):
        return np.array([x[0] ** 3, x[0] * x[1], np.sin(x[1])])

    x, direction = np.array([0.5, -3.0]), np.array([2.0, -1.0])
    expected = np.array([3 * 0.25 * 2.0, 2.0 * -3.0 - 0.5, -np.cos(-3.0)])
    assert np.allclose(complex_step(f, x, direction), expected, rtol=1e-15, atol=0.0)


def test_free_particle_discrete_lagrangian_any_rule():
    system = free_particle(m=2.0)
    for pos in PositionRule:
        for zr in ZRule:
            rule = DiscretizationRule(pos, zr, h=1.0)
            val = evaluate_discrete_lagrangian(
                system, rule, 0.0, np.array([0.0]), np.array([3.0]), 0.0, 0.0
            )
            assert val == pytest.approx(0.5 * 2.0 * 3.0 ** 2)


def test_step_size_must_be_positive():
    with pytest.raises(ValueError):
        DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.0)


def test_z_rule_routing():
    # L = z so L_d isolates the discretized z argument
    system = ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: z,
        constraint_matrix=lambda q: np.zeros((0, 1)),
    )
    q = np.array([0.0])
    first = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.1)
    second = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.SECOND_ORDER, 0.1)
    assert evaluate_discrete_lagrangian(system, first, 0.0, q, q, 1.0, 3.0) == 1.0
    assert evaluate_discrete_lagrangian(system, second, 0.0, q, q, 1.0, 3.0) == 2.0


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.position_rule.value)
def test_partials_analytic_match_finite_differences(rule):
    analytic = oscillator(with_gradients=True)
    numeric = oscillator(with_gradients=False)
    rng = np.random.default_rng(3)
    for _ in range(5):
        q, qn = rng.normal(size=1), rng.normal(size=1)
        z, zn = rng.normal(), rng.normal()
        got = partials_of_Ld(analytic, rule, 0.3, q, qn, z, zn)
        ref = partials_of_Ld(numeric, rule, 0.3, q, qn, z, zn)
        for a, b in zip(got, ref):
            assert np.allclose(a, b, rtol=1e-4, atol=1e-4)


def test_first_order_rule_has_zero_d4():
    system = oscillator()
    rule = DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, 0.05)
    _, _, d3, d4 = partials_of_Ld(system, rule, 0.0, np.array([1.0]),
                                  np.array([1.1]), 0.5, 0.7)
    assert d4 == 0.0
    assert d3 == pytest.approx(-0.1)


RULES = [(position, z_rule) for position in PositionRule for z_rule in ZRule]


def _kernel_case(name):
    """``(system, oracle system, q, h)``: the built-in systems against their
    numpy callables, the oscillators against themselves."""
    if name.startswith("foucault"):
        params = FoucaultParams(alpha=1e-3)
        formulation = "la" if name == "foucault-la" else "herglotz"
        return (foucault_system(params, formulation),
                numpy_oracle.foucault_system(params, formulation), np.array([0.1, 0.6]), 0.05)
    if name.endswith("disk"):
        # family 3 ramps its forcing with t, so a wrong sample time shows
        spec = get_experiment("disk-3.2" if name == "forced-disk" else "disk-2.3")
        return (build_contact_system(spec), numpy_oracle.disk_system(_disk_params(spec)),
                spec.q0 + np.array([0.0, 0.0, 0.1, 0.2, 0.3]), spec.h)
    system = damped_oscillator()
    if name == "fd-oscillator":
        system = replace(system, lagrangian_gradients=None)
    return system, system, np.array([0.7]), 0.1


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


FORM_CASES = [(name, position, z_rule)
              for name in ("foucault", "foucault-la", "disk", "forced-disk", "oscillator",
                           "fd-oscillator")
              for position, z_rule in RULES]


@pytest.mark.parametrize(
    "name, position, z_rule", FORM_CASES,
    ids=[f"{name}-{position.value}-{z_rule.value}" for name, position, z_rule in FORM_CASES])
def test_discrete_lagrangian_forms_bit_identical_to_oracle(name, position, z_rule):
    # evaluate_discrete_lagrangian, partials_of_Ld and discrete_constraint,
    # each a form of the one step evaluator, against the oracle's numpy
    # copies, which write out each rule: on real points and, with analytic
    # gradients, on the complex-step probe of each of q, q', z and z'
    system, oracle, q, h = _kernel_case(name)
    rule = DiscretizationRule(position, z_rule, h)
    n = system.dim_q
    rng = np.random.default_rng(5)
    for _ in range(4):
        t = rng.uniform(0.1, 10.0)
        x = np.concatenate([q + 0.05 * rng.normal(size=n), q + 0.05 * rng.normal(size=n),
                            rng.normal(size=2)])
        probes = [] if system.lagrangian_gradients is None else \
            [x + 1j * COMPLEX_STEP * e for e in np.eye(len(x))]
        for point in [x] + probes:
            args = (t, point[:n], point[n:2 * n], point[2 * n].item(), point[2 * n + 1].item())
            assert _same_bytes(evaluate_discrete_lagrangian(system, rule, *args),
                               numpy_oracle.evaluate_discrete_lagrangian(oracle, rule, *args))
            for got, expected in zip(partials_of_Ld(system, rule, *args),
                                     numpy_oracle.partials_of_Ld(oracle, rule, *args)):
                assert _same_bytes(got, expected)
            assert _same_bytes(discrete_constraint(system, rule, *args[1:3]),
                               numpy_oracle.discrete_constraint(oracle, rule, *args[1:3]))


@pytest.mark.parametrize("position, z_rule", RULES,
                         ids=[f"{p.value}-{z.value}" for p, z in RULES])
def test_discrete_constraint_sample_point(position, z_rule):
    # A and b at the midpoint under the midpoint rule, else at the left
    # endpoint: the trapezoidal rule too, as the printed benchmark equations
    points = []

    def recording(value):
        def f(q):
            points.append(q.tolist())
            return value
        return f

    system = ContactSystem(
        dim_q=2, dim_c=1,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v,
        constraint_matrix=recording(np.array([[1.0, 0.0]])),
        constraint_offset=recording([0.0]),
    )
    rule = DiscretizationRule(position, z_rule, 0.1)
    q, qn = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    discrete_constraint(system, rule, q, qn)
    expected = [0.5, 1.0] if position is PositionRule.MIDPOINT else [0.0, 0.0]
    assert points == [expected, expected]
    assert numpy_oracle.constraint_evaluation_point(rule, q, qn).tolist() == expected


def test_discrete_constraint_affine_part():
    system = ContactSystem(
        dim_q=2, dim_c=1,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v,
        constraint_matrix=lambda q: np.array([[1.0, 0.0]]),
        constraint_offset=lambda q: np.array([q[1]]),
    )
    rule = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.5)
    q, qn = np.array([0.0, 2.0]), np.array([1.0, 2.0])
    # A v + b = (1-0)/0.5 + 2
    assert discrete_constraint(system, rule, q, qn) == pytest.approx([4.0])


def test_non_finite_lagrangian_raises():
    system = ContactSystem(
        dim_q=1, dim_c=0,
        lagrangian=lambda t, q, v, z: np.log(q[0]),
        constraint_matrix=lambda q: np.zeros((0, 1)),
    )
    rule = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.1)
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        with pytest.raises(EvaluationError):
            evaluate_discrete_lagrangian(system, rule, 0.0, np.array([-1.0]),
                                         np.array([-1.0]), 0.0, 0.0)


@pytest.mark.parametrize("with_gradients", [True, False])
def test_initial_acceleration_damped_oscillator(with_gradients):
    alpha, omega = 0.1, 1.3
    system = oscillator(alpha, omega, with_gradients)
    q0, v0 = np.array([0.7]), np.array([-0.2])
    acc = initial_acceleration(system, q0, v0)[0]
    # xdd = -omega^2 x - alpha xd (z(0) = 0, zdot = L)
    tol = 1e-8 if with_gradients else 1e-4
    assert acc[0] == pytest.approx(-omega ** 2 * 0.7 - alpha * (-0.2), rel=tol)


def test_initial_acceleration_respects_constraints():
    # particle on the line vy = 0
    system = ContactSystem(
        dim_q=2, dim_c=1,
        lagrangian=lambda t, q, v, z: 0.5 * v @ v - 9.81 * q[1],
        constraint_matrix=lambda q: np.array([[0.0, 1.0]]),
        lagrangian_gradients=lambda t, q, v, z: (np.array([0.0, -9.81]), v.copy(), 0.0),
    )
    acc = initial_acceleration(system, np.zeros(2), np.array([1.0, 0.0]))[0]
    assert acc == pytest.approx([0.0, 0.0], abs=1e-9)


def test_initial_acceleration_redundant_rows():
    # vy = 0 given twice, as the rows [0, 1] and [0, 2]: the saddle system is
    # singular, and its least-squares solution has the rates of the row
    # given once
    def particle(rows):
        return ContactSystem(
            dim_q=2, dim_c=len(rows),
            lagrangian=lambda t, q, v, z: 0.5 * v @ v - 9.81 * q[1] - 0.3 * z,
            constraint_matrix=lambda q: np.array(rows),
            lagrangian_gradients=lambda t, q, v, z: (np.array([0.0, -9.81]), v.copy(), -0.3),
        )

    q0, v0 = np.zeros(2), np.array([1.5, 0.0])
    acc, zdot, lam = initial_acceleration(particle([[0.0, 1.0]]), q0, v0)
    acc2, zdot2, lam2 = initial_acceleration(particle([[0.0, 1.0], [0.0, 2.0]]), q0, v0)
    assert acc == pytest.approx([-0.45, 0.0], abs=1e-14)
    assert np.max(np.abs(acc2 - acc)) <= 1e-14 and zdot2 == zdot
    # the constraint force is shared between the two rows
    assert lam2[0] + 2.0 * lam2[1] == pytest.approx(lam[0], rel=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_saddle_matrix_gives_nan_rates(bad):
    # a mass matrix or constraint row holding inf or NaN yields NaN rates,
    # never finite ones, and a run that starts from them ends as a failure
    # of its seed step
    def particle(mass, row):
        return ContactSystem(
            dim_q=2, dim_c=1,
            lagrangian=lambda t, q, v, z: 0.5 * mass * (v @ v) - 9.81 * q[1],
            constraint_matrix=lambda q: np.array([row]),
            lagrangian_gradients=lambda t, q, v, z: (np.array([0.0, -9.81]), mass * v, 0.0),
        )

    q0, v0 = np.zeros(2), np.array([1.0, 0.0])
    rule = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1)
    for system in (particle(bad, [0.0, 1.0]), particle(1.0, [bad, 1.0])):
        acc, _, lam = initial_acceleration(system, q0, v0)
        assert np.isnan(acc).all() and np.isnan(lam).all()
        term = run_contact(system, rule, q0, v0, 5).termination
        assert (term.status, term.step) == ("solver_failure", 1)
        assert term.message.startswith("seed step: ")


@pytest.mark.parametrize("q, v", [([0.5, 0.25], [1.0, 0.5]),
                                  ([-0.375, 0.75], [0.25, -0.5]),
                                  ([0.0, 0.0625], [0.0, 0.125])])
def test_constraint_drift_foucault_closed_form(q, v):
    # d/dt [-y xdot + x ydot + Omega sin(beta) (x^2 + y^2)] at fixed velocity
    # is 2 Omega sin(beta) (q . v); initial_acceleration solves A(q) a =
    # -drift, so the acceleration's constraint row reads the drift back.  The
    # velocity is radial, so -y xdot + x ydot vanishes along it and the drift
    # is all of the Earth's-rate term, which round-off cannot swamp.
    params = FoucaultParams()
    system = foucault_system(params)
    q, v = np.array(q), np.array(v)
    acc = initial_acceleration(system, q, v)[0]
    drift = -(system.constraint_matrix(q) @ acc)
    expected = 2.0 * params.Omega * np.sin(params.beta) * (q @ v)
    assert drift.shape == (1,)
    assert drift[0] == pytest.approx(expected, rel=1e-8)


def test_initial_acceleration_foucault_closed_form():
    # the acceleration and the multiplier of the pendulum's closed-form
    # right-hand side, on random constraint-consistent states; the drift
    # d/dt [A(q) v + b(q)] enters both
    params = FoucaultParams(alpha=1e-3)
    system = foucault_system(params)
    rhs = foucault_reference_ode(params)
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = rng.normal(size=2)
        v = project_velocity(system, q, rng.normal(size=2))
        acc, _, lam = initial_acceleration(system, q, v)
        expected = rhs(0.0, np.concatenate([q, v]))[2:]
        assert np.max(np.abs(acc - expected)) <= 1e-12 * np.max(np.abs(expected))
        multiplier = foucault_reference_multiplier(params, np.concatenate([q, v]))
        assert abs(lam[0] - multiplier) <= 1e-10 * abs(multiplier)


def test_numpy_division_rounding_is_what_divide_copies():
    # the step residuals divide on Python numbers with model.divide, which
    # copies numpy's rounding of an array divided by a real scalar; a numpy
    # that rounds otherwise would move trajectories without any other test
    # failing first
    message = ("numpy no longer rounds an array divided by a real scalar as "
               "nhcontact.model.divide, the step residuals' division, copies it")
    rng = np.random.default_rng(12)
    reals = rng.normal(size=2000) * 10.0 ** rng.uniform(-5.0, 5.0, size=2000)
    complexes = reals + 1j * rng.normal(size=2000)
    edges = np.array([complex(a, b) for a in (0.0, -0.0, 1.5, -1.5, np.inf)
                      for b in (0.0, -0.0, 2.5, -2.5, 1e-200, np.nan)])
    for d in (0.05, 0.1, 0.3, -0.7, 3.0):
        r = 1.0 / d
        with np.errstate(invalid="ignore"):
            quotients = [values / d for values in (reals, complexes, edges)]
        # a float array takes true division; a complex one the product of
        # each component with the reciprocal
        assert quotients[0].tolist() == [x / d for x in reals.tolist()], message
        assert np.array_equal(quotients[1].real, complexes.real * r), message
        assert np.array_equal(quotients[1].imag, complexes.imag * r), message
        for values, quotient in zip((reals, complexes, edges), quotients):
            # zero signs and non-finite parts included
            assert np.asarray(divide(values.tolist(), d)).tobytes() == quotient.tobytes(), \
                message


@pytest.mark.parametrize("module", ["model", "newton", "contact", "dalembert", "reference"])
def test_every_failure_class_of_the_integrators_is_a_solver_failure(module):
    # the runners catch SolverFailure, not a list of classes: a failure class
    # outside it would escape them
    classes = [cls for _, cls in inspect.getmembers(importlib.import_module(f"nhcontact.{module}"),
                                                    inspect.isclass)
               if cls.__module__ == f"nhcontact.{module}" and issubclass(cls, BaseException)]
    assert [cls for cls in classes if not issubclass(cls, SolverFailure)] == []
