import numpy as np
import pytest

from nhcontact.model import (
    SQRT_EPS,
    ContactSystem,
    DiscretizationRule,
    EvaluationError,
    PositionRule,
    ZRule,
    central_difference,
    complex_step,
    constraint_drift,
    constraint_evaluation_point,
    discrete_constraint,
    divide,
    evaluate_discrete_lagrangian,
    initial_acceleration,
    partials_of_Ld,
)
from nhcontact.systems import FoucaultParams, foucault_system

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


def test_constraint_evaluation_point():
    q, qn = np.array([0.0, 0.0]), np.array([1.0, 2.0])
    mid = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1)
    left = DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 0.1)
    trap = DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, 0.1)
    assert np.allclose(constraint_evaluation_point(mid, q, qn), [0.5, 1.0])
    assert np.allclose(constraint_evaluation_point(left, q, qn), q)
    assert np.allclose(constraint_evaluation_point(trap, q, qn), q)


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
    acc = initial_acceleration(system, q0, v0)
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
    acc = initial_acceleration(system, np.zeros(2), np.array([1.0, 0.0]))
    assert acc == pytest.approx([0.0, 0.0], abs=1e-9)


@pytest.mark.parametrize("q, v", [([0.5, 0.25], [1.0, 0.5]),
                                  ([-0.375, 0.75], [0.25, -0.5]),
                                  ([0.0, 0.0625], [0.0, 0.125])])
def test_constraint_drift_foucault_closed_form(q, v):
    # d/dt [-y xdot + x ydot + Omega sin(beta) (x^2 + y^2)] at fixed velocity
    # is 2 Omega sin(beta) (q . v).  The velocity is radial, so -y xdot + x ydot
    # vanishes at both probes q +- e v, which are exact for these dyadic
    # values: round-off of that term cannot swamp a drift of order Omega.
    params = FoucaultParams()
    q, v = np.array(q), np.array(v)
    drift = constraint_drift(foucault_system(params), q, v, SQRT_EPS)
    expected = 2.0 * params.Omega * np.sin(params.beta) * (q @ v)
    assert drift.shape == (1,)
    assert drift[0] == pytest.approx(expected, rel=1e-8)


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
