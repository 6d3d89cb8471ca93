"""Numpy implementations of the step kernel and of the built-in systems'
callables: the tests' oracles for the Python-number kernel.

``nhcontact`` computes the step residuals, the analytic discrete-Lagrangian
partials, the discrete constraint and the Foucault and disk callables on
Python numbers, rounding each elementwise operation as numpy's array and
scalar arithmetic does, and builds the exact step Jacobian's complex-step
columns from one complex matrix of all its probes, which the residual takes
in one call, and the imaginary parts of the list it returns for each probe,
its action row in closed form.  The functions here do the same work
on numpy arrays and scalars, a fresh probe vector per column; the tests
require the package's results to equal theirs bit for bit, zero signs
included, on real arguments and on the complex-step probes of the exact
step Jacobian.  :func:`difference_partials_of_Ld` checks the chain rule
itself: central differences of ``L_d``.  The products with a constraint matrix and the disk's
``F(t) . q`` are :func:`dot`, the package's left-to-right sum written on
numpy scalars: numpy's own dot rounds otherwise.  A :class:`Window` is the
two-point window ``(q_{j-1}, q_j)`` the oracles recompute the backward step
from; :func:`state` maps it to the package's one-point
:class:`~nhcontact.model.StepState`, and :func:`window_carry` gives it the
carry that the driver's windows are handed.

The reference solvers' oracles are their numpy versions: the pendulum's
reference ODE and multiplier on numpy scalars, which the package's Python
floats match bit for bit, and the RKF45 loop and the implicit DAE residual
with numpy's matrix products, which the package's left-to-right sums match
to round-off.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from nhcontact import model as package
from nhcontact.contact import StepCarry
from nhcontact.model import (
    COMPLEX_STEP,
    Array,
    ContactSystem,
    DiscretizationRule,
    EvaluationError,
    PositionRule,
    StepState,
    ZRule,
)
from nhcontact.reference import DenseTrajectory
from nhcontact.systems import DiskParams, FoucaultParams


# ---------------------------------------------------------------------------
# Step kernel
# ---------------------------------------------------------------------------

class Window(NamedTuple):
    """The two-point window ``(q_{j-1}, q_j)``, with ``z_{j-1}``, ``z_j``
    and ``t_j``, from which the oracles recompute a step's backward step."""

    q_prev: Array
    q_curr: Array
    z_prev: float
    z_curr: float
    t_curr: float


def state(window: Window) -> StepState:
    """The package's :class:`~nhcontact.model.StepState` of ``window``: the
    point ``(q_j, z_j, t_j)`` its step starts from."""
    return StepState(window.q_curr, window.z_curr, window.t_curr)


def dot(a, b):
    """``a . b`` on numpy scalars: the products added left to right,
    starting from the first one."""
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total = total + a[i] * b[i]
    return total


def matvec(a, v) -> Array:
    """``a @ v`` as a :func:`dot` per row of the 2-D ``a``."""
    return np.array([dot(row, v) for row in a])


def _z_discrete(rule: DiscretizationRule, z, z_next):
    if rule.z_rule is ZRule.FIRST_ORDER:
        return z
    return 0.5 * (z + z_next)


def evaluate_discrete_lagrangian(system, rule, t, q, q_next, z, z_next):
    """Discrete Lagrangian ``L_d(q, q', z, z')`` over one step starting at
    ``t``, each position rule written out."""
    h = rule.h
    v = (q_next - q) / h
    z_d = _z_discrete(rule, z, z_next)
    pos = rule.position_rule
    if pos is PositionRule.LEFT_ENDPOINT:
        val = system.lagrangian(t, q, v, z_d)
    elif pos is PositionRule.MIDPOINT:
        val = system.lagrangian(t + 0.5 * h, 0.5 * (q + q_next), v, z_d)
    else:  # TRAPEZOIDAL
        val = 0.5 * (
            system.lagrangian(t, q, v, z_d)
            + system.lagrangian(t + h, q_next, v, z_d)
        )
    if not np.isfinite(val.real):
        raise EvaluationError(f"non-finite discrete Lagrangian {val}")
    return val


def constraint_evaluation_point(rule: DiscretizationRule, q, q_next):
    """Configuration at which the discrete constraint samples ``A`` and
    ``b``: the midpoint under the midpoint rule, else the left endpoint (the
    trapezoidal rule included, matching the printed benchmark equations)."""
    if rule.position_rule is PositionRule.MIDPOINT:
        return 0.5 * (q + q_next)
    return q


def partials_of_Ld(
    system: ContactSystem,
    rule: DiscretizationRule,
    t: float,
    q: Array,
    q_next: Array,
    z: float,
    z_next: float,
    v: Optional[Array] = None,
):
    """Partial derivatives ``(D1, D2, D3, D4)`` of the discrete Lagrangian
    with respect to its two configuration and two z arguments.

    The chain rule on the system's registered gradients, or, when it
    registers none, on the package's central differences of ``L`` at the
    sample point (:func:`~nhcontact.model.difference_gradients`), each rule
    written out.  ``v`` is as for :func:`evaluate_discrete_lagrangian`.  The
    partials are not checked for finiteness here: Newton checks every
    residual and Jacobian it is given (:func:`nhcontact.newton.newton_solve`).
    """
    h = rule.h
    if v is None:
        v = (q_next - q) / h
    z_d = _z_discrete(rule, z, z_next)
    gradients = system.lagrangian_gradients
    if gradients is None:
        gradients = package.difference_gradients(system.lagrangian)
    pos = rule.position_rule
    if pos is PositionRule.LEFT_ENDPOINT:
        gq, gv, gz = gradients(t, q, v, z_d)
        d2 = np.asarray(gv) / h
        d1 = np.asarray(gq) - d2
    elif pos is PositionRule.MIDPOINT:
        gq, gv, gz = gradients(t + 0.5 * h, 0.5 * (q + q_next), v, z_d)
        half, gv_h = 0.5 * np.asarray(gq), np.asarray(gv) / h
        d1 = half - gv_h
        d2 = half + gv_h
    else:  # TRAPEZOIDAL
        gq0, gv0, gz0 = gradients(t, q, v, z_d)
        gq1, gv1, gz1 = gradients(t + h, q_next, v, z_d)
        gv_h = 0.5 * (np.asarray(gv0) + np.asarray(gv1)) / h
        d1 = 0.5 * np.asarray(gq0) - gv_h
        d2 = 0.5 * np.asarray(gq1) + gv_h
        gz = 0.5 * (gz0 + gz1)
    if rule.z_rule is ZRule.FIRST_ORDER:
        d3, d4 = gz, 0.0
    else:
        d3 = d4 = 0.5 * gz
    return np.asarray(d1), np.asarray(d2), d3, d4


def difference_partials_of_Ld(system, rule, t, q, q_next, z, z_next):
    """``(D1, D2, D3, D4)`` as central differences of
    :func:`evaluate_discrete_lagrangian` in each argument: the partials'
    reference that shares no chain rule with :func:`partials_of_Ld` or the
    package's, so ``D4`` is 0 exactly where ``L_d`` does not see ``z_next``."""
    def ld(qa, qb, za, zb):
        return evaluate_discrete_lagrangian(system, rule, t, qa, qb, za, zb)

    difference = package.central_difference
    return (difference(lambda x: ld(x, q_next, z, z_next), q),
            difference(lambda x: ld(q, x, z, z_next), q_next),
            difference(lambda x: ld(q, q_next, x[0], z_next), [z])[0],
            difference(lambda x: ld(q, q_next, z, x[0]), [z_next])[0])


def discrete_constraint(
    system: ContactSystem,
    rule: DiscretizationRule,
    q: Array,
    q_next: Array,
    v: Optional[Array] = None,
) -> Array:
    """Discrete constraint residual ``A(q_d) qdot_d + b(q_d)``; ``v`` is as
    for :func:`evaluate_discrete_lagrangian`."""
    q_d = constraint_evaluation_point(rule, q, q_next)
    if v is None:
        v = (q_next - q) / rule.h
    return matvec(system.constraint_matrix(q_d), v) + system.constraint_offset(q_d)


def _discrete_force(system, rule, t, q, q_next):
    h = rule.h
    v = (q_next - q) / h
    if rule.position_rule is PositionRule.MIDPOINT:
        return h * system.external_force(t + 0.5 * h, 0.5 * (q + q_next), v)
    return h * system.external_force(t, q, v)


def contact_residual(system, rule, window, unknowns) -> Array:
    """Contact step residual from the two-point :class:`Window` ``window``,
    recomputing every window term per call."""
    w = window
    n, m, h = system.dim_q, system.dim_c, rule.h
    q_next, z_next, lam = unknowns[:n], unknowns[n], unknowns[n + 1:]
    d1f, _, d3f, _ = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, w.z_curr, z_next)
    _, d2b, _, d4b = partials_of_Ld(system, rule, w.t_curr - h, w.q_prev, w.q_curr,
                                    w.z_prev, w.z_curr)
    momentum = d1f + d2b * (1.0 + h * d3f) / (1.0 - h * d4b)
    if m:
        momentum = momentum - matvec(system.constraint_matrix(w.q_curr).T, lam)
    ld_fwd = evaluate_discrete_lagrangian(system, rule, w.t_curr, w.q_curr, q_next,
                                          w.z_curr, z_next)
    out = np.empty(n + 1 + m, dtype=unknowns.dtype)
    out[:n] = momentum
    out[n] = z_next - w.z_curr - h * ld_fwd
    if m:
        out[n + 1:] = discrete_constraint(system, rule, w.q_curr, q_next)
    return out


def la_residual(system, rule, window, unknowns) -> Array:
    """Lagrange-d'Alembert step residual from the two-point :class:`Window`
    ``window``, recomputing every window term per call."""
    w = window
    n, m, h = system.dim_q, system.dim_c, rule.h
    q_next, lam = unknowns[:n], unknowns[n:]
    d1f, _, _, _ = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, 0.0, 0.0)
    _, d2b, _, _ = partials_of_Ld(system, rule, w.t_curr - h, w.q_prev, w.q_curr, 0.0, 0.0)
    momentum = h * (d1f + d2b) + _discrete_force(system, rule, w.t_curr, w.q_curr, q_next)
    if m:
        momentum = momentum - matvec(system.constraint_matrix(w.q_curr).T, lam)
    out = np.empty(n + m, dtype=unknowns.dtype)
    out[:n] = momentum
    if m:
        out[n:] = discrete_constraint(system, rule, w.q_curr, q_next)
    return out


def action_partials(system, rule, window, unknowns):
    """``(D2 L_d, D4 L_d)`` of the contact residual's forward step at the
    real ``unknowns``, the ingredients of its action row's derivatives."""
    w, n = window, system.dim_q
    _, d2f, _, d4f = partials_of_Ld(system, rule, w.t_curr, w.q_curr, unknowns[:n], w.z_curr,
                                    unknowns[n])
    return d2f, d4f


def step_jacobian(residual, x, a_t, rule, action=None) -> Array:
    """Exact step Jacobian, column by column with numpy: the multiplier
    columns ``-a_t``, under the first-order z rule no probe of the z column,
    and every other column ``i`` the complex step
    ``np.imag(residual(x + 1j * 1e-200 * e_i)) / 1e-200``.  With a z
    unknown, the action row ``n`` is then set from ``action = (D2, D4)``:
    ``-h D2`` in the q columns, ``1 - h D4`` in the z column, 0 in the
    multiplier columns."""
    a_t = np.array(a_t, dtype=float)
    k = len(x)
    n, m = a_t.shape
    jac = np.zeros((k, k))
    direction = np.zeros(k)
    with_z = k == n + 1 + m
    z_unit = with_z and rule.z_rule is ZRule.FIRST_ORDER
    for i in range(k - m):
        if z_unit and i == n:
            continue
        direction[i] = 1.0
        jac[:, i] = np.imag(residual(x + 1j * COMPLEX_STEP * direction)) / COMPLEX_STEP
        direction[i] = 0.0
    jac[:n, k - m:] = -a_t
    if with_z:
        d2, d4 = action
        jac[n, :n] = -rule.h * np.asarray(d2)
        jac[n, n] = 1.0 - rule.h * d4
    return jac


def window_carry(system, rule, window: Window, with_z: bool = True) -> StepCarry:
    """The :class:`~nhcontact.contact.StepCarry` of a hand-built ``window``:
    its backward step from ``t_curr - h`` evaluated by the package's
    one-line forms, as the window terms computed it before the seed step
    handed the first window its carry.  Without z (``with_z`` false) its
    ``ld`` is ``None``, as the Lagrange-d'Alembert residual leaves it."""
    w = window
    backward = (system, rule, w.t_curr - rule.h, w.q_prev, w.q_curr, w.z_prev, w.z_curr)
    _, d2, _, d4 = package.partials_of_Ld(*backward)
    ld = package.evaluate_discrete_lagrangian(*backward) if with_z else None
    return StepCarry(None, d2, d4, ld,
                     package.discrete_constraint(system, rule, w.q_prev, w.q_curr))


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def foucault_system(params: FoucaultParams, formulation: str = "herglotz") -> ContactSystem:
    """Planar small-angle pendulum at latitude ``beta`` in the rotating frame.

    The rotating frame couples the two coordinates through the affine
    velocity constraint ``-y xdot + x ydot + Omega sin(beta) (x^2 + y^2) = 0``.
    The ``"herglotz"`` formulation damps through a ``-alpha z`` term in the
    Lagrangian; ``"la"`` uses the external force ``-alpha m qdot`` instead.
    """
    if formulation not in ("herglotz", "la"):
        raise ValueError(f"unknown formulation {formulation!r}")
    m, l, g, alpha = params.m, params.l, params.g, params.alpha
    omega_v = params.omega_vertical
    k_spring = m * g / l
    herglotz = formulation == "herglotz"

    def lagrangian(t, q, qdot, z):
        value = 0.5 * m * ((qdot[0] * qdot[0]) + (qdot[1] * qdot[1])) \
            - 0.5 * k_spring * ((q[0] * q[0]) + (q[1] * q[1]))
        if herglotz:
            value -= alpha * z
        return value

    def gradients(t, q, qdot, z):
        gq = -k_spring * q
        gv = m * qdot
        gz = -alpha if herglotz else 0.0
        return gq, gv, gz

    def constraint_matrix(q):
        return np.array([[-q[1], q[0]]])

    def constraint_offset(q):
        return np.array([omega_v * ((q[0] * q[0]) + (q[1] * q[1]))])

    # "herglotz" keeps the default zero external force
    force = {} if herglotz else {"external_force": lambda t, q, qdot: -alpha * m * qdot}

    def energy(q, qdot):
        return 0.5 * m * ((qdot[0] * qdot[0]) + (qdot[1] * qdot[1])) \
            + 0.5 * k_spring * ((q[0] * q[0]) + (q[1] * q[1]))

    return ContactSystem(
        dim_q=2,
        dim_c=1,
        lagrangian=lagrangian,
        constraint_matrix=constraint_matrix,
        constraint_offset=constraint_offset,
        energy=energy,
        lagrangian_gradients=gradients,
        **force,
    )



def disk_kinetic_energy(params: DiskParams, q: Array, qdot: Array) -> float:
    m, R, I_A, I_T = params.m, params.R, params.I_A, params.I_T
    theta = q[2]
    dX, dY, dtheta, dphi, dpsi = qdot
    s = np.sin(theta)
    c = np.cos(theta)
    spin = dpsi - dphi * s
    return (
        0.5 * m * ((dX * dX) + (dY * dY) + R ** 2 * (s * s) * (dtheta * dtheta))
        + 0.5 * (I_A * (spin * spin) + I_T * ((dtheta * dtheta) + (dphi * dphi) * (c * c)))
    )


def disk_system(params: DiskParams) -> ContactSystem:
    """Falling rolling disk with optional dissipation and generalized forcing.

    The two rolling constraints tie the center velocity to the Euler-angle
    rates; the forcing enters the Lagrangian as ``F(t) . q``.
    """
    m, R, I_A, I_T, g, alpha = params.m, params.R, params.I_A, params.I_T, params.g, params.alpha
    forcing = params.forcing

    def lagrangian(t, q, qdot, z):
        theta = q[2]
        return (
            disk_kinetic_energy(params, q, qdot)
            - m * g * R * np.cos(theta)
            - alpha * z
            + dot(forcing(t), q)
        )

    def gradients(t, q, qdot, z):
        theta = q[2]
        dX, dY, dtheta, dphi, dpsi = qdot
        s = np.sin(theta)
        c = np.cos(theta)
        spin = dpsi - dphi * s
        # complex when q or qdot is, so complex-step probes pass through
        gq = np.asarray(forcing(t)) + np.zeros_like(q + qdot)
        gq[2] += (
            m * R ** 2 * s * c * (dtheta * dtheta)
            - I_A * spin * dphi * c
            - I_T * (dphi * dphi) * c * s
            + m * g * R * s
        )
        gv = np.array([
            m * dX,
            m * dY,
            (m * R ** 2 * (s * s) + I_T) * dtheta,
            -I_A * spin * s + I_T * dphi * (c * c),
            I_A * spin,
        ])
        return gq, gv, -alpha

    def constraint_matrix(q):
        theta, phi = q[2], q[3]
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        return np.array([
            [1.0, 0.0, R * ct * sp, R * st * cp, -R * cp],
            [0.0, 1.0, -R * ct * cp, R * st * sp, -R * sp],
        ])

    def energy(q, qdot):
        return disk_kinetic_energy(params, q, qdot) + m * g * R * np.cos(q[2])

    return ContactSystem(
        dim_q=5,
        dim_c=2,
        lagrangian=lagrangian,
        constraint_matrix=constraint_matrix,
        energy=energy,
        lagrangian_gradients=gradients,
    )


# ---------------------------------------------------------------------------
# Reference solvers
# ---------------------------------------------------------------------------

def foucault_reference_ode(params: FoucaultParams):
    """The pendulum's reference right-hand side on numpy scalars."""
    g_over_l = params.g / params.l
    alpha = params.alpha
    omega_v = params.omega_vertical

    def rhs(t, y):
        x, yy, vx, vy = y
        r2 = x * x + yy * yy
        lam_over_m = -(2.0 * omega_v * (x * vx + yy * vy) + alpha * omega_v * r2) / r2
        ax = -g_over_l * x - alpha * vx - lam_over_m * yy
        ay = -g_over_l * yy - alpha * vy + lam_over_m * x
        return np.array([vx, vy, ax, ay])

    return rhs


def foucault_reference_multiplier(params: FoucaultParams, y: Array) -> float:
    """The pendulum's reference multiplier on numpy scalars."""
    x, yy, vx, vy = y
    r2 = x * x + yy * yy
    omega_v = params.omega_vertical
    return -params.m * (2.0 * omega_v * (x * vx + yy * vy)
                        + params.alpha * omega_v * r2) / r2


_RKF_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_RKF_A = [
    np.array([]),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
]
_RKF_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RKF_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])


def rkf45_integrate(ode, y0, t_span, rel_tol=1e-8, abs_tol=1e-10):
    """The Runge-Kutta-Fehlberg 4(5) loop on numpy arrays, its tableau sums
    numpy's matrix products."""
    t0, tf = float(t_span[0]), float(t_span[1])
    span = tf - t0
    y = np.array(y0, dtype=float)
    h = min(1e-2 * span, 1.0) or span
    times, states, derivs = [t0], [y.copy()], [np.asarray(ode(t0, y), dtype=float)]
    t = t0
    while t < tf:
        h = min(h, tf - t)
        k = np.empty((6, len(y)))
        k[0] = derivs[-1]
        for i in range(1, 6):
            k[i] = ode(t + _RKF_C[i] * h, y + h * (_RKF_A[i] @ k[:i]))
        y4 = y + h * (_RKF_B4 @ k)
        y5 = y + h * (_RKF_B5 @ k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y4))
        err = float(np.max(np.abs(y4 - y5) / scale)) / h
        if not np.isfinite(err):
            raise EvaluationError(f"rkf45: error estimate {err} at t={t:.6g}")
        if err <= 1.0:
            t += h
            y = y4
            times.append(t)
            states.append(y.copy())
            derivs.append(np.asarray(ode(t, y), dtype=float))
        factor = 0.9 * (1.0 / err) ** 0.25 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return DenseTrajectory(np.array(times), np.array(states), np.array(derivs))


def continuous_residual(system: ContactSystem):
    """The implicit DAE residual ``G(t, y, ydot)`` of ``system`` on numpy
    arrays: the momentum rate by :func:`~nhcontact.model.complex_step`, and
    numpy's products with ``A(q)``, evaluated twice."""
    n, m = system.dim_q, system.dim_c

    def momentum(t, q, v, z):
        return np.asarray(system.lagrangian_gradients(t, q, v, z)[1])

    def residual(t, y, ydot):
        q, v, z = y[:n], y[n:2 * n], y[2 * n]
        lam = y[2 * n + 1:]
        qd, vd = ydot[:n], ydot[n:2 * n]
        gq, gv, gz = system.lagrangian_gradients(t, q, v, z)
        gq, gv = np.asarray(gq), np.asarray(gv)
        p_rate = package.complex_step(lambda u: momentum(t, u[:n], u[n:], z),
                                      np.concatenate([q, v]), np.concatenate([qd, vd]))
        r = np.empty(2 * n + 1 + m)
        r[:n] = qd - v
        r[n:2 * n] = p_rate - gq - gv * gz
        if m:
            r[n:2 * n] -= np.asarray(system.constraint_matrix(q)).T @ lam
        r[2 * n] = ydot[2 * n] - system.lagrangian(t, q, v, z)
        if m:
            r[2 * n + 1:] = np.asarray(system.constraint_matrix(q)) @ v + system.constraint_offset(q)
        return r

    return residual
