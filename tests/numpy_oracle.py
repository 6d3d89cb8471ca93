"""Numpy implementations of the step kernel and of the built-in systems'
callables: the tests' oracles for the Python-number kernel.

``nhcontact`` computes the step residuals, the analytic discrete-Lagrangian
partials, the discrete constraint and the Foucault and disk callables on
Python numbers, rounding each elementwise operation as numpy's array and
scalar arithmetic does, and builds the exact step Jacobian's complex-step
columns from one complex vector and the imaginary parts of each returned
list, its action row in closed form.  The functions here do the same work
on numpy arrays and scalars, a fresh probe vector per column; the tests
require the package's results to equal theirs bit for bit, zero signs
included, on real arguments and on the complex-step probes of the exact
step Jacobian.  The products with a constraint matrix and the disk's
``F(t) . q`` are :func:`dot`, the package's left-to-right sum written on
numpy scalars: numpy's own dot rounds otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from nhcontact.model import (
    COMPLEX_STEP,
    Array,
    ContactSystem,
    DiscretizationRule,
    EvaluationError,
    PositionRule,
    ZRule,
    central_difference,
)
from nhcontact.systems import DiskParams, FoucaultParams


# ---------------------------------------------------------------------------
# Step kernel
# ---------------------------------------------------------------------------

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


def _partials_analytic(system, rule, t, q, q_next, z, z_next, v):
    h = rule.h
    if v is None:
        v = (q_next - q) / h
    z_d = _z_discrete(rule, z, z_next)
    pos = rule.position_rule
    if pos is PositionRule.LEFT_ENDPOINT:
        gq, gv, gz = system.lagrangian_gradients(t, q, v, z_d)
        d2 = gv / h
        d1 = gq - d2
    elif pos is PositionRule.MIDPOINT:
        gq, gv, gz = system.lagrangian_gradients(t + 0.5 * h, 0.5 * (q + q_next), v, z_d)
        half, gv_h = 0.5 * gq, gv / h
        d1 = half - gv_h
        d2 = half + gv_h
    else:  # TRAPEZOIDAL
        gq0, gv0, gz0 = system.lagrangian_gradients(t, q, v, z_d)
        gq1, gv1, gz1 = system.lagrangian_gradients(t + h, q_next, v, z_d)
        gv_h = 0.5 * (gv0 + gv1) / h
        d1 = 0.5 * gq0 - gv_h
        d2 = 0.5 * gq1 + gv_h
        gz = 0.5 * (gz0 + gz1)
    if rule.z_rule is ZRule.FIRST_ORDER:
        d3, d4 = gz, 0.0
    else:
        d3 = d4 = 0.5 * gz
    return np.asarray(d1), np.asarray(d2), d3, d4


def _partials_fd(system, rule, t, q, q_next, z, z_next):
    def ld(qa, qb, za, zb):
        return evaluate_discrete_lagrangian(system, rule, t, qa, qb, za, zb)

    d1 = central_difference(lambda x: ld(x, q_next, z, z_next), q)
    d2 = central_difference(lambda x: ld(q, x, z, z_next), q_next)
    d3 = float(central_difference(lambda x: ld(q, q_next, x[0], z_next), [z])[0])
    if rule.z_rule is ZRule.FIRST_ORDER:
        d4 = 0.0  # L_d does not see z_next under the first-order rule
    else:
        d4 = float(central_difference(lambda x: ld(q, q_next, z, x[0]), [z_next])[0])
    return d1, d2, d3, d4


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

    Uses the system's registered analytic gradients when available, otherwise
    central finite differences on :func:`evaluate_discrete_lagrangian`.
    ``v`` is as for :func:`evaluate_discrete_lagrangian`.  The
    partials are not checked for finiteness here: Newton checks every
    residual and Jacobian it is given (:func:`nhcontact.newton.newton_solve`).
    """
    if system.lagrangian_gradients is not None:
        return _partials_analytic(system, rule, t, q, q_next, z, z_next, v)
    return _partials_fd(system, rule, t, q, q_next, z, z_next)


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
    """Contact step residual, recomputing every window term per call."""
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
    """Lagrange-d'Alembert step residual, recomputing every window term per
    call."""
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
        value = 0.5 * m * (qdot[0] ** 2 + qdot[1] ** 2) \
            - 0.5 * k_spring * (q[0] ** 2 + q[1] ** 2)
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
        return np.array([omega_v * (q[0] ** 2 + q[1] ** 2)])

    # "herglotz" keeps the default zero external force
    force = {} if herglotz else {"external_force": lambda t, q, qdot: -alpha * m * qdot}

    def energy(q, qdot):
        return 0.5 * m * (qdot[0] ** 2 + qdot[1] ** 2) \
            + 0.5 * k_spring * (q[0] ** 2 + q[1] ** 2)

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
        0.5 * m * (dX ** 2 + dY ** 2 + R ** 2 * s ** 2 * dtheta ** 2)
        + 0.5 * (I_A * spin ** 2 + I_T * (dtheta ** 2 + dphi ** 2 * c ** 2))
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
            m * R ** 2 * s * c * dtheta ** 2
            - I_A * spin * dphi * c
            - I_T * dphi ** 2 * c * s
            + m * g * R * s
        )
        gv = np.array([
            m * dX,
            m * dY,
            (m * R ** 2 * s ** 2 + I_T) * dtheta,
            -I_A * spin * s + I_T * dphi * c ** 2,
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
