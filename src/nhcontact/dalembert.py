"""Forced, constrained Lagrange-d'Alembert integrator.

Baseline against which the contact integrator is compared.  The discrete
Lagrangian is the one-step quadrature ``h * L(Psi(q, q'))`` with z frozen at
zero, dissipation entering through a discretized external force instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .contact import (
    project_seed_position,
    run_steps,
    solve_step,
    step_jacobian,
    window_constraint,
)
from .model import (
    Array,
    ContactSystem,
    DiscretizationRule,
    ExperimentSpec,
    PositionRule,
    StepState,
    Trajectory,
    discrete_constraint,
    initial_acceleration,
    partials_of_Ld,
    project_velocity,
)
from .newton import LUFactors, NewtonConfig


def _discrete_force(system, rule, t, q, q_next, v=None):
    """One-step force quadrature ``h * F^e`` with forward-difference velocity
    ``v = (q' - q)/h``, computed when not given."""
    h = rule.h
    if v is None:
        v = (q_next - q) / h
    if rule.position_rule is PositionRule.MIDPOINT:
        t_eval = t + 0.5 * h
        q_eval = 0.5 * (q + q_next)
    else:
        t_eval = t
        q_eval = q
    return h * system.external_force(t_eval, q_eval, v)


def la_window_terms(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
):
    """Residual terms fixed by the window for the whole step:
    ``(D2 L_d(bwd), A(q_j)^T, b)``, the last two the
    :func:`~nhcontact.contact.window_constraint`."""
    w = window
    _, d2b, _, _ = partials_of_Ld(system, rule, w.t_curr - rule.h, w.q_prev, w.q_curr,
                                  0.0, 0.0)
    return (d2b,) + window_constraint(system, rule, w.q_curr)


def la_residual(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
) -> Array:
    """Forced discrete Euler-Lagrange residual plus discrete constraints.

    ``terms`` are the window's :func:`la_window_terms`.  The force is
    sampled on the forward step ``(q_j, q_{j+1})``.
    """
    w = window
    n, m, h = system.dim_q, system.dim_c, rule.h
    q_next = unknowns[:n]
    lam = unknowns[n:]
    d2b, a_t, offset = terms
    v = (q_next - w.q_curr) / h

    d1f, _, _, _ = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, 0.0, 0.0, v)
    momentum = h * (d1f + d2b) + _discrete_force(
        system, rule, w.t_curr, w.q_curr, q_next, v)
    if m:
        momentum = momentum - a_t @ lam

    out = np.empty(n + m, dtype=unknowns.dtype)
    out[:n] = momentum
    if m:
        out[n:] = (discrete_constraint(system, rule, w.q_curr, q_next, v)
                   if offset is None else a_t.T @ v + offset)
    return out


def la_jacobian(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
) -> Array:
    """Exact Jacobian of :func:`la_residual` at real ``unknowns``: the
    multiplier columns in closed form, the configuration columns by complex
    step (:func:`~nhcontact.contact.step_jacobian`)."""
    return step_jacobian(lambda u: la_residual(system, rule, window, terms, u),
                         unknowns, system.dim_q, terms[1])


def la_step(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    lam_prev: Array,
    jacobian: Optional[LUFactors],
    solver: NewtonConfig,
    prior: Optional[tuple] = None,
):
    """One implicit forced step; returns
    ``(q_next, 0.0, lam, jacobian, iterations)``, z frozen at zero.
    Newton starts, and ``jacobian`` is carried and fresh ones built, as in
    :func:`~nhcontact.contact.contact_step`, with :func:`la_jacobian` and
    without a z unknown."""
    n = system.dim_q
    terms = la_window_terms(system, rule, window)

    def linear_start():
        return np.concatenate([2.0 * window.q_curr - window.q_prev, lam_prev])

    build = None
    if system.lagrangian_gradients is not None:
        def build(u):
            return la_jacobian(system, rule, window, terms, u)
    x, iterations, jacobian = solve_step(
        lambda u: la_residual(system, rule, window, terms, u), build, solver,
        jacobian, linear_start, window, lam_prev, prior, with_z=False)
    return x[:n], 0.0, x[n:], jacobian, iterations


def _seed_window(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
) -> StepState:
    """First window of the forced scheme: the second-order seed of
    :func:`~nhcontact.contact.initialize_window` with the external force in
    the initial acceleration, and z frozen at zero."""
    h = rule.h
    v = project_velocity(system, q0, np.asarray(v0, dtype=float))
    acc = initial_acceleration(system, q0, v, include_external_force=True)
    q1 = project_seed_position(system, rule, q0, q0 + h * v + 0.5 * h ** 2 * acc)
    return StepState(q_prev=q0, q_curr=q1, z_prev=0.0, z_curr=0.0, t_curr=h)


def run_la(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
    n_steps: int,
    solver: NewtonConfig = NewtonConfig(),
    stats=None,
) -> Trajectory:
    """Integrate ``n_steps`` forced variational steps from ``(q0, v0)``."""
    return run_steps(system, rule, q0, v0, n_steps, _seed_window, la_step,
                     solver, stats=stats)


def simulate_la(
    spec: ExperimentSpec,
    solver: NewtonConfig = NewtonConfig(),
    stats=None,
) -> Trajectory:
    """Run a catalog experiment with the Lagrange-d'Alembert integrator."""
    from .experiments import build_la_system

    system = build_la_system(spec)
    n_steps = int(round(spec.t_final / spec.h))
    return run_la(system, spec.rule, spec.q0, spec.v0, n_steps,
                  solver=solver, stats=stats)
