"""Forced, constrained Lagrange-d'Alembert integrator.

Baseline against which the contact integrator is compared.  The discrete
Lagrangian is the one-step quadrature ``h * L(Psi(q, q'))`` with z frozen at
zero, dissipation entering through a discretized external force instead.

Only the discrete equations are this module's own: :func:`la_residual`.
The seed, the window terms, the Newton solve with its Jacobian and the
trajectory driver are :mod:`nhcontact.contact`'s.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .contact import StepCarry, run_steps, seed_position, solve_step
from .model import (
    Array,
    ContactSystem,
    DiscretizationRule,
    PositionRule,
    StepState,
    Trajectory,
    discrete_constraint,
    partials_of_Ld,
)
from .newton import NewtonConfig


def _discrete_force(system, rule, t, q, q_next, v=None) -> list:
    """One-step force quadrature ``h * F^e``, a list of Python numbers, with
    forward-difference velocity ``v = (q' - q)/h``, computed when not
    given."""
    h = rule.h
    if v is None:
        v = (q_next - q) / h
    if rule.position_rule is PositionRule.MIDPOINT:
        t_eval = t + 0.5 * h
        q_eval = 0.5 * (q + q_next)
    else:
        t_eval = t
        q_eval = q
    return [h * f for f in system.external_force(t_eval, q_eval, v).tolist()]


def la_residual(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
    keep: Optional[list] = None,
) -> list:
    """Forced discrete Euler-Lagrange residual plus discrete constraints, a
    list of Python numbers computed as
    :func:`~nhcontact.contact.contact_residual` is.

    ``terms`` are the window's
    :func:`~nhcontact.contact.contact_window_terms`; the factor
    ``1 - h D4 L_d`` among them is not used (it is 1 for a z-free
    Lagrangian).  The force is sampled on the forward step
    ``(q_j, q_{j+1})``.  ``keep`` is as for
    :func:`~nhcontact.contact.contact_residual`, with ``None`` for the
    discrete Lagrangian, which this residual does not evaluate.
    """
    w = window
    n, m, h = system.dim_q, system.dim_c, rule.h
    q_next = unknowns[:n]
    d2b, _, a_t, offset = terms
    v = (q_next - w.q_curr) / h

    d1f, d2f, _, d4f = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, 0.0, 0.0,
                                      v)
    force = _discrete_force(system, rule, w.t_curr, w.q_curr, q_next, v)
    lam_rows = (a_t @ unknowns[n:]).tolist() if m else [0.0] * n
    momentum = [h * (a + b) + f - c for a, b, f, c in zip(d1f, d2b, force, lam_rows)]

    constraint = []
    if m:
        constraint = (discrete_constraint(system, rule, w.q_curr, q_next, v) if offset is None
                      else [a + b for a, b in zip((a_t.T @ v).tolist(), offset)])
    if keep is not None:
        keep[:] = d2f, d4f, None, constraint
    return momentum + constraint


def la_step(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    lam_prev: Array,
    carry: Optional[StepCarry],
    solver: NewtonConfig,
    prior: Optional[tuple] = None,
):
    """One implicit forced step; returns
    ``(q_next, 0.0, lam, carry, iterations)``, z frozen at zero.
    Solved as :func:`~nhcontact.contact.contact_step` is, without a z
    unknown; the linear start extrapolates q and carries the multipliers."""
    def linear_start(backward):
        return np.concatenate([2.0 * window.q_curr - window.q_prev, lam_prev])

    n = system.dim_q
    x, iterations, carry = solve_step(
        system, rule, window, la_residual, solver, carry, linear_start,
        lam_prev, prior, with_z=False)
    return x[:n], 0.0, x[n:], carry, iterations


def _seed_window(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
) -> StepState:
    """First window of the forced scheme: the
    :func:`~nhcontact.contact.seed_position` step, z frozen at zero."""
    return StepState(q_prev=q0, q_curr=seed_position(system, rule, q0, v0),
                     z_prev=0.0, z_curr=0.0, t_curr=rule.h)


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
