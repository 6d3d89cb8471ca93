"""Forced, constrained Lagrange-d'Alembert integrator.

Baseline against which the contact integrator is compared.  The discrete
Lagrangian is the one-step quadrature ``h * L(Psi(q, q'))`` with z frozen at
zero, dissipation entering through a discretized external force instead.

Only the discrete equations are this module's own: the force quadrature
:func:`_discrete_force`, the residual :func:`la_residual`, and
:func:`run_la`, which hands that residual, without a z unknown, to
:func:`nhcontact.contact.run_steps`.  The seed, the window terms, the
multiplier and constraint rows, the Newton solve with its Jacobian and the
trajectory driver are :mod:`nhcontact.contact`'s.
"""

from __future__ import annotations

from typing import Optional

from .contact import constraint_rows, run_steps
from .model import (
    Array,
    ContactSystem,
    DiscretizationRule,
    PositionRule,
    StepState,
    Trajectory,
    constraint_evaluation_point,
    partials_of_Ld,
)
from .newton import NewtonConfig


def _discrete_force(system, rule, t, q, q_next, v) -> list:
    """One-step force quadrature ``h * F^e``, a list of Python numbers, with
    forward-difference velocity ``v = (q' - q)/h``, sampled where the
    discrete constraint samples ``A``."""
    h = rule.h
    t_eval = t + 0.5 * h if rule.position_rule is PositionRule.MIDPOINT else t
    q_eval = constraint_evaluation_point(rule, q, q_next)
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
    n, h = system.dim_q, rule.h
    q_next = unknowns[:n]
    d2b = terms[0]
    v = (q_next - w.q_curr) / h

    d1f, d2f, _, d4f = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, 0.0, 0.0,
                                      v)
    force = _discrete_force(system, rule, w.t_curr, w.q_curr, q_next, v)
    lam_rows, constraint = constraint_rows(system, rule, window, terms, unknowns, q_next, v)
    momentum = [h * (a + b) + f - c for a, b, f, c in zip(d1f, d2b, force, lam_rows)]
    if keep is not None:
        keep[:] = d2f, d4f, None, constraint
    return momentum + constraint


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
    return run_steps(system, rule, q0, v0, n_steps, la_residual, False, solver, stats)
