"""Forced, constrained Lagrange-d'Alembert integrator.

Baseline against which the contact integrator is compared.  The discrete
Lagrangian is the one-step quadrature ``h * L(Psi(q, q'))`` with z frozen at
zero, dissipation entering through a discretized external force instead.

Only the discrete equations are this module's own: the force quadrature
:func:`_discrete_force`, the residual :func:`la_residual`, and
:func:`run_la`, which hands that residual, without a z unknown, to
:func:`nhcontact.contact.run_steps`.  The seed, the window terms, the
Newton solve with its Jacobian and the trajectory driver are
:mod:`nhcontact.contact`'s.  Each residual evaluation is one call of the
window's :func:`~nhcontact.model.step_evaluator`, z held at zero and
``L_d`` not evaluated: it gives the partials, the constraint rows and the
difference velocity and evaluation point at which the force is sampled.
"""

from __future__ import annotations

from typing import Optional

from .contact import run_steps
from .model import (
    Array,
    ContactSystem,
    DiscretizationRule,
    PositionRule,
    StepState,
    Trajectory,
)
from .newton import NewtonConfig


def _discrete_force(system, rule, t, q_d, v) -> list:
    """One-step force quadrature ``h * F^e``, a list of Python numbers, on
    the step from ``t`` with difference velocity ``v``, sampled at the
    constraint evaluation point ``q_d``."""
    h = rule.h
    t_eval = t + 0.5 * h if rule.position_rule is PositionRule.MIDPOINT else t
    return [h * f for f in system.external_force(t_eval, q_d, v).tolist()]


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
    :func:`~nhcontact.contact.contact_window_terms`, built without z
    (``with_z`` false) for a run; the factor ``1 - h D4 L_d`` among them is
    not used (it is 1 for a z-free Lagrangian).  Their forward evaluator
    gives the partials, the difference velocity, the evaluation point of the
    force and the constraint rows in one pass; z is held at zero.  ``keep``
    is as for :func:`~nhcontact.contact.contact_residual`, with ``None`` for
    the discrete Lagrangian, which this residual does not use.
    """
    n, h = system.dim_q, rule.h
    d2b, _, a_t, forward = terms
    v, q_d, d1f, d2f, _, d4f, _, constraint = forward(unknowns[:n], 0.0)
    force = _discrete_force(system, rule, window.t_curr, q_d, v)
    lam_rows = (a_t @ unknowns[n:]).tolist() if system.dim_c else [0.0] * n
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
