"""Forced, constrained Lagrange-d'Alembert integrator.

Baseline against which the contact integrator is compared.  The discrete
Lagrangian is the one-step quadrature ``h * L(Psi(q, q'))`` with z frozen at
zero, dissipation entering through a discretized external force instead.

Only the discrete equations are this module's own: the residual
:func:`la_residual`, with its one-step force quadrature ``h * F^e``, and
:func:`run_la`, which hands that residual, without a z unknown, to
:func:`nhcontact.contact.run_steps`.  The seed, the window terms, the
Newton solve with its Jacobian and the trajectory driver are
:mod:`nhcontact.contact`'s.  Each residual evaluation is one call of the
window's :func:`~nhcontact.model.step_evaluator`, z held at zero and
``L_d`` not evaluated: it gives the partials, the constraint rows and the
time, point and difference velocity at which the rule samples the force.
The complex probes of the step Jacobian come in one call, as the rows of a
2-D matrix of unknowns, and one call of the evaluator on them gives each
probe ``D1`` and the constraint rows alone and samples the force at its own
point.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from .contact import Evaluation, StepStats, multiplier_rows, run_steps
from .model import (
    Array,
    ContactSystem,
    DiscretizationRule,
    StepState,
    Trajectory,
    numbers,
)
from .newton import NewtonConfig


def la_residual(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
) -> list:
    """Forced discrete Euler-Lagrange residual plus discrete constraints, a
    list of Python numbers computed as
    :func:`~nhcontact.contact.contact_residual` is.

    ``terms`` are the window's
    :func:`~nhcontact.contact.contact_window_terms`, whose ``z_j`` is zero
    in every window of a run; the factor ``1 - h D4 L_d`` among them is
    not used (it is 1 for a z-free Lagrangian).  Their forward evaluator
    gives the partials, the constraint rows and the sample point
    ``(t_d, q_d, v)`` of the force ``F^e``, whose quadrature is
    ``h * F^e(t_d, q_d, v)``, in one pass; z is held at zero.  The force is
    taken as the system returns it, a numpy array costing one ``tolist()``.
    The :class:`~nhcontact.contact.Evaluation` at a real candidate and a
    2-D ``unknowns``, all the probes of a step Jacobian in one call, one
    list each, are as for :func:`~nhcontact.contact.contact_residual`, with
    ``None`` for the discrete Lagrangian, which this residual never
    evaluates, and ``A(q_j)^T lambda`` from row 0.
    """
    n, h = system.dim_q, rule.h
    d2b, _, a_t, forward = terms
    force = system.external_force
    if unknowns.ndim == 2:
        lam_rows = multiplier_rows(a_t, unknowns[0, n:].tolist())
        probes = forward(unknowns[:, :n], repeat(0.0))
        return [[h * (a + b) + h * f - c for a, b, f, c in
                 zip(d1f, d2b, numbers(force(t_d, q_d, v)), lam_rows)] + constraint
                for t_d, q_d, v, d1f, _, _, _, _, constraint in probes]
    lam_rows = multiplier_rows(a_t, unknowns[n:].tolist())
    t_d, q_d, v, d1f, d2f, _, d4f, _, constraint = forward(unknowns[:n], 0.0)
    rows = Evaluation([h * (a + b) + h * f - c for a, b, f, c in
                       zip(d1f, d2b, numbers(force(t_d, q_d, v)), lam_rows)])
    rows += constraint
    rows.parts = d2f, d4f, None, constraint
    return rows


def run_la(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
    n_steps: int,
    solver: NewtonConfig = NewtonConfig(),
    stats: Optional[StepStats] = None,
) -> Trajectory:
    """Integrate ``n_steps`` forced variational steps from ``(q0, v0)``."""
    return run_steps(system, rule, q0, v0, n_steps, la_residual, False, solver, stats)
