"""Constrained contact integrator.

One step solves, fully coupled, for the next configuration, the next
accumulated action ``z`` and the constraint multipliers:

* n momentum-balance components
  ``D1 L_d(fwd) + D2 L_d(bwd) * (1 + h D3 L_d(fwd)) / (1 - h D4 L_d(bwd))
  - lambda^T A(q_j)``,
* one action-update component ``z_{j+1} - z_j - h L_d(fwd)``,
* m discrete-constraint components ``A(q_d) qdot_d + b(q_d)``.

Newton solves it with the exact Jacobian of :func:`contact_jacobian` when
the system registers Lagrangian gradients, else with finite differences.

The trajectory driver :func:`run_steps` is shared with the
Lagrange-d'Alembert integrator, which differs only in its seed and step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (
    Array,
    ContactSystem,
    DiscretizationRule,
    EvaluationError,
    ExperimentSpec,
    StepState,
    Termination,
    Trajectory,
    ZRule,
    complex_step,
    discrete_constraint,
    evaluate_discrete_lagrangian,
    initial_acceleration,
    partials_of_Ld,
    project_velocity,
)
from .newton import (
    LUFactors,
    NewtonConfig,
    NewtonDivergence,
    SingularJacobian,
    newton_solve,
)


class DenominatorSingular(RuntimeError):
    """The implicit z-coupling factor ``1 - h D4 L_d`` is degenerate."""


def contact_window_terms(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
):
    """Residual terms fixed by the window for the whole step:
    ``(D2 L_d(bwd), 1 - h D4 L_d(bwd), A(q_j)^T)``.

    Raises :class:`DenominatorSingular` when the implicit z-coupling factor
    vanishes.
    """
    w = window
    h = rule.h
    _, d2b, _, d4b = partials_of_Ld(system, rule, w.t_curr - h, w.q_prev, w.q_curr,
                                    w.z_prev, w.z_curr)
    denom = 1.0 - h * d4b
    if abs(denom) < 1e-12:
        raise DenominatorSingular(
            f"1 - h*D4 = {denom:.3e} at t={w.t_curr}: implicit z-coupling degenerate"
        )
    return d2b, denom, system.constraint_matrix(w.q_curr).T


def contact_residual(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
) -> Array:
    """Stacked residual at a candidate ``(q_{j+1}, z_{j+1}, lambda)``.

    ``terms`` are the window's :func:`contact_window_terms`.
    """
    w = window
    n, m, h = system.dim_q, system.dim_c, rule.h
    q_next = unknowns[:n]
    z_next = unknowns[n]
    lam = unknowns[n + 1:]
    d2b, denom, a_t = terms

    d1f, _, d3f, _ = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, w.z_curr, z_next)
    momentum = d1f + d2b * (1.0 + h * d3f) / denom
    if m:
        momentum = momentum - a_t @ lam

    ld_fwd = evaluate_discrete_lagrangian(
        system, rule, w.t_curr, w.q_curr, q_next, w.z_curr, z_next
    )
    z_res = z_next - w.z_curr - h * ld_fwd

    out = np.empty(n + 1 + m, dtype=unknowns.dtype)
    out[:n] = momentum
    out[n] = z_res
    if m:
        out[n + 1:] = discrete_constraint(system, rule, w.q_curr, q_next)
    return out


def step_jacobian(residual: Callable[[Array], Array], x: Array, probed: int,
                  a_t: Array) -> Array:
    """Jacobian at real ``x`` of a step residual whose last ``m`` unknowns
    are multipliers entering its first ``n`` rows as ``-A(q_j)^T lambda``,
    ``(n, m)`` the shape of ``a_t = A(q_j)^T``, and nowhere else.

    The first ``probed`` columns are complex steps of ``residual``
    (:func:`~nhcontact.model.complex_step`); the multiplier columns are
    ``-a_t`` in those rows and zero below; any other column is left zero.
    """
    k = len(x)
    n, m = a_t.shape
    jac = np.zeros((k, k))
    direction = np.zeros(k)
    for i in range(probed):
        direction[i] = 1.0
        jac[:, i] = complex_step(residual, x, direction)
        direction[i] = 0.0
    jac[:n, k - m:] = -a_t
    return jac


def contact_jacobian(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
) -> Array:
    """Exact Jacobian of :func:`contact_residual` at real ``unknowns``.

    The residual is linear in the multipliers (:func:`step_jacobian`), and
    under the first-order z rule only the action row sees ``z_{j+1}``, with
    coefficient one.  The configuration columns, and the z column under the
    second-order rule, are complex steps, so the system's callables must be
    complex-safe (:class:`~nhcontact.model.ContactSystem`).
    """
    n = system.dim_q
    first_order = rule.z_rule is ZRule.FIRST_ORDER
    jac = step_jacobian(lambda u: contact_residual(system, rule, window, terms, u),
                        unknowns, n if first_order else n + 1, terms[2])
    if first_order:
        jac[n, n] = 1.0
    return jac


def solve_z_update(
    system: ContactSystem,
    rule: DiscretizationRule,
    t: float,
    q: Array,
    q_next: Array,
    z: float,
) -> float:
    """Solve ``z' = z + h L_d(q, q', z, z')`` for ``z'``.

    Explicit under the first-order z rule; a scalar Newton solve otherwise
    (one iteration when the Lagrangian is linear in z).
    """
    h = rule.h
    if rule.z_rule is ZRule.FIRST_ORDER:
        return z + h * evaluate_discrete_lagrangian(system, rule, t, q, q_next, z, z)

    def residual(u):
        zn = float(u[0])
        return np.array(
            [zn - z - h * evaluate_discrete_lagrangian(system, rule, t, q, q_next, z, zn)]
        )

    guess = z + h * evaluate_discrete_lagrangian(system, rule, t, q, q_next, z, z)
    zn, _, _ = newton_solve(residual, np.array([guess]), NewtonConfig(tolerance=1e-13))
    return float(zn[0])


def contact_step(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    lam_prev: Array,
    jacobian: Optional[LUFactors],
    solver: NewtonConfig,
):
    """One implicit contact step; returns
    ``(q_next, z_next, lam, jacobian, iterations)``.

    The initial guess extrapolates the configuration linearly, advances z by
    the previous window's discrete Lagrangian and carries the previous
    multipliers forward.  The window terms are computed once, before Newton.
    ``jacobian`` is the factorization the previous step ended with, or
    ``None``; the one this step ends with is returned for the next.  Fresh
    Jacobians are :func:`contact_jacobian` when the system registers
    Lagrangian gradients, finite differences otherwise.
    """
    w = window
    n, h = system.dim_q, rule.h
    q_guess = 2.0 * w.q_curr - w.q_prev
    z_guess = w.z_curr + h * evaluate_discrete_lagrangian(
        system, rule, w.t_curr - h, w.q_prev, w.q_curr, w.z_prev, w.z_curr
    )
    x0 = np.concatenate([q_guess, [z_guess], lam_prev])
    terms = contact_window_terms(system, rule, window)
    build = None
    if system.lagrangian_gradients is not None:
        def build(u):
            return contact_jacobian(system, rule, window, terms, u)
    x, iterations, jacobian = newton_solve(
        lambda u: contact_residual(system, rule, window, terms, u), x0, solver, jacobian,
        build)
    return x[:n], float(x[n]), x[n + 1:], jacobian, iterations


def project_seed_position(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    q1: Array,
) -> Array:
    """Correct ``q1`` along the constraint-force directions so the discrete
    constraint holds over the seed step.

    The correction is O(h) times the discrete-constraint defect, so a
    second-order-accurate seed stays second order.
    """
    if system.dim_c == 0:
        return q1

    def residual(mu: Array) -> Array:
        a = system.constraint_matrix(q0)
        return discrete_constraint(system, rule, q0, q1 + a.T @ mu)

    mu, _, _ = newton_solve(residual, np.zeros(system.dim_c),
                            NewtonConfig(tolerance=1e-12))
    return q1 + system.constraint_matrix(q0).T @ mu


def initialize_window(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
) -> StepState:
    """Build the first stepping window from ``(q0, v0)`` at ``t = 0``, ``z = 0``.

    ``v0`` is projected onto the constraint set at ``q0``, then
    ``q1 = q0 + h v0 + h^2/2 a0`` with a consistent initial acceleration
    (second-order seed, preserving the scheme's order), and ``z1`` solves
    the discrete action update.
    """
    q0 = np.asarray(q0, dtype=float)
    v = project_velocity(system, q0, np.asarray(v0, dtype=float))
    acc = initial_acceleration(system, q0, v)
    q1 = q0 + rule.h * v + 0.5 * rule.h ** 2 * acc
    q1 = project_seed_position(system, rule, q0, q1)
    z1 = solve_z_update(system, rule, 0.0, q0, q1, 0.0)
    return StepState(q_prev=q0, q_curr=q1, z_prev=0.0, z_curr=z1, t_curr=rule.h)


@dataclass
class StepStats:
    """Per-run Newton bookkeeping, reported by the CLI summary."""

    total_iterations: int = 0
    max_iterations: int = 0
    steps: int = 0

    def record(self, iterations: int) -> None:
        self.total_iterations += iterations
        self.max_iterations = max(self.max_iterations, iterations)
        self.steps += 1


def run_steps(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
    n_steps: int,
    seed: Callable[..., StepState],
    step: Callable,
    solver: NewtonConfig,
    stats: Optional[StepStats] = None,
) -> Trajectory:
    """Integrate ``n_steps`` two-point steps from ``(q0, v0)`` at ``t = 0``.

    ``seed(system, rule, q0, v0)`` builds the first window, which
    takes step 1; ``step(system, rule, window, lam, jacobian, solver)`` takes
    each later step from the previous multipliers and Newton factorization
    and returns ``(q_next, z_next, lam, jacobian, iterations)``.  Both are
    carried from step to step of this run only; the first step starts without
    a Jacobian.  A numerical failure in either ends the run as a
    ``solver_failure`` at the last accepted step.
    """
    from .analysis import reconstruct_velocities_from_arrays

    n, m, h = system.dim_q, system.dim_c, rule.h
    q0 = np.asarray(q0, dtype=float)

    qs = np.empty((n_steps + 1, n))
    zs = np.empty(n_steps + 1)
    # the seeding step q1 = q0 + h v0 + ... carries no multiplier of its own
    lams = np.zeros((n_steps, m))
    qs[0] = q0
    zs[0] = 0.0
    termination = Termination.done()
    steps_done = 0

    try:
        if n_steps > 0:
            window = seed(system, rule, q0, v0)
            qs[1] = window.q_curr
            zs[1] = window.z_curr
            lam = np.zeros(m)
            jacobian = None
            steps_done = 1
        for j in range(1, n_steps):
            q_next, z_next, lam, jacobian, iters = step(system, rule, window, lam,
                                                        jacobian, solver)
            if stats is not None:
                stats.record(iters)
            qs[j + 1] = q_next
            zs[j + 1] = z_next
            lams[j] = lam
            steps_done = j + 1
            window = StepState(
                q_prev=window.q_curr, q_curr=q_next,
                z_prev=window.z_curr, z_curr=z_next,
                t_curr=window.t_curr + h,
            )
    except (NewtonDivergence, SingularJacobian, DenominatorSingular,
            EvaluationError) as exc:
        termination = Termination.failure(step=steps_done + 1, message=str(exc))

    qs = qs[: steps_done + 1]
    zs = zs[: steps_done + 1]
    lams = lams[:steps_done]
    times = h * np.arange(steps_done + 1)
    if steps_done == 0:
        vels = np.asarray([project_velocity(system, q0, np.asarray(v0, dtype=float))])
    else:
        vels = reconstruct_velocities_from_arrays(qs, h)
    energies = np.array([system.energy(q, v) for q, v in zip(qs, vels)])
    return Trajectory(
        times=times, configurations=qs, velocities=vels, z_values=zs,
        multipliers=lams, energies=energies, termination=termination,
    )


def run_contact(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
    n_steps: int,
    solver: NewtonConfig = NewtonConfig(),
    stats: Optional[StepStats] = None,
) -> Trajectory:
    """Integrate ``n_steps`` contact steps from ``(q0, v0)``."""
    return run_steps(system, rule, q0, v0, n_steps, initialize_window,
                     contact_step, solver, stats=stats)


def simulate_contact(
    spec: ExperimentSpec,
    solver: NewtonConfig = NewtonConfig(),
    stats: Optional[StepStats] = None,
) -> Trajectory:
    """Run a catalog experiment with the contact integrator."""
    from .experiments import build_contact_system

    system = build_contact_system(spec)
    n_steps = int(round(spec.t_final / spec.h))
    return run_contact(system, spec.rule, spec.q0, spec.v0, n_steps,
                       solver=solver, stats=stats)
