"""Constrained contact integrator.

One step solves, fully coupled, for the next configuration, the next
accumulated action ``z`` and the constraint multipliers:

* n momentum-balance components
  ``D1 L_d(fwd) + D2 L_d(bwd) * (1 + h D3 L_d(fwd)) / (1 - h D4 L_d(bwd))
  - lambda^T A(q_j)``,
* one action-update component ``z_{j+1} - z_j - h L_d(fwd)``,
* m discrete-constraint components ``A(q_d) qdot_d + b(q_d)``.

Newton solves it with the exact Jacobian of :func:`step_jacobian` (the
multiplier columns, and under the first-order z rule the z column, in
closed form, every other column a complex step) when the system registers
Lagrangian gradients, else with finite differences.

Each residual evaluation is one pass.  The window builds, once per step,
the :func:`~nhcontact.model.step_evaluator` of its forward steps, which
settles the position rule, z rule and gradient choices; each evaluation
then takes the partials, ``L_d`` and the constraint rows from one call of
it, which builds the difference velocity and the evaluation point once and
calls each system callable once per point it samples.

The residual runs on Python numbers.  At four to eight unknowns numpy's
per-call overhead on 2- and 5-vectors and on numpy scalars costs more than
the arithmetic, so the evaluator returns Python numbers and
:func:`contact_residual` a list, which Newton takes as it is.  Each
operation rounds as numpy's elementwise one on the same values: a list
divided by a real number goes through :func:`~nhcontact.model.divide`,
which copies numpy's division (for complex numbers, the product with the
reciprocal).  The products with the constraint matrix, ``A(q_j)^T lambda``
and ``A(q_d) v``, stay numpy's dot, a fused multiply-add chain whose
rounding a Python sum does not match.  So every trajectory is bit for bit
the one of numpy arithmetic.  The complex-step columns of
:func:`step_jacobian` share one complex vector and read the imaginary parts
of the returned lists, bit for bit the column-by-column numpy loop.

Newton starts from one of two predictions.  The linear start, which
:func:`solve_step` builds, extrapolates q linearly, advances z by the
previous window's discrete Lagrangian and carries the multipliers forward.
The quadratic start, which :func:`run_steps` builds from the rows of the
trajectory it fills, extrapolates q and z through the last three points and
the multipliers through the last two.  After each accepted step the driver
checks which of the two came closer to the new q, in the inf-norm, and
starts the next step from that one; it uses the linear start until that
check has been made once.  Extrapolated starts are standard for implicit
steppers (Radau5 starts from its collocation polynomial; Hairer & Wanner,
*Solving ODEs II*, section IV.8).  A quadratic start can put Newton in
reach of another root, or none, where the linear one resolves the step, so
a step whose Newton fails from it is solved again from the linear start.

Consecutive steps share a discrete Lagrangian: the backward step
``(q_{j-1}, q_j)`` of a window is the forward step of the step before,
whose Newton evaluated its last residual at exactly that point.  Each step
therefore hands the next one a :class:`StepCarry`: its Newton factors and
that residual's forward ``D2 L_d``, ``D4 L_d``, ``L_d`` and constraint rows.
The next window takes its backward partials (and the linear start its
``L_d``) from the carry instead of computing them again, when the carry's
``t`` equals the window's ``t_curr - h`` bit for bit, so every trajectory
is bit for bit the one of computing them.  The constraint rows give
:class:`StepStats` the run's worst discrete-constraint residual.

The Lagrange-d'Alembert integrator (:mod:`nhcontact.dalembert`) differs
only in its residual and in having no z unknown.  :func:`run_steps` and
:func:`solve_step` take both as arguments: the residual, and ``with_z``,
whether z is an unknown or stays at zero.  Everything else is shared: the
seed :func:`initialize_window`, the window terms
:func:`contact_window_terms` with their forward evaluator, the step solve
with its Jacobian :func:`step_jacobian`, and the trajectory driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (
    COMPLEX_STEP,
    Array,
    ContactSystem,
    DiscretizationRule,
    EvaluationError,
    StepState,
    Termination,
    Trajectory,
    ZRule,
    discrete_constraint,
    divide,
    evaluate_discrete_lagrangian,
    initial_acceleration,
    partials_of_Ld,
    project_velocity,
    step_evaluator,
)
from .newton import (
    LUFactors,
    NewtonConfig,
    NewtonDivergence,
    SingularJacobian,
    inf_norm,
    newton_solve,
)


class DenominatorSingular(RuntimeError):
    """The implicit z-coupling factor ``1 - h D4 L_d`` is degenerate."""


class StepCarry(NamedTuple):
    """What an accepted step hands to the next step of its run.

    ``factors`` are the Newton factors the step ended with.  The rest are
    by-products of the step's accepted residual, the last one its Newton
    evaluated, on the forward step from ``(t, q_j, z_j)`` to the accepted
    ``(q_{j+1}, z_{j+1})``: ``d2`` and ``d4`` are ``D2 L_d`` and
    ``D4 L_d``, ``ld`` is ``L_d`` (``None`` for the Lagrange-d'Alembert
    residual, which does not evaluate it) and ``constraint`` the residual's
    discrete-constraint rows.
    """

    factors: Optional[LUFactors]
    t: float
    d2: list
    d4: float
    ld: Optional[float]
    constraint: list


def contact_window_terms(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    backward: Optional[StepCarry] = None,
    with_z: bool = True,
):
    """Residual terms fixed by the window for the whole step:
    ``(D2 L_d(bwd), 1 - h D4 L_d(bwd), A(q_j)^T, forward)``.

    ``forward`` is the :func:`~nhcontact.model.step_evaluator` of the
    window's forward steps, from ``(t_j, q_j, z_j)``, z held at zero unless
    ``with_z``, which also has it evaluate ``L_d``.  It returns the
    discrete-constraint rows, taking ``A(q_j)`` from the window where the
    rule samples the constraint at ``q_j``.

    ``backward`` is the carry of the step that produced the window, when
    its forward partials serve as the window's backward ones
    (:func:`solve_step`); they are then taken instead of computed.

    Raises :class:`DenominatorSingular` when the implicit z-coupling factor
    vanishes.
    """
    w = window
    h = rule.h
    if backward is None:
        _, d2b, _, d4b = partials_of_Ld(system, rule, w.t_curr - h, w.q_prev, w.q_curr,
                                        w.z_prev, w.z_curr)
    else:
        d2b, d4b = backward.d2, backward.d4
    denom = 1.0 - h * d4b
    if abs(denom) < 1e-12:
        raise DenominatorSingular(
            f"1 - h*D4 = {denom:.3e} at t={w.t_curr}: implicit z-coupling degenerate"
        )
    a = system.constraint_matrix(w.q_curr)
    forward = step_evaluator(system, rule, w.t_curr, w.q_curr, w.z_curr if with_z else 0.0,
                             with_z, a)
    return d2b, denom, a.T, forward


def contact_residual(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
    keep: Optional[list] = None,
) -> list:
    """Stacked residual at a candidate ``(q_{j+1}, z_{j+1}, lambda)``, a
    list of Python numbers.

    ``terms`` are the window's :func:`contact_window_terms`, whose forward
    evaluator gives the partials, ``L_d`` and constraint rows in one pass.
    A list ``keep`` is set to the forward by-products ``[D2 L_d, D4 L_d,
    L_d, constraint rows]`` of this evaluation, the fields of a
    :class:`StepCarry` after ``t``.

    The rows combine the partials on Python numbers, each operation rounded
    as numpy's elementwise one on the same arrays (:func:`divide` for the
    division), so the residual is bit for bit the one of numpy arrays.  The
    products with the constraint matrix stay numpy's dot, whose rounding a
    Python sum does not match.
    """
    n, h = system.dim_q, rule.h
    z_next = unknowns[n].item()
    d2b, denom, a_t, forward = terms
    _, _, d1f, d2f, d3f, d4f, ld_fwd, constraint = forward(unknowns[:n], z_next)
    # without multipliers the rows subtract 0.0, and x - 0.0 is x, zero signs included
    lam_rows = (a_t @ unknowns[n + 1:]).tolist() if system.dim_c else [0.0] * n
    factor = 1.0 + h * d3f
    momentum = [a + b - c for a, b, c in
                zip(d1f, divide([b * factor for b in d2b], denom), lam_rows)]
    if keep is not None:
        keep[:] = d2f, d4f, ld_fwd, constraint
    return momentum + [z_next - window.z_curr - h * ld_fwd] + constraint


def step_jacobian(
    residual: Callable[[Array], list],
    x: Array,
    a_t: Array,
    rule: DiscretizationRule,
) -> Array:
    """Exact Jacobian at real ``x`` of a step residual whose last ``m``
    unknowns are multipliers entering its first ``n`` rows as
    ``-A(q_j)^T lambda``, ``(n, m)`` the shape of ``a_t = A(q_j)^T``, and
    nowhere else.

    The multiplier columns are ``-a_t`` in those rows and zero below.  A
    z unknown, the one after the ``n`` configurations when ``x`` has
    ``n + 1 + m`` entries, enters under the first-order z rule only its own
    row, as ``z_{j+1}``: its column is then the unit vector ``e_n``.  Every
    other column ``i`` is a complex step of ``residual``, the imaginary
    parts of ``residual(x + i 1e-200 e_i)`` over 1e-200
    (:func:`~nhcontact.model.complex_step`), so the system's callables must
    be complex-safe (:class:`~nhcontact.model.ContactSystem`).  One complex
    vector serves every column: ``x + 0j``, whose real parts are ``x + 0.0``
    as ``x + i 1e-200 e_i`` rounds them, its imaginary part set to 1e-200
    at ``i`` for column ``i`` only.
    """
    k = len(x)
    n, m = a_t.shape
    jac = np.zeros((k, k))
    z_unit = k == n + 1 + m and rule.z_rule is ZRule.FIRST_ORDER
    probe = x + 0j
    imag = probe.imag
    for i in range(k - m):
        if z_unit and i == n:
            jac[n, n] = 1.0
            continue
        imag[i] = COMPLEX_STEP
        jac[:, i] = [r.imag / COMPLEX_STEP for r in residual(probe)]
        imag[i] = 0.0
    jac[:n, k - m:] = -a_t
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


def solve_step(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    residual: Callable,
    with_z: bool,
    lam_prev: Array,
    carry: Optional[StepCarry],
    solver: NewtonConfig,
    start: Optional[list] = None,
):
    """One implicit step of either integrator; returns
    ``(q_next, z_next, lam, carry, iterations)``, ``z_next`` being ``0.0``
    when z is not an unknown (``with_z`` false).

    The step solves ``residual(system, rule, window, terms, u, keep) = 0``
    for ``u = (q_{j+1}, z_{j+1}, lambda)``, without ``z_{j+1}`` unless
    ``with_z``, the window's :func:`contact_window_terms` computed once,
    before Newton.  ``carry`` is the previous step's, or ``None``.  Newton
    starts from its factors; fresh Jacobians are :func:`step_jacobian` when
    the system registers Lagrangian gradients, finite differences otherwise.
    Its forward by-products serve as the window's backward ones
    (``backward``) only when its ``t`` equals the window's ``t_curr - h``
    bit for bit: the driver builds each window from the step before, so
    they are then the values the window would compute, and a ``t_curr``
    accumulated by ``+ h`` that misses by an ulp makes the window compute
    its own.

    Newton starts from ``start``, when given, else from the linear start:
    ``2 q_j - q_{j-1}``, then ``z_j + h L_d`` of the window's backward step
    (the carried ``L_d`` when the carry serves), then ``lam_prev``.  If
    Newton fails from ``start``, the step is solved once more from the
    linear start, with the factors it began with: exactly the solve without
    ``start``.
    """
    w = window
    n, h = system.dim_q, rule.h
    backward = carry if carry is not None and carry.t == w.t_curr - h else None
    terms = contact_window_terms(system, rule, w, backward, with_z)
    factors = None if carry is None else carry.factors
    # newton_solve returns right after evaluating the residual at the
    # solution, so ``keep`` ends with that real evaluation's by-products
    keep = []

    def f(u):
        return residual(system, rule, w, terms, u, keep)

    build = None
    if system.lagrangian_gradients is not None:
        def build(u):
            return step_jacobian(f, u, terms[2], rule)
    solved = None
    if start is not None:
        try:
            solved = newton_solve(f, start, solver, factors, build)
        except (NewtonDivergence, SingularJacobian, EvaluationError):
            pass
    if solved is None:
        # on Python floats, rounding as numpy's elementwise operations do
        linear = [2.0 * c - p for p, c in zip(w.q_prev.tolist(), w.q_curr.tolist())]
        if with_z:
            ld = backward.ld if backward is not None else evaluate_discrete_lagrangian(
                system, rule, w.t_curr - h, w.q_prev, w.q_curr, w.z_prev, w.z_curr)
            linear.append(w.z_curr + h * ld)
        solved = newton_solve(f, linear + lam_prev.tolist(), solver, factors, build)
    x, iterations, factors = solved
    carry = StepCarry(factors, w.t_curr, *keep)
    if with_z:
        return x[:n], float(x[n]), x[n + 1:], carry, iterations
    return x[:n], 0.0, x[n:], carry, iterations


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


def seed_position(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
) -> Array:
    """Second-order seed ``q1`` of either integrator from ``(q0, v0)``.

    ``v0`` is projected onto the constraint set at ``q0``, then
    ``q1 = q0 + h v0 + h^2/2 a0`` with the consistent
    :func:`~nhcontact.model.initial_acceleration` (keeping the scheme's
    order), corrected by :func:`project_seed_position`.
    """
    h = rule.h
    v = project_velocity(system, q0, np.asarray(v0, dtype=float))
    acc = initial_acceleration(system, q0, v)
    return project_seed_position(system, rule, q0, q0 + h * v + 0.5 * h ** 2 * acc)


def initialize_window(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
    with_z: bool = True,
) -> StepState:
    """Build the first stepping window from ``(q0, v0)`` at ``t = 0``, ``z = 0``:
    ``q1`` from :func:`seed_position`, ``z1`` solving the discrete action
    update when z is an unknown (``with_z``), else ``0.0``."""
    q0 = np.asarray(q0, dtype=float)
    q1 = seed_position(system, rule, q0, v0)
    z1 = solve_z_update(system, rule, 0.0, q0, q1, 0.0) if with_z else 0.0
    return StepState(q_prev=q0, q_curr=q1, z_prev=0.0, z_curr=z1, t_curr=rule.h)


@dataclass
class StepStats:
    """Per-run Newton bookkeeping, reported by the CLI summary.

    ``max_constraint`` is the largest inf-norm of the discrete constraint
    over the run's accepted steps, the seed step included.
    """

    total_iterations: int = 0
    max_iterations: int = 0
    steps: int = 0
    max_constraint: float = 0.0

    def record(self, iterations: int, constraint: list) -> None:
        """Count one implicit step and its accepted residual's constraint
        rows."""
        self.total_iterations += iterations
        self.max_iterations = max(self.max_iterations, iterations)
        self.steps += 1
        self.record_constraint(constraint)

    def record_constraint(self, constraint: list) -> None:
        """Take one step's discrete-constraint values, Python floats, into
        ``max_constraint``."""
        self.max_constraint = max(self.max_constraint, inf_norm(constraint))


def run_steps(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
    n_steps: int,
    residual: Callable,
    with_z: bool,
    solver: NewtonConfig,
    stats: Optional[StepStats] = None,
) -> Trajectory:
    """Integrate ``n_steps`` two-point steps of ``residual`` from
    ``(q0, v0)`` at ``t = 0``, z an unknown when ``with_z``.

    :func:`initialize_window` takes step 1; :func:`solve_step` takes each
    later one from the previous multipliers and the previous step's
    :class:`StepCarry`, carried from step to step of this run only.  Once
    ``q_{j-2}`` exists, the quadratic extrapolation of q through
    ``q_{j-2}``, ``q_{j-1}`` and ``q_j`` is built once per step, from the
    trajectory rows already filled.  While it predicted the last step's
    configuration better than the linear ``2 q_j - q_{j-1}``, in the
    inf-norm (so from the third implicit step on at the earliest), Newton
    starts from it, with ``3 z_j - 3 z_{j-1} + z_{j-2}`` (when ``with_z``)
    and ``2 lambda_{j-1} - lambda_{j-2}``; after the step, the accepted q
    settles which start the next one takes.
    ``stats`` takes each step's iterations and constraint rows, and the
    seed step's discrete constraint.  A numerical failure in either ends
    the run as a ``solver_failure`` at the last accepted step.
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
            window = initialize_window(system, rule, q0, v0, with_z)
            qs[1] = window.q_curr
            zs[1] = window.z_curr
            carry = None
            quadratic = False
            steps_done = 1
            if stats is not None and m:
                stats.record_constraint(discrete_constraint(system, rule, q0, window.q_curr))
        for j in range(1, n_steps):
            w = window
            predicted = start = None
            if j > 1:
                # on Python floats, rounding as numpy's elementwise operations do
                q_prev, q_curr = w.q_prev.tolist(), w.q_curr.tolist()
                predicted = [3.0 * (c - p) + b
                             for p, c, b in zip(q_prev, q_curr, qs[j - 2].tolist())]
                if quadratic:
                    z_start = [3.0 * (w.z_curr - w.z_prev) + float(zs[j - 2])] if with_z else []
                    start = predicted + z_start + [
                        2.0 * c - p for p, c in zip(lams[j - 2].tolist(), lams[j - 1].tolist())]
            q_next, z_next, lams[j], carry, iters = solve_step(
                system, rule, w, residual, with_z, lams[j - 1], carry, solver, start)
            if stats is not None:
                stats.record(iters, carry.constraint)
            qs[j + 1] = q_next
            zs[j + 1] = z_next
            steps_done = j + 1
            if predicted is not None:
                accepted = q_next.tolist()
                quadratic = inf_norm([a - b for a, b in zip(predicted, accepted)]) < inf_norm(
                    [2.0 * c - p - b for p, c, b in zip(q_prev, q_curr, accepted)])
            window = StepState(q_prev=w.q_curr, q_curr=q_next, z_prev=w.z_curr,
                               z_curr=z_next, t_curr=w.t_curr + h)
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
    return run_steps(system, rule, q0, v0, n_steps, contact_residual, True, solver, stats)
