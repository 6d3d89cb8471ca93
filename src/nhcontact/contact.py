"""Constrained contact integrator.

One step solves, fully coupled, for the next configuration, the next
accumulated action ``z`` and the constraint multipliers:

* n momentum-balance components
  ``D1 L_d(fwd) + D2 L_d(bwd) * (1 + h D3 L_d(fwd)) / (1 - h D4 L_d(bwd))
  - lambda^T A(q_j)``,
* one action-update component ``z_{j+1} - z_j - h L_d(fwd)``,
* m discrete-constraint components ``A(q_d) qdot_d + b(q_d)``.

Newton solves it with the exact Jacobian of :func:`step_jacobian` when the
system registers Lagrangian gradients, else with finite differences.  The
exact Jacobian takes the action row and the multiplier columns in closed
form, from the real evaluation at its point, and every other column by
complex step.  One builder serves the contact, Lagrange-d'Alembert and seed
residuals: it builds all the probe vectors of a Jacobian as one complex
matrix and hands it to the residual in one call.  Throughout the step
kernel a 1-D vector of unknowns is one real candidate and a 2-D matrix a
step Jacobian's probes, one per row, so no argument says which.  The
residual computes ``A(q_j)^T lambda`` once, from row 0, and the evaluator
builds the probes' difference velocities and sample points with one numpy
operation each, then runs one loop over the rows that gives at each only
what the columns read: ``D1``, ``D3`` and the constraint rows (the
Lagrange-d'Alembert residual adds the force at the probe's sample point),
never ``D2`` or ``L_d``.  Each probe's row is built inside that loop, and
the matrix is filled once.  At 6 probes a call chain per probe (residual,
evaluator, division, sums) cost about as much as the system callables;
numpy arithmetic on the stacked probes would be slower at 2 probes, the
Foucault pendulum's, so the loop keeps to Python numbers.

Each residual evaluation is one pass.  The window builds, once per step,
the :func:`~nhcontact.model.step_evaluator` of its forward steps, which
settles the position rule, z rule and gradient choices; each evaluation
then takes the partials, ``L_d`` and the constraint rows from one call of
it, which builds the difference velocity and the evaluation point once and
calls each system callable once per point it samples.  A Jacobian's probes
are one call too, with one loop over the probe points.

The residual runs on Python numbers.  At four to eight unknowns numpy's
per-call overhead on 2- and 5-vectors and on numpy scalars costs more than
the arithmetic, so the evaluator returns Python numbers and
:func:`contact_residual` a list, which Newton takes as it is.  Each
elementwise operation rounds as numpy's on the same values: a list divided
by a real number goes through :func:`~nhcontact.model.divide`, which copies
numpy's division (for complex numbers, the product with the reciprocal).
The products with the constraint matrix, ``A(q_j)^T lambda``
(:func:`multiplier_rows`) and ``A(q_d) v``, are the left-to-right sums of
:func:`~nhcontact.model.dot`; the probe loops write the same division and
sums out in place.  The complex-step columns of :func:`step_jacobian` read
the imaginary parts of the returned lists, bit for bit the column-by-column
numpy loop: each probe row of the batched numpy arithmetic rounds as that
loop's single vector does.

Newton starts from one of three predictions, which :func:`run_steps` builds
from the q, z and multiplier histories it keeps.  The linear start
extrapolates q linearly, advances z by the previous window's discrete
Lagrangian and carries the multipliers forward.  The quadratic and cubic
starts extrapolate q and z through the last three and four points and the
multipliers through the last two and three.  After each accepted step the
driver checks which start came closest to the new q, in the inf-norm, and
starts the next step from that one; it uses the linear start until that
check has been made once.  The cubic enters the check only after a step that
Newton resolved within two corrections.  Where the steps are resolved it
predicts best and saves corrections (``foucault-1``: 1.99 Newton iterations
per step from the quadratic start, 1.33 with the cubic); where they are not,
as on ``disk-2.3`` near t = 58 s, whose heading turns by 5 rad a step, a
cubic start that predicted the last step best can still lead Newton to its
iteration cap.  Extrapolated starts are standard for implicit steppers
(Radau5 starts from its collocation polynomial; Hairer & Wanner, *Solving
ODEs II*, section IV.8).  An extrapolated start can put Newton in reach of
another root, or none, where the linear one resolves the step, so the driver
hands :func:`solve_step` the linear start after it, which Newton tries if it
fails from the first.

Every step after the first hands Newton the previous step's factors, so
Newton applies at least one correction before it accepts, even to a start
that already meets its absolute tolerance
(:func:`~nhcontact.newton.newton_solve`).  An error ``dq`` in q shows in the
momentum rows as about ``m/h^2 dq``, but an error in z or in the multipliers
only as itself, so a start that meets the tolerance can still be off in z
and the multipliers by as much as the tolerance.  Accepted unrefined, such
starts let round-off grow: the upright rolling ``disk-1.1`` then tilts by
about 1e-9 instead of staying below 1e-20.

Consecutive steps share a discrete Lagrangian: the backward step
``(q_{j-1}, q_j)`` of a step is the forward step of the step before, which
evaluated it last at exactly that point.  Each step therefore hands
the next one a :class:`StepCarry`: its Newton factors and that evaluation's
forward ``D2 L_d``, ``D4 L_d``, ``L_d`` and constraint rows.  The seed step
makes the first one (:func:`initialize_window`).  It is one more implicit
step, solved by :func:`solve_step` on the exact Jacobian: its rows
(:func:`seed_residual`) project the Taylor point ``q_1`` onto the discrete
constraint and solve the action update for ``z_1``.  So every window, the
one point ``(q_j, z_j, t_j)`` a step starts from, is built alike: it takes
its backward partials (and the linear start its ``L_d``) from the carry and
computes none of them again.  The driver keeps each window's ``t_curr`` on
the grid, ``j h``.  The constraint rows give :class:`StepStats` the run's
worst discrete-constraint residual.

The Lagrange-d'Alembert integrator (:mod:`nhcontact.dalembert`) differs
only in its residual and in having no z unknown.  :func:`run_steps` and
:func:`solve_step` take both as arguments: the residual, and ``with_z``,
whether z is an unknown or stays at zero.  Everything else is shared: the
seed :func:`initialize_window`, the window terms
:func:`contact_window_terms` with their forward evaluator, the step solve
with its Jacobian :func:`step_jacobian`, and the trajectory driver.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .model import (
    COMPLEX_STEP,
    NUMERICAL_FAILURES,
    Array,
    ContactSystem,
    DiscretizationRule,
    SolverFailure,
    StepState,
    Termination,
    Trajectory,
    ZRule,
    divide,
    dot,
    initial_acceleration,
    numbers,
    project_velocity,
    step_evaluator,
)
from .newton import (
    LUFactors,
    NewtonConfig,
    inf_norm,
    newton_solve,
)


class StepCarry(NamedTuple):
    """What a step hands to the next step of its run.

    ``factors`` are the Newton factors the step ended with, ``None`` for
    the seed step, whose Jacobian belongs to its own rows, not to the
    implicit steps'.  The rest are by-products of the step's last evaluation
    on its forward step, from ``(q_j, z_j)`` to the accepted
    ``(q_{j+1}, z_{j+1})``: its accepted residual, the last one its Newton
    evaluated, the seed step's included.  ``d2`` and ``d4`` are ``D2 L_d``
    and ``D4 L_d``, ``ld`` is ``L_d`` (``None`` without z, for the
    Lagrange-d'Alembert integrator, which does not evaluate it) and
    ``constraint`` the discrete-constraint rows.
    """

    factors: Optional[LUFactors]
    d2: list
    d4: float
    ld: Optional[float]
    constraint: list


def contact_window_terms(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    backward: StepCarry,
    with_z: bool = True,
):
    """Residual terms fixed by the window for the whole step:
    ``(D2 L_d(bwd), 1 - h D4 L_d(bwd), A(q_j)^T, forward)``, ``A(q_j)^T``
    as a list of its ``n`` rows of Python numbers, tuples built from the
    rows of ``A(q_j)`` as the system returns them
    (:func:`~nhcontact.model.numbers`), empty at ``m = 0``.

    ``forward`` is the :func:`~nhcontact.model.step_evaluator` of the
    window's forward steps, from ``(t_j, q_j, z_j)``, z held at zero unless
    ``with_z``: it evaluates a real candidate, a 1-D ``q_next``, and a step
    Jacobian's complex probes, a 2-D one.  It returns the
    discrete-constraint rows, taking ``A(q_j)`` from the window where the
    rule samples the constraint at ``q_j``.

    ``backward`` is the carry of the step that produced the window, the
    seed step's for the first window (:func:`initialize_window`): its
    forward partials are the window's backward ones.

    Raises :class:`~nhcontact.model.SolverFailure` when the implicit
    z-coupling factor ``1 - h D4 L_d`` vanishes.
    """
    w = window
    h = rule.h
    d2b, d4b = backward.d2, backward.d4
    denom = 1.0 - h * d4b
    if abs(denom) < 1e-12:
        raise SolverFailure(
            f"1 - h*D4 = {denom:.3e} at t={w.t_curr}: implicit z-coupling degenerate"
        )
    a = numbers(system.constraint_matrix(w.q_curr))
    forward = step_evaluator(system, rule, w.t_curr, w.q_curr, w.z_curr if with_z else 0.0, a)
    # the columns of the rows a; zip(*a) would lose all n of them at m = 0
    a_t = list(zip(*a)) if system.dim_c else [()] * system.dim_q
    return d2b, denom, a_t, forward


def multiplier_rows(a_t: list, lam: list) -> list:
    """``A(q_j)^T lambda`` from the rows ``a_t`` of ``A(q_j)^T`` and the
    multipliers ``lam``, lists of Python numbers: a :func:`dot` per row.
    Without multipliers each row is ``0.0``, which the residual rows then
    subtract: ``x - 0.0`` is ``x``, zero signs included."""
    if not lam:
        return [0.0] * len(a_t)
    return [dot(row, lam) for row in a_t]


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
    :class:`StepCarry` after ``factors``.

    A 2-D ``unknowns`` is all the complex probes of a step Jacobian, one
    per row (:func:`step_jacobian`), and the residual is one list per probe.
    No probe perturbs the multipliers, so ``A(q_j)^T lambda`` is computed
    once, from row 0.  One pass of the forward evaluator over the rows
    gives ``D1``, ``D3`` and the constraint rows alone at each, and each
    probe's momentum rows are built from them, the division by
    ``1 - h D4 L_d`` written out as :func:`divide` computes it.  The action
    row, which no probe reads, leaves out its ``- h L_d``.

    The rows combine the partials on Python numbers, each elementwise
    operation rounded as numpy's on the same arrays (:func:`divide` for the
    division); ``A(q_j)^T lambda`` is :func:`multiplier_rows`.
    """
    n, h = system.dim_q, rule.h
    d2b, denom, a_t, forward = terms
    if unknowns.ndim == 2:
        z_nexts = unknowns[:, n].tolist()
        lam_rows = multiplier_rows(a_t, unknowns[0, n + 1:].tolist())
        z, r, r0 = window.z_curr, 1.0 / denom, 0.0 / denom  # divide's, for denom
        rows = []
        for parts, z_next in zip(forward(unknowns[:, :n], z_nexts), z_nexts):
            factor = 1.0 + h * parts[5]
            # D1 + divide(D2 L_d(bwd) * factor, denom) - A^T lambda, entry by entry
            row = []
            if isinstance(d2b[0] * factor, complex):
                for a, b, c in zip(parts[3], d2b, lam_rows):
                    b *= factor
                    re, im = b.real, b.imag
                    row.append(a + complex((re + im * r0) * r, (im - re * r0) * r) - c)
            else:
                for a, b, c in zip(parts[3], d2b, lam_rows):
                    row.append(a + b * factor / denom - c)
            row.append(z_next - z)
            row += parts[8]
            rows.append(row)
        return rows
    values = unknowns.tolist()
    z_next = values[n]
    lam_rows = multiplier_rows(a_t, values[n + 1:])
    _, _, _, d1f, d2f, d3f, d4f, ld_fwd, constraint = forward(unknowns[:n], z_next, True)
    factor = 1.0 + h * d3f
    momentum = [a + b - c for a, b, c in
                zip(d1f, divide([b * factor for b in d2b], denom), lam_rows)]
    if keep is not None:
        keep[:] = d2f, d4f, ld_fwd, constraint
    return [*momentum, z_next - window.z_curr - h * ld_fwd, *constraint]


def step_jacobian(
    residual: Callable[[Array], list],
    x: Array,
    a_t: list,
    rule: DiscretizationRule,
    action: Optional[tuple] = None,
) -> Array:
    """Exact Jacobian at real ``x`` of a step residual whose last ``m``
    unknowns are multipliers entering its first ``n`` rows as
    ``-A(q_j)^T lambda``, ``a_t = A(q_j)^T`` given as its ``n`` rows of
    ``m`` numbers, and nowhere else.

    The multiplier columns are ``-a_t`` in those rows and zero below.  A
    z unknown, the one after the ``n`` configurations when ``x`` has
    ``n + 1 + m`` entries, comes with the action row
    ``z_{j+1} - z_j - h L_d`` as row ``n``.  That row is in closed form from
    ``action = (D2 L_d, D4 L_d)`` of the real evaluation at ``x``:
    ``-h D2 L_d`` in the q columns, ``1 - h D4 L_d`` in the z column and 0
    in the multiplier columns; the residual's own row ``n`` is not read.
    Under the first-order z rule z enters no other row, so its column is
    not probed.

    Every other column ``i`` is a complex step, the imaginary parts of the
    residual at ``x + i 1e-200 e_i`` over 1e-200
    (:func:`~nhcontact.model.complex_step`), so the system's callables must
    be complex-safe (:class:`~nhcontact.model.ContactSystem`).  The probes
    are built at once, one row each of one complex matrix: ``x + 0j``, whose
    real parts are ``x + 0.0`` as ``x + i 1e-200 e_i`` rounds them, its
    imaginary part 1e-200 at the probed column.  The residual takes all the
    probes in one call, ``residual(probes)``, and returns one list per
    probe, from which the matrix is filled once.
    """
    k, n = len(x), len(a_t)
    m = len(a_t[0])
    with_z = k == n + 1 + m
    # the probed columns are the first c: the z column, when not probed, is
    # the last before the multipliers
    c = k - m - (with_z and rule.z_rule is ZRule.FIRST_ORDER)
    probes = np.zeros((c, k), complex)
    probes += x  # each row x + 0j
    probes.imag.flat[::k + 1] = COMPLEX_STEP  # row i's entry i
    jac = np.zeros((k, k))
    jac[:, :c] = np.array(residual(probes), complex).imag.T / COMPLEX_STEP
    jac[:n, k - m:] = np.negative(a_t)
    if with_z:
        h = rule.h
        d2, d4 = action
        jac[n, :n] = [-h * d for d in d2]
        jac[n, n] = 1.0 - h * d4
    return jac


def solve_step(
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    residual: Callable,
    with_z: bool,
    carry: StepCarry,
    solver: NewtonConfig,
    starts: tuple,
):
    """One implicit step of either integrator; returns
    ``(q_next, z_next, lam, carry, iterations)``, ``z_next`` being ``0.0``
    when z is not an unknown (``with_z`` false).

    The step solves ``residual(system, rule, window, terms, u, keep) = 0``
    for ``u = (q_{j+1}, z_{j+1}, lambda)``, without ``z_{j+1}`` unless
    ``with_z``, the window's :func:`contact_window_terms` computed once,
    before Newton.  ``carry`` is the previous step's, the seed step's for
    the first window.  Newton starts from its factors, if any; fresh
    Jacobians are :func:`step_jacobian` when the system registers Lagrangian
    gradients, finite differences otherwise, each taking its action row from
    the real evaluation at its point.  The carry's forward by-products serve
    as the window's backward ones: the driver builds each window from the
    step before, whose forward step is the window's backward one.

    ``starts`` are the start vectors of ``u``, tried in order, each with
    the factors the step began with, until Newton converges from one; if it
    fails from every start, the last failure is raised.  The callers, which
    keep the trajectory's histories, build them (:func:`run_steps`,
    :func:`initialize_window`).
    """
    w = window
    n = system.dim_q
    terms = contact_window_terms(system, rule, w, carry, with_z)
    # (unknowns, by-products) of the last two real evaluations, newest last.
    # Newton builds a Jacobian at the iterate it evaluated last, or, after a
    # dropped chord iterate, at the one before; it returns right after
    # evaluating the residual at the solution
    kept = deque(maxlen=2)

    def f(u):
        keep = []
        kept.append((u, keep))
        return residual(system, rule, w, terms, u, keep)

    build = None
    if system.lagrangian_gradients is not None:
        def build(u):
            d2, d4, _, _ = next(keep for x, keep in kept if x is u)
            return step_jacobian(lambda probes: residual(system, rule, w, terms, probes),
                                 u, terms[2], rule, (d2, d4))
    last = len(starts) - 1
    for i, start in enumerate(starts):
        try:
            x, iterations, factors = newton_solve(f, start, solver, carry.factors, build)
            break
        except NUMERICAL_FAILURES:
            if i == last:
                raise
    carry = StepCarry(factors, *kept[-1][1])
    if with_z:
        return x[:n], float(x[n]), x[n + 1:], carry, iterations
    return x[:n], 0.0, x[n:], carry, iterations


def seed_residual(
    target: list,
    with_z: bool,
    system: ContactSystem,
    rule: DiscretizationRule,
    window: StepState,
    terms,
    unknowns: Array,
    keep: Optional[list] = None,
) -> list:
    """The seed step's residual at a candidate ``(q1, z1, mu)``, without
    ``z1`` unless ``with_z``, a list of Python numbers:
    ``q1 - target - A(q0)^T mu``, then ``z1 - h L_d`` when ``with_z``, then
    the discrete-constraint rows of the step from ``q0`` to ``q1``.

    ``target`` is the Taylor point as a list of floats, and ``terms`` are
    the :func:`contact_window_terms` of the seed window, ``q0`` and
    ``z = 0`` at ``t = 0``.  ``keep`` and a 2-D ``unknowns`` are as for
    :func:`contact_residual`, ``A(q0)^T mu`` from row 0: the complex probes
    of the step Jacobian read the rows alone, so the evaluator gives them
    the constraint rows and no partials.
    :func:`initialize_window` solves it with ``target`` and ``with_z``
    bound.
    """
    n, h = system.dim_q, rule.h
    _, _, a_t, forward = terms
    if unknowns.ndim == 2:
        q1s = unknowns[:, :n]
        z1s = unknowns[:, n].tolist() if with_z else repeat(0.0)
        mu_rows = multiplier_rows(a_t, unknowns[0, n + with_z:].tolist())
        rows = []
        for (*_, constraint), q1, z1 in zip(forward(q1s, z1s, False, False), q1s.tolist(), z1s):
            row = [x - t - c for x, t, c in zip(q1, target, mu_rows)]
            if with_z:
                row.append(z1)
            rows.append(row + constraint)
        return rows
    q1, z1 = unknowns[:n], unknowns.item(n) if with_z else 0.0
    mu_rows = multiplier_rows(a_t, unknowns[n + with_z:].tolist())
    *_, d2, _, d4, ld, constraint = forward(q1, z1, with_z, keep is not None)
    rows = [x - t - c for x, t, c in zip(q1.tolist(), target, mu_rows)]
    if keep is not None:
        keep[:] = d2, d4, ld, constraint
    if with_z:
        rows.append(z1 - h * ld)
    return rows + constraint


def initialize_window(
    system: ContactSystem,
    rule: DiscretizationRule,
    q0: Array,
    v0: Array,
    with_z: bool = True,
) -> tuple[StepState, StepCarry]:
    """The first window ``(q1, z1, h)`` from ``(q0, v0)`` at ``t = 0``,
    ``z = 0``, and the seed step's :class:`StepCarry`, as ``(window, carry)``.

    ``v0`` is projected onto the constraint set at ``q0``.  The seed step is
    then one more implicit step, solved by :func:`solve_step`, for
    ``(q1, z1, mu)`` (no ``z1`` unless ``with_z``, when it stays ``0.0``):

    * ``q1 - q0 - h v0 - h^2/2 a0 - A(q0)^T mu``, with the acceleration
      ``a0`` of the consistent rates
      :func:`~nhcontact.model.initial_acceleration` (the BDF2 reference
      starts from the same rates), so ``q1`` is the second-order Taylor
      point corrected along the constraint-force directions, by O(h) times
      its discrete-constraint defect, and the scheme keeps its order;
    * the discrete action update ``z1 - h L_d``, when ``with_z``;
    * the discrete constraint of the step from ``q0`` to ``q1``.

    These are the rows of :func:`seed_residual`.  The window terms of the
    seed window, ``q0`` and ``z = 0`` at ``t = 0``, hold ``A(q0)^T`` and the
    step's evaluator from ``(0, q0, 0)``, and the unchanged
    :func:`step_jacobian` is exact for these rows: the multiplier columns
    are ``-A(q0)^T`` and the action row is in closed form.  Newton starts
    from the Taylor point, then, should it fail, from ``2 q0 - q0`` (which
    turns ``-0.0`` into ``0.0``), each followed by zero z and ``mu``.  The
    step's last evaluation, at ``(q1, z1)``, is the carry, without factors,
    so the first implicit step builds a fresh Jacobian: the seed step is the
    first window's backward step, as each implicit step is the next
    window's.
    """
    h, n, m = rule.h, system.dim_q, system.dim_c
    q0 = np.asarray(q0, dtype=float)
    v = project_velocity(system, q0, np.asarray(v0, dtype=float))
    acc = initial_acceleration(system, q0, v)[0]
    # h * h, not h ** 2, which raises OverflowError where numpy gives inf
    target = [x + h * u + 0.5 * (h * h) * a
              for x, u, a in zip(q0.tolist(), v.tolist(), acc.tolist())]

    zeros = [0.0] * (with_z + m)
    starts = target + zeros, [2.0 * c - c for c in q0.tolist()] + zeros
    q1, z1, _, carry, _ = solve_step(
        system, rule, StepState(q0, 0.0, 0.0), partial(seed_residual, target, with_z), with_z,
        StepCarry(None, [0.0] * n, 0.0, 0.0, []), NewtonConfig(tolerance=1e-12), starts)
    return StepState(q1, z1, h), carry._replace(factors=None)


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
    later one from the window ``(q_j, z_j, j h)`` and the previous step's
    :class:`StepCarry`, the seed step's for the first, carried from step to
    step of this run only.  The driver builds the Newton starts from the last
    four accepted q and z and three multipliers, kept as Python floats: the
    linear one is ``2 q_j - q_{j-1}``, ``z_j + h L_d`` of the carry, then
    ``lambda_{j-1}``.  Newton starts each step from the extrapolation
    that predicted the last step's accepted q best, in the inf-norm, among
    the linear one, the quadratic ``3 q_j - 3 q_{j-1} + q_{j-2}`` and, only
    when the last step took at most two Newton iterations, the cubic
    ``4 q_j - 6 q_{j-1} + 4 q_{j-2} - q_{j-3}``; a tie goes to the lower
    order, and the first two implicit steps take the linear start.  The
    quadratic start extrapolates z likewise (when ``with_z``) and the
    multipliers linearly, ``2 lambda_{j-1} - lambda_{j-2}``; the cubic one z
    cubically and the multipliers quadratically, each handed on with the
    linear start after it, and the cubic is built only when it is the start
    or enters the check.
    ``stats`` takes each step's iterations and constraint rows, the seed
    step's from its carry.  A numerical failure in either ends the run as a
    ``solver_failure`` at the last accepted step; a failure of the seed
    step, before the first implicit one, says so by the prefix
    ``seed step: `` of its message.
    """
    from .analysis import reconstruct_velocities_from_arrays

    n, m, h = system.dim_q, system.dim_c, rule.h
    q0 = np.asarray(q0, dtype=float)

    qs = np.empty((n_steps + 1, n))
    zs = np.empty(n_steps + 1)
    # the seed step's multipliers only project q1 and are not recorded
    lams = np.zeros((n_steps, m))
    qs[0] = q0
    zs[0] = 0.0
    termination = Termination.done()
    steps_done = 0

    try:
        if n_steps > 0:
            window, carry = initialize_window(system, rule, q0, v0, with_z)
            qs[1] = window.q_curr
            zs[1] = window.z_curr
            # q_{j-3}, ..., q_j, z_{j-3}, ..., z_j and lambda_{j-3}, ...,
            # lambda_{j-1} as Python floats; order is that of the
            # extrapolation the next step starts from
            qm3 = qm2 = zm3 = zm2 = lm3 = lm2 = None
            qm1, qj = q0.tolist(), window.q_curr.tolist()
            zm1, zj = 0.0, window.z_curr
            lm1 = [0.0] * m
            order = 1
            steps_done = 1
            if stats is not None:
                stats.record_constraint(carry.constraint)
        for j in range(1, n_steps):
            # on Python floats, rounding as numpy's elementwise operations do
            linear = [2.0 * c - p for p, c in zip(qm1, qj)]
            starts = (linear + ([zj + h * carry.ld] if with_z else []) + lm1,)
            if order == 2:
                z_start = [3.0 * (zj - zm1) + zm2] if with_z else []
                starts = ([3.0 * (c - p) + b for b, p, c in zip(qm2, qm1, qj)] + z_start
                          + [2.0 * c - p for p, c in zip(lm2, lm1)], *starts)
            elif order == 3:
                # 4 c - 6 p + 4 b - a, as c plus its first three backward differences
                z_start = [zj + 3.0 * (zj - 2.0 * zm1 + zm2) + (zm2 - zm3)] if with_z else []
                starts = ([c + 3.0 * (c - 2.0 * p + b) + (b - a)
                           for a, b, p, c in zip(qm3, qm2, qm1, qj)] + z_start
                          + [3.0 * (c - p) + b for b, p, c in zip(lm3, lm2, lm1)], *starts)
            q_next, z_next, lams[j], carry, iters = solve_step(
                system, rule, window, residual, with_z, carry, solver, starts)
            if stats is not None:
                stats.record(iters, carry.constraint)
            qs[j + 1] = q_next
            zs[j + 1] = z_next
            steps_done = j + 1
            accepted = q_next.tolist()
            if j > 1:
                # the next start: the extrapolation that came closest to the
                # accepted q, the cubic only after a step resolved within two
                # corrections
                best = inf_norm([c - x for c, x in zip(linear, accepted)])
                error = inf_norm([3.0 * (c - p) + b - x
                                  for b, p, c, x in zip(qm2, qm1, qj, accepted)])
                order = 1
                if error < best:
                    order, best = 2, error
                if iters <= 2 and j > 2 and inf_norm(
                        [c + 3.0 * (c - 2.0 * p + b) + (b - a) - x
                         for a, b, p, c, x in zip(qm3, qm2, qm1, qj, accepted)]) < best:
                    order = 3
            qm3, qm2, qm1, qj = qm2, qm1, qj, accepted
            zm3, zm2, zm1, zj = zm2, zm1, zj, z_next
            lm3, lm2, lm1 = lm2, lm1, lams[j].tolist()
            window = StepState(q_next, z_next, (j + 1) * h)
    except NUMERICAL_FAILURES as exc:
        message = str(exc) if steps_done else f"seed step: {exc}"
        termination = Termination.failure(step=steps_done + 1, message=message)

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
