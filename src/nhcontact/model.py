"""Core domain types: contact-type Lagrangian systems, discretization rules,
the point each step starts from, and trajectories.

A contact-type Lagrangian ``L(t, q, qdot, z)`` depends on the accumulated
action ``z`` in addition to the usual state, which lets dissipation enter the
dynamics intrinsically.  Velocity-level constraints are kept in affine form
``A(q) qdot + b(q) = 0``; ``b == 0`` recovers the purely linear case.

The discrete Lagrangian of one step is evaluated here, by
:func:`step_evaluator`: it is the only code that turns a
:class:`DiscretizationRule` into sample points, where ``L``, ``A(q)``,
``b(q)`` and the external force are sampled and which ``z`` the Lagrangian
sees.  Made once per step from the step's start, it returns one function,
whose input says what it computes.  At a candidate end point, a 1-D
vector, it gives in one pass that point, the partials ``D1``-``D4``,
``L_d`` and the discrete-constraint rows, each part when asked for.  A 2-D
matrix is the complex probes of a step Jacobian, one per row: one loop over
the rows gives at each only what the Jacobian's columns read.
:func:`partials_of_Ld`, :func:`evaluate_discrete_lagrangian` and
:func:`discrete_constraint` are one-line forms over it, for the
finite-difference partials, the diagnostics and the tests; the integrators
call the evaluator itself.  A system callable may
return its numbers, and ``A(q)`` its rows of numbers, as any sequence
(:class:`ContactSystem`): the kernel takes a list or tuple as it is and
turns only a numpy array into a list (:func:`numbers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

Array = np.ndarray

#: Central finite-difference probe scale (balances truncation and roundoff).
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class SolverFailure(RuntimeError):
    """A numerical failure, which ends a run as a ``solver_failure``."""


#: What every runner catches: also the ``OverflowError`` that float ``**``,
#: :mod:`math` and :mod:`cmath` raise where numpy returns inf.
NUMERICAL_FAILURES = (SolverFailure, ArithmeticError)


class EvaluationError(SolverFailure):
    """A Lagrangian or derivative evaluation produced a non-finite value."""


def central_difference(f: Callable, x, probe: float = SQRT_EPS) -> Array:
    """Central-difference Jacobian of ``f`` at ``x``, in C order.

    Column ``i`` is ``(f(x + e_i) - f(x - e_i)) / (2 e_i)`` with
    ``e_i = probe * max(1, |x_i|)``; a scalar-valued ``f`` gives the gradient.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(len(x)):
        e = probe * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += e
        xm[i] -= e
        columns.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * e))
    return np.stack(columns, axis=-1)


#: Complex-step probe: far below round-off, so the real part of a probed
#: evaluation is the unprobed value and the imaginary part carries no
#: cancellation (Martins, Sturdza & Alonso, ACM TOMS 2003).
COMPLEX_STEP = 1e-200


def complex_step(f: Callable, x, direction) -> Array:
    """Directional derivative of ``f`` at real ``x`` along ``direction``,
    ``imag(f(x + i 1e-200 direction)) / 1e-200``, exact to round-off.

    ``f`` must be complex-safe: it must carry the imaginary part of its
    argument through every operation, never casting it away.
    """
    return np.imag(f(x + 1j * COMPLEX_STEP * direction)) / COMPLEX_STEP


def _zero_offset(q: Array) -> tuple:
    return ()


def _zero_force(t: float, q: Array, qdot: Array) -> Array:
    return np.zeros_like(q)


@dataclass(frozen=True)
class ContactSystem:
    """A mechanical system with a contact-type Lagrangian and affine
    velocity constraints.

    Parameters
    ----------
    dim_q, dim_c:
        Number of configuration coordinates and of constraints.
    lagrangian:
        ``(t, q, qdot, z) -> float``.
    constraint_matrix:
        ``q -> A(q)``, its ``dim_c`` rows of ``dim_q`` numbers each, the
        constraint covectors: a 2-D numpy array or any sequence of rows.
    constraint_offset:
        ``q -> dim_c`` numbers, the affine part ``b(q)``.  Defaults to zero,
        one constant tuple per system.
    external_force:
        ``(t, q, qdot) -> dim_q`` numbers, the covector used by the forced
        (Lagrange-d'Alembert) formulation.  The seed of either integrator
        adds it to the initial acceleration, so pure contact (Herglotz)
        systems leave it zero.
    energy:
        ``(q, qdot) -> float`` diagnostic, kinetic plus potential.
    lagrangian_gradients:
        Optional ``(t, q, qdot, z) -> (dL/dq, dL/dqdot, dL/dz)``, the first
        two ``dim_q`` numbers each, the last one number.  When
        provided, discrete-Lagrangian partials use it via the chain rule
        instead of finite differences, and the step Jacobians and the
        consistent initial rates (:func:`initial_acceleration`) are taken by
        complex step (:func:`complex_step`).  Registering it therefore
        promises that it, ``lagrangian``, ``constraint_matrix``,
        ``constraint_offset`` and ``external_force`` are complex-safe: a
        complex ``q``, ``qdot`` or ``z`` gives a complex result whose
        imaginary part is never dropped.

    The callables receive ``q`` and ``qdot`` as numpy arrays, real or
    complex.  Where numbers, or rows of numbers, are asked for, any
    sequence of them will do: a list, a tuple or a numpy array.  The step
    kernel computes on Python numbers, so a list or tuple is taken as it is
    and only an array costs a ``tolist()`` (:func:`numbers`).  Rows of
    Python numbers should hold one number type each call, as a numpy array
    would: all complex for a complex argument, so that no product in the
    kernel multiplies a float by a complex, whose rounding Python 3.14
    changed.  numpy arithmetic on the arguments is complex-safe as written.
    At a few coordinates it is faster on Python numbers: take
    ``q.tolist()`` and compute with :mod:`math`, switching to :mod:`cmath`
    for a complex argument (``math`` rejects one), and return lists, as the
    built-in systems do (:mod:`nhcontact.systems`).
    """

    dim_q: int
    dim_c: int
    lagrangian: Callable[[float, Array, Array, float], float]
    constraint_matrix: Callable[[Array], Sequence]
    constraint_offset: Callable[[Array], Array] = _zero_offset
    external_force: Callable[[float, Array, Array], Array] = _zero_force
    energy: Callable[[Array, Array], float] = lambda q, qdot: 0.0
    lagrangian_gradients: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.constraint_offset is _zero_offset and self.dim_c:
            zeros = (0.0,) * self.dim_c
            object.__setattr__(self, "constraint_offset", lambda q: zeros)


class PositionRule(Enum):
    """How a pair of configurations maps to an evaluation point.

    LEFT_ENDPOINT evaluates at ``q`` with velocity ``(q' - q)/h``; MIDPOINT
    evaluates at ``(q + q')/2``; TRAPEZOIDAL averages the Lagrangian over both
    endpoints with the same difference velocity.
    """

    LEFT_ENDPOINT = "left"
    MIDPOINT = "midpoint"
    TRAPEZOIDAL = "trapezoidal"


class ZRule(Enum):
    """Whether the discrete Lagrangian sees ``z_j`` only (first order) or the
    average ``(z_j + z_{j+1})/2`` (second order)."""

    FIRST_ORDER = "first"
    SECOND_ORDER = "second"


# the members, for step_evaluator: on Python 3.11 an Enum class attribute
# costs a call of the metaclass's __getattr__ hook
_MIDPOINT, _TRAPEZOIDAL = PositionRule.MIDPOINT, PositionRule.TRAPEZOIDAL
_FIRST_ORDER = ZRule.FIRST_ORDER


@dataclass(frozen=True)
class DiscretizationRule:
    position_rule: PositionRule
    z_rule: ZRule
    h: float

    def __post_init__(self) -> None:
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.h}")


class StepState(NamedTuple):
    """The point ``(q_j, z_j, t_j)`` from which one implicit step is solved;
    its backward step reaches it through :class:`~nhcontact.contact.StepCarry`."""

    q_curr: Array
    z_curr: float
    t_curr: float


@dataclass(frozen=True)
class Termination:
    status: str  # "completed" or "solver_failure"
    step: Optional[int] = None
    message: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @staticmethod
    def done() -> "Termination":
        return Termination(status="completed")

    @staticmethod
    def failure(step: int, message: str) -> "Termination":
        return Termination(status="solver_failure", step=step, message=message)


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid output of a simulation.

    ``velocities`` are finite-difference reconstructions (see
    :mod:`nhcontact.analysis`); ``multipliers`` has one row per accepted step.
    """

    times: Array                  # (N+1,)
    configurations: Array         # (N+1, n)
    velocities: Array             # (N+1, n)
    z_values: Array               # (N+1,)
    multipliers: Array            # (N, m)
    energies: Array               # (N+1,)
    termination: Termination

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


class Integrator(Enum):
    CONTACT = "contact"
    LAGRANGE_DALEMBERT = "la"
    RKF45_REFERENCE = "rkf45"
    IMPLICIT_DAE_REFERENCE = "implicit-dae"


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: system, parameters, initial data and numerics."""

    system_id: str                # "foucault" or "falling-disk"
    parameters: dict
    alpha: float
    forcing: Optional[Callable[[float], Sequence]]  # t -> 5 numbers, the disk's F(t)
    q0: Array
    v0: Array
    t_final: float
    integrator: Integrator
    rule: DiscretizationRule

    @property
    def h(self) -> float:
        """The step size, the rule's."""
        return self.rule.h

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be non-negative and finite, got {self.t_final}")


# ---------------------------------------------------------------------------
# Discrete Lagrangian evaluation
# ---------------------------------------------------------------------------

def numbers(values, ndarray=np.ndarray) -> list:
    """A sequence of numbers, or of rows of numbers, that a system callable
    returned, as Python numbers: a numpy array's ``tolist()``, any other
    sequence as it is.
    (``ndarray`` is bound once: the kernel calls this up to five times per
    evaluation.)"""
    return values.tolist() if isinstance(values, ndarray) else values


def dot(a, b):
    """``a . b`` for sequences of Python numbers of one length, at least 1:
    the products added left to right, starting from the first one, so that
    products that are all ``-0.0`` sum to ``-0.0``.

    Every product with a constraint matrix, ``A v`` and ``A^T lambda``, is
    this sum (:func:`constraint_rows`), so a constraint row carried from one
    step and the same row computed again agree bit for bit.
    """
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total += a[i] * b[i]
    return total


def constraint_rows(a: list, v: list, b: list) -> list:
    """``A v + b`` from the rows ``a`` of ``A``, the velocity ``v`` and the
    offset ``b``, lists of Python numbers: each row's :func:`dot`, then its
    offset added."""
    return [dot(row, v) + y for row, y in zip(a, b)]


def divide(values: list, d: float) -> list:
    """``values / d`` for numbers ``values`` of one type and a real ``d``,
    rounded as numpy divides an array of that type by the scalar ``d``.

    A float array takes true division.  A complex one takes Smith's rule,
    which for a real divisor is ``((re + im r0) r, (im - re r0) r)`` with
    ``r = 1/d`` and ``r0 = 0/d``: the product with the reciprocal, zero
    signs and non-finite parts included.  The complex case is written by
    component, so Python's own complex division, which divides, does not
    enter, nor its mixed-mode rules, which Python 3.14 changed.
    """
    if values and isinstance(values[0], complex):
        r, r0 = 1.0 / d, 0.0 / d
        return [complex((v.real + v.imag * r0) * r, (v.imag - v.real * r0) * r)
                for v in values]
    return [v / d for v in values]


def _partials_fd(system, rule, t, q, q_next, z, z_next, first):
    """Central differences of :func:`evaluate_discrete_lagrangian`; ``D4``
    is 0.0 under the first-order z rule (``first``), where ``L_d`` does not
    see ``z_next``."""
    def ld(qa, qb, za, zb):
        return evaluate_discrete_lagrangian(system, rule, t, qa, qb, za, zb)

    d1 = central_difference(lambda x: ld(x, q_next, z, z_next), q).tolist()
    d2 = central_difference(lambda x: ld(q, x, z, z_next), q_next).tolist()
    d3 = float(central_difference(lambda x: ld(q, q_next, x[0], z_next), [z])[0])
    d4 = 0.0 if first else float(central_difference(lambda x: ld(q, q_next, z, x[0]),
                                                    [z_next])[0])
    return d1, d2, d3, d4


def step_evaluator(
    system: ContactSystem,
    rule: DiscretizationRule,
    t: float,
    q: Array,
    z: float,
    a_q: Optional[list] = None,
) -> Callable:
    """The discrete Lagrangian of the steps from ``(t, q, z)``, as the one
    function ``evaluate(q_next, z_next, with_ld=False, partials=True,
    rows=True)``.  At a real candidate, a 1-D ``q_next``, it returns, in one
    pass, ``(t_d, q_d, v, D1, D2, D3, D4, L_d, constraint)``.  A 2-D
    ``q_next`` is the complex probes of a step Jacobian, one per row, and
    ``z_next`` their ``z_next`` values: it returns one such tuple per row.

    This is the one place that turns the rule into sample points.
    ``(t_d, q_d, v)`` is where the rule samples the Lagrangian, the
    constraint and the external force: the left end ``(t, q)`` for the
    left-endpoint and trapezoidal rules (the trapezoid samples ``L``, but
    not the constraint, at its right end ``(t + h, q_next)`` too, as the
    printed benchmark equations do), the midpoint ``(t + h/2,
    (q + q_next)/2)`` for the midpoint rule, each with the difference
    velocity ``v = (q_next - q)/h``, built once per evaluation, and for all
    the rows of a 2-D ``q_next`` with one numpy operation each, every row
    bit for bit the arithmetic on that row alone.  ``L`` sees ``z`` under
    the first-order z rule and ``(z + z_next)/2`` under the second-order
    one.

    At a real candidate each part is computed only when that call asks for
    it, else ``None``.  ``D1`` and ``D2`` (``partials``) are lists of Python
    numbers, from the system's analytic gradients by the chain rule, or
    central finite differences when it registers none.  ``L_d``
    (``with_ld``) is checked: a non-finite one raises
    :class:`EvaluationError`.  ``constraint`` (``rows``) is the
    discrete-constraint rows ``A(q_d) v + b(q_d)`` (:func:`constraint_rows`),
    a list, ``[]`` without constraints; ``A`` is taken from ``a_q``, when
    given as the rows of ``A(q)`` as Python numbers, where ``q_d`` is
    ``q``.  The partials are not checked for finiteness here: Newton checks
    every residual and Jacobian it is given
    (:func:`nhcontact.newton.newton_solve`).

    The probes of a step Jacobian need registered gradients.  They are one
    loop over the rows that gives at each only what the Jacobian's columns
    read, ``D2``, ``D4`` and ``L_d`` being ``None``: ``D1`` and ``D3``
    (``None`` unless ``partials``) and the constraint rows; ``with_ld`` and
    ``rows`` are not read.  At each row it calls each system callable once,
    and computes ``D1`` and the rows there with :func:`divide`'s division
    and :func:`dot`'s sums written out, so each part is bit for bit that of
    the row's own evaluation.

    Each system callable is called once per point it is sampled at, the
    Lagrangian after its gradients.  The rule, the z rule and whether
    gradients are registered are read here, once for all the evaluations,
    which only test the resulting flags.  The partials combine the
    gradients on Python numbers, each operation rounded as numpy's on the
    same gradient arrays.  The gradients, ``A(q_d)`` and the offset are
    taken as the system returns them, a numpy array costing one
    ``tolist()`` (:func:`numbers`).
    """
    h = rule.h
    mid = rule.position_rule is _MIDPOINT
    trap = rule.position_rule is _TRAPEZOIDAL
    first = rule.z_rule is _FIRST_ORDER
    gradients, lagrangian = system.lagrangian_gradients, system.lagrangian
    t_d = t + 0.5 * h if mid else t
    t_next = t + h
    m = system.dim_c
    matrix, offset = system.constraint_matrix, system.constraint_offset
    a_rows = None
    if a_q is not None and m and not mid:
        a_rows, offset_q = a_q, numbers(offset(q))

    def evaluate(q_next, z_next, with_ld=False, partials=True, rows=True):
        v = (q_next - q) / h
        q_d = 0.5 * (q + q_next) if mid else q
        if q_next.ndim == 2:
            # a step Jacobian's probes: each row rebinds q_next, v, q_d and
            # z_next; divide's reciprocals of h, and whether D1 halves dL/dq
            n, r, r0, half = system.dim_q, 1.0 / h, 0.0 / h, mid or trap
            batch, d1, d3 = [], None, None
            for q_next, v, q_d, v_list, z_next in zip(q_next, v, q_d if mid else repeat(q),
                                                      v.tolist(), z_next):
                if partials:
                    z_d = z if first else 0.5 * (z + z_next)
                    if trap:
                        gq, gv0, gz0 = gradients(t, q, v, z_d)
                        _, gv1, gz1 = gradients(t_next, q_next, v, z_d)
                        gv = [0.5 * (x + y) for x, y in zip(numbers(gv0), numbers(gv1))]
                        gz = 0.5 * (gz0 + gz1)
                    else:
                        gq, gv, gz = gradients(t_d, q_d, v, z_d)
                        gv = numbers(gv)
                    # D1: numbers(gq), halved but at the left end, minus divide(gv, h)
                    d1 = []
                    if isinstance(gv[0], complex):
                        for x, y in zip(numbers(gq), gv):
                            if half:
                                x = 0.5 * x
                            re, im = y.real, y.imag
                            d1.append(x - complex((re + im * r0) * r, (im - re * r0) * r))
                    else:
                        for x, y in zip(numbers(gq), gv):
                            if half:
                                x = 0.5 * x
                            d1.append(x - y / h)
                    d3 = gz if first else 0.5 * gz
                if a_rows is not None:
                    a, b = a_rows, offset_q
                elif m:
                    a, b = numbers(matrix(q_d)), numbers(offset(q_d))
                else:
                    a = b = ()
                # constraint_rows(a, v_list, b)
                constraint = []
                for row, y in zip(a, b):
                    total = row[0] * v_list[0]
                    for i in range(1, n):
                        total += row[i] * v_list[i]
                    constraint.append(total + y)
                batch.append((t_d, q_d, v, d1, None, d3, None, None, constraint))
            return batch
        z_d = z if first else 0.5 * (z + z_next)
        d1 = d2 = d3 = d4 = ld = constraint = None
        if partials and gradients is None:
            d1, d2, d3, d4 = _partials_fd(system, rule, t, q, q_next, z, z_next, first)
        elif partials:
            if trap:
                gq0, gv0, gz0 = gradients(t, q, v, z_d)
                gq1, gv1, gz1 = gradients(t_next, q_next, v, z_d)
                gv_h = divide([0.5 * (x + y) for x, y in zip(numbers(gv0), numbers(gv1))], h)
                d1 = [0.5 * x - y for x, y in zip(numbers(gq0), gv_h)]
                d2 = [0.5 * x + y for x, y in zip(numbers(gq1), gv_h)]
                gz = 0.5 * (gz0 + gz1)
            else:
                gq, gv, gz = gradients(t_d, q_d, v, z_d)
                gv_h = divide(numbers(gv), h)
                if mid:
                    half = [0.5 * x for x in numbers(gq)]
                    d1 = [x - y for x, y in zip(half, gv_h)]
                    d2 = [x + y for x, y in zip(half, gv_h)]
                else:
                    d1 = [x - y for x, y in zip(numbers(gq), gv_h)]
                    d2 = gv_h
            if first:
                d3, d4 = gz, 0.0
            else:
                d3 = d4 = 0.5 * gz
        if with_ld:
            if trap:
                ld = 0.5 * (lagrangian(t, q, v, z_d) + lagrangian(t_next, q_next, v, z_d))
            else:
                ld = lagrangian(t_d, q_d, v, z_d)
            if not math.isfinite(ld.real):
                raise EvaluationError(
                    f"non-finite discrete Lagrangian at t={t}, q={q}, q_next={q_next}, "
                    f"z={z}, z_next={z_next}")
        if rows:
            if a_rows is not None:
                constraint = constraint_rows(a_rows, v.tolist(), offset_q)
            elif m:
                constraint = constraint_rows(numbers(matrix(q_d)), v.tolist(),
                                             numbers(offset(q_d)))
            else:
                constraint = []
        return t_d, q_d, v, d1, d2, d3, d4, ld, constraint

    return evaluate


def evaluate_discrete_lagrangian(
    system: ContactSystem,
    rule: DiscretizationRule,
    t: float,
    q: Array,
    q_next: Array,
    z: float,
    z_next: float,
) -> float:
    """Discrete Lagrangian ``L_d(q, q', z, z')`` over one step starting at
    ``t``; complex when an argument is (see :func:`complex_step`).  It is
    :func:`step_evaluator`'s."""
    evaluate = step_evaluator(system, rule, t, q, z)
    return evaluate(q_next, z_next, with_ld=True, partials=False, rows=False)[7]


def partials_of_Ld(
    system: ContactSystem,
    rule: DiscretizationRule,
    t: float,
    q: Array,
    q_next: Array,
    z: float,
    z_next: float,
):
    """Partial derivatives ``(D1, D2, D3, D4)`` of the discrete Lagrangian
    with respect to its two configuration and two z arguments; ``D1`` and
    ``D2`` are lists of Python numbers.  They are :func:`step_evaluator`'s,
    analytic when the system registers gradients, else finite differences.
    """
    return step_evaluator(system, rule, t, q, z)(q_next, z_next, rows=False)[3:7]


def discrete_constraint(
    system: ContactSystem,
    rule: DiscretizationRule,
    q: Array,
    q_next: Array,
) -> list:
    """Discrete constraint residual ``A(q_d) qdot_d + b(q_d)``, a list of
    Python numbers; it is :func:`step_evaluator`'s."""
    return step_evaluator(system, rule, 0.0, q, 0.0)(q_next, 0.0, partials=False)[8]


def least_squares(a: Array, b: Array) -> Array:
    """Minimal-norm least-squares solution of ``a x = b``; all NaN when
    ``a`` or ``b`` is not finite, where LAPACK's SVD does not converge and
    numpy raises, so that a non-finite state flows on as NaN, as it does
    through numpy's arithmetic, to the finiteness checks of the solvers."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return np.full(a.shape[1:] + b.shape[1:], np.nan)
    return np.linalg.lstsq(a, b, rcond=None)[0]


def initial_acceleration(
    system: ContactSystem,
    q0: Array,
    v0: Array,
) -> tuple[Array, float, Array]:
    """Consistent rates ``(acceleration, zdot, lam)`` at ``(q0, v0)``,
    ``t = z = 0``, from the continuous equations of motion, the external
    force included: they seed the stepping window at second order and the
    implicit reference's state (:func:`~nhcontact.reference.consistent_init`).

    ``zdot`` is ``L``.  The acceleration ``a`` and the multipliers ``lam``
    solve the saddle system ``M a - A^T lam = dL/dq + dL/dz dL/dqdot - pdot
    + F``, ``A a = -drift``, with the mass matrix ``M`` (``dL/dqdot``
    along each unit velocity), the explicit momentum rate ``pdot`` (along
    ``(q, z) -> (v0, zdot)``) and the drift ``d/dt [A(q) v0 + b(q)]`` (along
    ``v0``).  With registered gradients these derivatives are complex steps
    (:func:`complex_step`), exact to round-off; without, central differences
    of the central-difference momentum at the coarser probe ``eps^(1/4)``.
    A ``t`` dependence of the momentum is a real central difference either
    way, the contract not making ``t`` complex-safe; it is 0 where nothing
    depends on ``t``.  The system is affine in ``(a, lam)``, so one solve is
    exact: the product of :func:`~nhcontact.newton.lu_factor`'s inverse and
    the right-hand side.  Redundant constraint rows, which make the system
    singular, are solved by least squares, and a saddle system that is not
    finite gives NaN rates (:func:`least_squares`).
    """
    from .newton import SingularJacobian, lu_factor, lu_solve  # newton imports model

    n, m = system.dim_q, system.dim_c
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    lagrangian, gradients = system.lagrangian, system.lagrangian_gradients
    zdot = float(lagrangian(0.0, q0, v0, 0.0))
    if gradients is not None:
        def momentum(t, q, v, z):
            return gradients(t, q, v, z)[1]

        gq, gv, gz = gradients(0.0, q0, v0, 0.0)
        derivative, probe = complex_step, SQRT_EPS
    else:
        def momentum(t, q, v, z):
            return central_difference(lambda x: lagrangian(t, q, x, z), v)

        gq = central_difference(lambda x: lagrangian(0.0, x, v0, 0.0), q0)
        gv = momentum(0.0, q0, v0, 0.0)
        gz = float(central_difference(lambda x: lagrangian(0.0, q0, v0, x[0]), [0.0])[0])
        # differencing a finite-difference momentum needs a coarser probe,
        # or the inner differencing noise dominates the outer quotient
        probe = float(np.finfo(float).eps ** 0.25)

        def derivative(f, x, direction):
            e = probe / max(1.0, float(np.max(np.abs(direction))))
            return (np.asarray(f(x + e * direction)) - np.asarray(f(x - e * direction))) / (2 * e)

    mass = np.stack([derivative(lambda v: momentum(0.0, q0, v, 0.0), v0, unit)
                     for unit in np.eye(n)], axis=-1)
    pdot = derivative(lambda x: momentum(0.0, x[:n], v0, x[n]),
                      np.append(q0, 0.0), np.append(v0, zdot))
    pdot = pdot + central_difference(lambda t: momentum(t[0], q0, v0, 0.0), [0.0], probe)[:, 0]
    rhs = (np.asarray(gq, dtype=float) + gz * np.asarray(gv, dtype=float) - pdot
           + np.asarray(system.external_force(0.0, q0, v0), dtype=float))

    def matrix(q):
        # (m, n) also for m = 0, whose rows may be []
        return np.asarray(system.constraint_matrix(q)).reshape(m, n)

    a0 = matrix(q0)
    drift = derivative(lambda x: matrix(x) @ v0 + np.asarray(system.constraint_offset(x)),
                       q0, v0)
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = mass
    kkt[:n, n:] = -a0.T
    kkt[n:, :n] = a0
    rhs = np.concatenate([rhs, -drift])
    try:
        u = lu_solve(lu_factor(kkt), rhs)
    except SingularJacobian:
        u = least_squares(kkt, rhs)
    return u[:n], zdot, u[n:]


def project_velocity(system: ContactSystem, q: Array, v: Array) -> Array:
    """Minimal-norm correction of ``v`` onto ``{v : A(q) v + b(q) = 0}``.

    Rank-deficient constraint matrices are handled by least squares.
    """
    if system.dim_c == 0:
        return np.array(v, dtype=float)
    a = np.asarray(system.constraint_matrix(q))
    defect = a @ v + system.constraint_offset(q)
    return v - least_squares(a, defect)
