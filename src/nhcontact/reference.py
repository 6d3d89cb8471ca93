"""Classical reference solvers.

* :func:`rkf45_integrate` — adaptive embedded Runge-Kutta-Fehlberg 4(5) for
  systems reduced to explicit ODE form, with cubic-Hermite dense output.
* :func:`implicit_dae_integrate` — fixed-step BDF2 (BDF1 bootstrap) on a
  fully implicit residual ``G(t, y, ydot) = 0``, standing in for a
  variable-order production DAE solver.
* :func:`consistent_init` — consistent initialization of the implicit form,
  from the rates that seed the variational integrators
  (:func:`~nhcontact.model.initial_acceleration`).

Like the step kernel, both solvers compute on Python floats where numpy's
per-call overhead on vectors of 4 to 13 entries would cost more than the
arithmetic.  RKF45 keeps its state, stages, embedded pair and error estimate
as lists, each tableau sum written out and added left to right, as
:func:`~nhcontact.model.dot` adds it, and hands the right-hand side a numpy
array per stage.  The residual of :func:`make_continuous_system` returns a
list, its products with ``A(q)`` left-to-right sums too.  BDF2's Newton
solves its linear systems, as every Newton does, with LAPACK's inverse
(:func:`~nhcontact.newton.lu_factor`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (COMPLEX_STEP, NUMERICAL_FAILURES, SQRT_EPS, Array, ContactSystem,
                    EvaluationError, SolverFailure, constraint_rows, dot, initial_acceleration,
                    numbers, project_velocity)
from .newton import NewtonConfig, inf_norm, newton_solve


# ---------------------------------------------------------------------------
# Explicit adaptive Runge-Kutta-Fehlberg 4(5)
# ---------------------------------------------------------------------------

# Fehlberg tableau, Python floats: the stage abscissae, each stage's
# weights on the stages before it, and the embedded 4th- and 5th-order weights.
_RKF_C = [0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2]
_RKF_A = [
    [],
    [1 / 4],
    [3 / 32, 9 / 32],
    [1932 / 2197, -7200 / 2197, 7296 / 2197],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
]
_RKF_B4 = [25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0]
_RKF_B5 = [16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55]


#: Step attempts after which :func:`rkf45_integrate` gives up.
_RKF_MAX_STEPS = 10_000_000


def _stage_point(y: list, h: float, weights: list, k: list) -> list:
    """``y + h sum_j weights[j] k[j]`` on lists of floats.

    Each of the tableau's six sum lengths is written out, its products added
    left to right from the first, bit for bit :func:`~nhcontact.model.dot`
    without its per-component loop and call.
    """
    s = len(k)
    if s == 1:
        (w0,), (k0,) = weights, k
        return [yc + h * (w0 * a) for yc, a in zip(y, k0)]
    if s == 2:
        w0, w1 = weights
        return [yc + h * (w0 * a + w1 * b) for yc, a, b in zip(y, *k)]
    if s == 3:
        w0, w1, w2 = weights
        return [yc + h * (w0 * a + w1 * b + w2 * c) for yc, a, b, c in zip(y, *k)]
    if s == 4:
        w0, w1, w2, w3 = weights
        return [yc + h * (w0 * a + w1 * b + w2 * c + w3 * d)
                for yc, a, b, c, d in zip(y, *k)]
    if s == 5:
        w0, w1, w2, w3, w4 = weights
        return [yc + h * (w0 * a + w1 * b + w2 * c + w3 * d + w4 * e)
                for yc, a, b, c, d, e in zip(y, *k)]
    w0, w1, w2, w3, w4, w5 = weights
    return [yc + h * (w0 * a + w1 * b + w2 * c + w3 * d + w4 * e + w5 * f)
            for yc, a, b, c, d, e, f in zip(y, *k)]


@dataclass
class DenseTrajectory:
    """Accepted steps of an adaptive run, with cubic Hermite sampling."""

    times: Array          # (K,)
    states: Array         # (K, d)
    derivatives: Array    # (K, d)

    def sample(self, t: Array) -> Array:
        """Interpolate states at ``t`` (clipped to the covered interval)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        t = np.clip(t, self.times[0], self.times[-1])
        idx = np.searchsorted(self.times, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.times) - 2)
        t0 = self.times[idx]
        dt = self.times[idx + 1] - t0
        s = ((t - t0) / dt)[:, None]
        y0, y1 = self.states[idx], self.states[idx + 1]
        f0, f1 = self.derivatives[idx] * dt[:, None], self.derivatives[idx + 1] * dt[:, None]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s ** 2 * (3 - 2 * s)
        h11 = s ** 2 * (s - 1)
        return h00 * y0 + h10 * f0 + h01 * y1 + h11 * f1


def rkf45_integrate(
    ode: Callable[[float, Array], Array],
    y0: Array,
    t_span: tuple,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
) -> DenseTrajectory:
    """Adaptive embedded 4(5) integration of ``ydot = ode(t, y)``; ``ode``
    receives ``y`` as a numpy array and may return any sequence of numbers.

    Step acceptance uses error-per-unit-step control, so the global error
    scales roughly linearly with the tolerance.  Raises
    :class:`~nhcontact.model.EvaluationError` when an error estimate is not
    finite and :class:`~nhcontact.model.SolverFailure` when the step size
    falls below ``1e-12`` of the span, when the step attempts exceed ten
    million, or as soon as a stiff problem's step is too small to reach the
    end within them.

    The stiffness test is DOPRI5's (Hairer & Wanner, *Solving ODEs II*,
    IV.2): the solution and the fifth stage point both sit at the step's
    end, so their derivatives' distance over their own estimates the
    dominant ``|lambda|``.  It runs every 1000th accepted step, and every
    step from one past ``|h lambda| = 3`` (the propagated solution's real
    stability boundary is 3.02) until 6 in a row are within it.  After 15
    steps past it the step is held by stability and will not grow.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    span = tf - t0
    y = np.array(y0, dtype=float).tolist()
    h_min = 1e-12 * span
    h = min(1e-2 * span, 1.0) or span

    times = [t0]
    states = [y]
    derivs = [numbers(ode(t0, np.array(y)))]
    t = t0
    stiff = calm = 0

    for attempt in range(_RKF_MAX_STEPS):
        if t >= tf:
            break
        h = min(h, tf - t)
        if h < h_min:
            raise SolverFailure(f"step size {h:.3e} below floor at t={t:.6g}")
        k = [derivs[-1]]
        for i in range(1, 6):
            yi = _stage_point(y, h, _RKF_A[i], k)
            k.append(numbers(ode(t + _RKF_C[i] * h, np.array(yi))))
            if i == 4:
                end_stage = yi
        y4 = _stage_point(y, h, _RKF_B4, k)
        y5 = _stage_point(y, h, _RKF_B5, k)
        # error per unit step; inf_norm keeps a NaN ratio, and a zero scale
        # gives inf or NaN as numpy's division would
        ratios = []
        for a, b, c in zip(y, y4, y5):
            scale = abs_tol + rel_tol * max(abs(a), abs(b))
            diff = abs(b - c)
            ratios.append(diff / scale if scale else diff * math.inf)
        err = inf_norm(ratios) / h
        if not math.isfinite(err):
            # a NaN estimate would be rejected forever with a growing step
            raise EvaluationError(f"rkf45: error estimate {err} at t={t:.6g}")
        if err <= 1.0:
            t += h
            y = y4
            times.append(t)
            states.append(y)
            derivs.append(numbers(ode(t, np.array(y))))
            if stiff or (len(times) - 1) % 1000 == 0:
                num = sum((a - b) * (a - b) for a, b in zip(derivs[-1], k[4]))
                den = sum((a - b) * (a - b) for a, b in zip(y, end_stage))
                if den > 0.0 and h * h * num > 9.0 * den:
                    stiff, calm = stiff + 1, 0
                    if stiff >= 15 and tf - t > h * (_RKF_MAX_STEPS - attempt):
                        raise SolverFailure(
                            f"rkf45: stiff at t={t:.6g} (|h lambda| "
                            f"{h * math.sqrt(num / den):.3g}): steps of {h:.3e} cannot "
                            f"reach t={tf:.6g} within {_RKF_MAX_STEPS} steps")
                else:
                    calm += 1
                    if calm == 6:
                        stiff = 0
        factor = 0.9 * (1.0 / err) ** 0.25 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    else:
        raise SolverFailure("rkf45: max step count exceeded")

    return DenseTrajectory(
        times=np.array(times),
        states=np.array(states),
        derivatives=np.array(derivs, dtype=float),
    )


# ---------------------------------------------------------------------------
# Implicit DAE reference (fixed-step BDF2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousConstrainedSystem:
    """Fully implicit first-order form ``G(t, y, ydot) = 0`` of a constrained
    contact system, state ``y = (q, qdot, z, lambda)``.  ``residual`` takes
    numpy arrays and returns its rows as a list of floats or an array.  When
    ``y`` has ``2 dim_q + 1 + dim_c`` entries, :func:`implicit_dae_integrate`
    takes the multipliers to enter only rows ``dim_q`` to ``2 dim_q - 1``, as
    ``-A(q)^T lambda``, as in :func:`make_continuous_system`."""

    dim_q: int
    dim_c: int
    residual: Callable[[float, Array, Array], Array]
    constraint_matrix: Callable[[Array], Sequence]


def make_continuous_system(system: ContactSystem) -> ContinuousConstrainedSystem:
    """Continuous constrained equations of motion in implicit form.

    Rows: ``qdot - v``; the momentum balance
    ``d/dt dL/dqdot - dL/dq - dL/dqdot * dL/dz - A(q)^T lambda``;
    the action rate ``zdot - L``; and the velocity constraints.
    The momentum rate is formed by a complex-step directional derivative of
    the analytic momentum map along ``ydot``.  The residual computes on
    Python numbers and returns a list: one ``A(q)`` per evaluation, whose
    products ``A^T lambda`` and ``A v`` are :func:`~nhcontact.model.dot`
    sums.
    """
    if system.lagrangian_gradients is None:
        raise ValueError("continuous form requires analytic Lagrangian gradients")
    n, m = system.dim_q, system.dim_c
    gradients = system.lagrangian_gradients

    def residual(t, y, ydot):
        q, v = y[:n], y[n:2 * n]
        values, rates = y.tolist(), ydot.tolist()
        velocity, z = values[n:2 * n], values[2 * n]
        gq, gv, gz = gradients(t, q, v, z)
        # the momentum rate: the directional derivative of the momentum map
        # along (qdot, vdot, zdot); registered gradients are complex-safe
        probe = np.array([complex(a, COMPLEX_STEP * d)
                          for a, d in zip(values[:2 * n + 1], rates[:2 * n + 1])])
        p_rate = [p.imag / COMPLEX_STEP for p in numbers(
            gradients(t, probe[:n], probe[n:2 * n], probe[2 * n])[1])]

        momentum = [rate - dq - dv * gz
                    for rate, dq, dv in zip(p_rate, numbers(gq), numbers(gv))]
        if m:
            a_q = numbers(system.constraint_matrix(q))
            lam = values[2 * n + 1:]
            momentum = [p - dot(column, lam) for p, column in zip(momentum, zip(*a_q))]
        r = [qd - vi for qd, vi in zip(rates[:n], velocity)] + momentum
        r.append(rates[2 * n] - system.lagrangian(t, q, v, z))
        if m:
            r += constraint_rows(a_q, velocity, numbers(system.constraint_offset(q)))
        return r

    return ContinuousConstrainedSystem(
        dim_q=n,
        dim_c=m,
        residual=residual,
        constraint_matrix=system.constraint_matrix,
    )


def consistent_init(
    system: ContactSystem,
    q0: Array,
    v0_guess: Array,
):
    """Consistent ``(y0, ydot0)`` at ``t = 0`` for the implicit form of
    ``system`` (:func:`make_continuous_system`).

    The velocity guess is projected onto the constraint set; the
    accelerations, the action rate and the multipliers are then
    :func:`~nhcontact.model.initial_acceleration`'s, the rates that seed the
    variational integrators too.  Raises ``SolverFailure`` if the implicit
    residual at ``(y0, ydot0)`` is not within 1e-8 (the implicit form has no
    external force, so a forced system fails it).
    """
    q0 = np.asarray(q0, dtype=float)
    v0 = project_velocity(system, q0, np.asarray(v0_guess, dtype=float))
    acc, zdot, lam = initial_acceleration(system, q0, v0)
    y0 = np.concatenate([q0, v0, [0.0], lam])
    ydot0 = np.concatenate([v0, acc, [zdot], np.zeros(system.dim_c)])
    residual = inf_norm(make_continuous_system(system).residual(0.0, y0, ydot0))
    if not residual <= 1e-8:
        raise SolverFailure(f"residual {residual:.3e} at the consistent initial rates")
    return y0, ydot0


@dataclass
class DAETrajectory:
    times: Array
    states: Array
    completed: bool
    failure_time: Optional[float] = None
    failure_message: Optional[str] = None


def implicit_dae_integrate(
    system: ContinuousConstrainedSystem,
    y0: Array,
    ydot0: Array,
    t_span: tuple,
    h: float,
    newton: NewtonConfig = NewtonConfig(),
) -> DAETrajectory:
    """Fixed-step BDF2 on ``G(t, y, ydot) = 0``, BDF1 for the first step.

    Each step's Newton starts from the Jacobian factors the previous step
    ended with (see :func:`~nhcontact.newton.newton_solve`).  A fresh
    Jacobian takes forward differences from the residual Newton holds at its
    point, each probe shifting ``y_i`` by ``SQRT_EPS max(1, |y_i|)``.  When
    ``y`` has the layout ``(q, qdot, z, lambda)`` of
    :func:`make_continuous_system`, ``2 n + 1 + m`` entries, only the q,
    qdot and z columns are probed: the multipliers enter the momentum rows
    alone, as ``-A(q)^T lambda``, so their columns are ``-A(q)^T`` there and
    0 elsewhere.  A mid-trajectory Newton failure is recorded (time-stamped)
    rather than raised; the partial trajectory is returned.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    n_steps = int(round((tf - t0) / h))
    times = [t0]
    states = [np.array(y0, dtype=float)]
    n, m = system.dim_q, system.dim_c
    size = len(states[0])
    probed = 2 * n + 1 if size == 2 * n + 1 + m else size

    def evaluate(u):
        if len(states) == 1:
            ydot = (u - states[-1]) / h
        else:
            ydot = (3.0 * u - 4.0 * states[-1] + states[-2]) / (2.0 * h)
        return system.residual(times[-1] + h, u, ydot)

    # (iterate, residual) of Newton's last two evaluations, newest last: it
    # builds a Jacobian at the iterate it evaluated last, or, after a dropped
    # chord iterate, at the one before
    evaluated = deque(maxlen=2)

    def residual(u):
        fx = evaluate(u)
        evaluated.append((u, fx))
        return fx

    def build_jacobian(u):
        fx = np.asarray(next(f for x, f in evaluated if x is u), dtype=float)
        jac = np.zeros((size, size))
        for i in range(probed):
            e = SQRT_EPS * max(1.0, abs(u[i]))
            shifted = u.copy()
            shifted[i] += e
            jac[:, i] = (np.asarray(evaluate(shifted), dtype=float) - fx) / e
        if probed < size:
            jac[n:2 * n, probed:] = -np.asarray(system.constraint_matrix(u[:n])).T
        return jac

    jacobian = None
    for step in range(n_steps):
        guess = states[-1] + h * ydot0 if step == 0 else 2.0 * states[-1] - states[-2]
        try:
            y_next, _, jacobian = newton_solve(residual, guess, newton, jacobian,
                                               build_jacobian)
        except NUMERICAL_FAILURES as exc:
            t_fail = times[-1] + h
            return DAETrajectory(
                times=np.array(times), states=np.array(states), completed=False,
                failure_time=t_fail, failure_message=str(exc),
            )
        times.append(times[-1] + h)
        states.append(y_next)

    return DAETrajectory(times=np.array(times), states=np.array(states), completed=True)
