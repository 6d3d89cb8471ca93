"""Classical reference solvers.

* :func:`rkf45_integrate` — adaptive embedded Runge-Kutta-Fehlberg 4(5) for
  systems reduced to explicit ODE form, with cubic-Hermite dense output.
* :func:`implicit_dae_integrate` — fixed-step BDF2 (BDF1 bootstrap) on a
  fully implicit residual ``G(t, y, ydot) = 0``, standing in for a
  variable-order production DAE solver.
* :func:`consistent_init` — consistent initialization of the implicit form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import (SQRT_EPS, Array, ContactSystem, EvaluationError, central_difference,
                    complex_step, constraint_drift, project_velocity)
from .newton import NewtonConfig, NewtonDivergence, SingularJacobian, newton_solve


class StepSizeUnderflow(RuntimeError):
    """The adaptive controller pushed the step size below its floor."""


class ConsistencyFailure(RuntimeError):
    """Consistent initialization could not reduce the residual far enough."""


# ---------------------------------------------------------------------------
# Explicit adaptive Runge-Kutta-Fehlberg 4(5)
# ---------------------------------------------------------------------------

# Fehlberg tableau.
_RKF_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_RKF_A = [
    np.array([]),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
]
_RKF_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RKF_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])


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
    """Adaptive embedded 4(5) integration of ``ydot = ode(t, y)``.

    Step acceptance uses error-per-unit-step control, so the global error
    scales roughly linearly with the tolerance.  Raises
    :class:`~nhcontact.model.EvaluationError` when an error estimate is not
    finite and :class:`StepSizeUnderflow` when the step size falls below
    ``1e-12`` of the span.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    span = tf - t0
    y = np.array(y0, dtype=float)
    h_min = 1e-12 * span
    h = min(1e-2 * span, 1.0) or span
    d = len(y)

    times = [t0]
    states = [y.copy()]
    derivs = [np.asarray(ode(t0, y), dtype=float)]
    t = t0

    for _ in range(10_000_000):
        if t >= tf:
            break
        h = min(h, tf - t)
        if h < h_min:
            raise StepSizeUnderflow(f"step size {h:.3e} below floor at t={t:.6g}")
        k = np.empty((6, d))
        k[0] = derivs[-1]
        for i in range(1, 6):
            yi = y + h * (_RKF_A[i] @ k[:i])
            k[i] = ode(t + _RKF_C[i] * h, yi)
        y4 = y + h * (_RKF_B4 @ k)
        y5 = y + h * (_RKF_B5 @ k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y4))
        # error per unit step
        err = float(np.max(np.abs(y4 - y5) / scale)) / h
        if not np.isfinite(err):
            # a NaN estimate would be rejected forever with a growing step
            raise EvaluationError(f"rkf45: error estimate {err} at t={t:.6g}")
        if err <= 1.0:
            t += h
            y = y4
            times.append(t)
            states.append(y.copy())
            derivs.append(np.asarray(ode(t, y), dtype=float))
        factor = 0.9 * (1.0 / err) ** 0.25 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    else:
        raise RuntimeError("rkf45: max step count exceeded")

    return DenseTrajectory(
        times=np.array(times),
        states=np.array(states),
        derivatives=np.array(derivs),
    )


# ---------------------------------------------------------------------------
# Implicit DAE reference (fixed-step BDF2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousConstrainedSystem:
    """Fully implicit first-order form ``G(t, y, ydot) = 0`` of a constrained
    contact system, state ``y = (q, qdot, z, lambda)``."""

    dim_q: int
    dim_c: int
    residual: Callable[[float, Array, Array], Array]
    constraint_matrix: Callable[[Array], Array]
    constraint_offset: Callable[[Array], Array]


def make_continuous_system(system: ContactSystem) -> ContinuousConstrainedSystem:
    """Continuous constrained equations of motion in implicit form.

    Rows: ``qdot - v``; the momentum balance
    ``d/dt dL/dqdot - dL/dq - dL/dqdot * dL/dz - A(q)^T lambda``;
    the action rate ``zdot - L``; and the velocity constraints.
    The momentum rate is formed by a complex-step directional derivative of
    the analytic momentum map along ``ydot``.
    """
    if system.lagrangian_gradients is None:
        raise ValueError("continuous form requires analytic Lagrangian gradients")
    n, m = system.dim_q, system.dim_c

    def momentum(t, q, v, z):
        return system.lagrangian_gradients(t, q, v, z)[1]

    def momentum_rate(t, q, v, z, qd, vd):
        # directional derivative of the momentum map along (qd, vd); registered
        # gradients are complex-safe (ContactSystem)
        return complex_step(lambda y: momentum(t, y[:n], y[n:], z),
                            np.concatenate([q, v]), np.concatenate([qd, vd]))

    def residual(t, y, ydot):
        q, v, z = y[:n], y[n:2 * n], y[2 * n]
        lam = y[2 * n + 1:]
        qd, vd = ydot[:n], ydot[n:2 * n]
        zd = ydot[2 * n]

        gq, gv, gz = system.lagrangian_gradients(t, q, v, z)
        p_rate = momentum_rate(t, q, v, z, qd, vd)

        r = np.empty(2 * n + 1 + m)
        r[:n] = qd - v
        r[n:2 * n] = p_rate - gq - gv * gz
        if m:
            r[n:2 * n] -= system.constraint_matrix(q).T @ lam
        r[2 * n] = zd - system.lagrangian(t, q, v, z)
        if m:
            r[2 * n + 1:] = system.constraint_matrix(q) @ v + system.constraint_offset(q)
        return r

    return ContinuousConstrainedSystem(
        dim_q=n,
        dim_c=m,
        residual=residual,
        constraint_matrix=system.constraint_matrix,
        constraint_offset=system.constraint_offset,
    )


def consistent_init(
    system: ContinuousConstrainedSystem,
    q0: Array,
    v0_guess: Array,
):
    """Consistent ``(y0, ydot0)`` for the implicit form at ``t = 0``.

    The velocity guess is projected onto the constraint set; multipliers,
    accelerations and the action rate then solve the momentum rows together
    with the time-differentiated constraints by Gauss-Newton, which stops at
    a residual inf-norm of 1e-11.  Raises :class:`ConsistencyFailure` if a
    Gauss-Newton residual or Jacobian is not finite, or if the residual it
    ends with is not within 1e-8.
    """
    n, m = system.dim_q, system.dim_c
    q0 = np.asarray(q0, dtype=float)
    v0 = project_velocity(system, q0, np.asarray(v0_guess, dtype=float))
    if m:
        # d/dt [A(q) v + b(q)] = 0 pins the accelerations along the constraints
        a0 = system.constraint_matrix(q0)
        drift = constraint_drift(system, q0, v0, SQRT_EPS)

    # unknowns: accelerations (n), zdot (1), multipliers (m)
    def assemble(u):
        acc = u[:n]
        zdot = u[n]
        lam = u[n + 1:]
        y = np.concatenate([q0, v0, [0.0], lam])
        ydot = np.concatenate([v0, acc, [zdot], np.zeros(m)])
        g = system.residual(0.0, y, ydot)
        if m:
            g = np.concatenate([g, a0 @ acc + drift])
        return g

    u = np.zeros(n + 1 + m)
    # Gauss-Newton: the residual is affine in u for mechanical Lagrangians,
    # but finite-difference Jacobian noise makes one correction insufficient
    for _ in range(10):
        g = assemble(u)
        if float(np.max(np.abs(g))) <= 1e-11:
            break
        jac = central_difference(assemble, u)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(jac))):
            raise ConsistencyFailure("non-finite residual or Jacobian in Gauss-Newton")
        du, *_ = np.linalg.lstsq(jac, -g, rcond=None)
        u = u + du

    y0 = np.concatenate([q0, v0, [0.0], u[n + 1:]])
    ydot0 = np.concatenate([v0, u[:n], [u[n]], np.zeros(m)])
    g_final = system.residual(0.0, y0, ydot0)
    if not float(np.max(np.abs(g_final))) <= 1e-8:
        raise ConsistencyFailure(
            f"residual {np.max(np.abs(g_final)):.3e} after least-squares correction"
        )
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
    ended with (see :func:`~nhcontact.newton.newton_solve`).  A
    mid-trajectory Newton failure is recorded (time-stamped) rather than
    raised; the partial trajectory is returned.
    """
    t0, tf = float(t_span[0]), float(t_span[1])
    n_steps = int(round((tf - t0) / h))
    times = [t0]
    states = [np.array(y0, dtype=float)]

    def bdf1_residual(u):
        return system.residual(times[-1] + h, u, (u - states[-1]) / h)

    def bdf2_residual(u):
        ydot = (3.0 * u - 4.0 * states[-1] + states[-2]) / (2.0 * h)
        return system.residual(times[-1] + h, u, ydot)

    jacobian = None
    for step in range(n_steps):
        if step == 0:
            residual = bdf1_residual
            guess = states[-1] + h * ydot0
        else:
            residual = bdf2_residual
            guess = 2.0 * states[-1] - states[-2]
        try:
            y_next, _, jacobian = newton_solve(residual, guess, newton, jacobian)
        except (NewtonDivergence, SingularJacobian, EvaluationError) as exc:
            t_fail = times[-1] + h
            return DAETrajectory(
                times=np.array(times), states=np.array(states), completed=False,
                failure_time=t_fail, failure_message=str(exc),
            )
        times.append(times[-1] + h)
        states.append(y_next)

    return DAETrajectory(times=np.array(times), states=np.array(states), completed=True)
