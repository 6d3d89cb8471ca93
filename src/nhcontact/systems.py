"""The two benchmark systems: a Foucault pendulum with Rayleigh dissipation
and a falling rolling disk; plus an unconstrained damped oscillator with a
closed-form solution, for order-of-accuracy studies.

All are provided as :class:`~nhcontact.model.ContactSystem` instances with
analytic Lagrangian gradients.

The Foucault and disk callables compute on Python numbers: one ``tolist()``
per argument, then ``math``, or ``cmath`` for the complex arguments of a
complex step.  Each call picks its sine, cosine and squaring rule once per
argument type (:func:`_trig`, :func:`_square_rule`), not once per
operation.  At two to five coordinates numpy's per-call overhead on small
arrays and numpy scalars costs more than the arithmetic.  Each operation
rounds as numpy's scalar one on the same values, infinities and NaN
included, so the callables return bit for bit what numpy arithmetic would;
the disk's ``F(t) . q`` is the kernel's left-to-right sum
(:func:`~nhcontact.model.dot`).

The Foucault gradients, constraint offset and external force and the disk
gradients return lists of Python numbers, which the step kernel takes as
they are; the :class:`~nhcontact.model.ContactSystem` contract accepts any
sequence of numbers there.  The constraint matrices stay numpy arrays, as
the contract asks, and every callable still receives numpy arrays.  The
damped oscillator stays on numpy arrays throughout, the in-package example
of array returns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import Array, ContactSystem, dot

#: Sidereal rotation rate of the Earth (rad/s).
EARTH_ROTATION_RATE = 7.2921159e-5

GRAVITY = 9.81


def _zeros5(t: float) -> Array:
    return np.zeros(5)


def _nan(x):
    """NaN of ``x``'s type, numpy's sine and cosine of an infinity."""
    return x * math.nan


def _trig(x):
    """``(sin, cos)`` to apply to ``x``: :mod:`cmath`'s for a complex
    (:mod:`math` rejects one), else :mod:`math`'s.  Both raise on an
    infinity, where numpy returns NaN, so a non-finite ``x`` gets
    :func:`_nan` instead."""
    if x - x != 0.0:  # inf - inf and NaN are NaN
        return _nan, _nan
    return (cmath.sin, cmath.cos) if isinstance(x, complex) else (math.sin, math.cos)


def _pow2(x):
    try:
        return x ** 2
    except OverflowError:  # numpy's square overflows to inf
        return math.inf


def _mul2(x):
    return x * x


def _square_rule(x):
    """The square of numbers of ``x``'s type, rounded as numpy squares a
    scalar of that type: ``pow`` for a float, one complex product for a
    complex.  Python's complex power multiplies by one more, which rounds
    zero signs otherwise."""
    return _mul2 if isinstance(x, complex) else _pow2


# ---------------------------------------------------------------------------
# Damped harmonic oscillator
# ---------------------------------------------------------------------------

def damped_oscillator(alpha: float = 0.1, omega: float = 1.0) -> ContactSystem:
    """``L = v^2/2 - omega^2 q^2/2 - alpha z``: the Herglotz equations give
    ``qddot + alpha qdot + omega^2 q = 0``."""
    return ContactSystem(
        dim_q=1,
        dim_c=0,
        lagrangian=lambda t, q, v, z: 0.5 * v[0] ** 2
        - 0.5 * omega ** 2 * q[0] ** 2 - alpha * z,
        constraint_matrix=lambda q: np.zeros((0, 1)),
        lagrangian_gradients=lambda t, q, v, z: (-omega ** 2 * q, v.copy(), -alpha),
        energy=lambda q, v: 0.5 * v[0] ** 2 + 0.5 * omega ** 2 * q[0] ** 2,
    )


def damped_oscillator_solution(alpha: float, omega: float, t):
    """Closed-form underdamped solution with ``q(0) = 1``, ``qdot(0) = 0``."""
    wd = np.sqrt(omega ** 2 - alpha ** 2 / 4.0)
    return np.exp(-alpha * t / 2.0) * (np.cos(wd * t)
                                       + (alpha / 2.0) / wd * np.sin(wd * t))


# ---------------------------------------------------------------------------
# Foucault pendulum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoucaultParams:
    m: float = 28.0
    l: float = 67.0
    g: float = GRAVITY
    beta: float = np.deg2rad(49.0)
    Omega: float = EARTH_ROTATION_RATE
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.m <= 0 or self.l <= 0:
            raise ValueError("mass and length must be positive")

    @property
    def omega_vertical(self) -> float:
        """Vertical component magnitude of the Earth rotation, Omega*sin(beta)."""
        return self.Omega * np.sin(self.beta)


def foucault_system(params: FoucaultParams, formulation: str = "herglotz") -> ContactSystem:
    """Planar small-angle pendulum at latitude ``beta`` in the rotating frame.

    The rotating frame couples the two coordinates through the affine
    velocity constraint ``-y xdot + x ydot + Omega sin(beta) (x^2 + y^2) = 0``.
    The ``"herglotz"`` formulation damps through a ``-alpha z`` term in the
    Lagrangian; ``"la"`` uses the external force ``-alpha m qdot`` instead.
    """
    if formulation not in ("herglotz", "la"):
        raise ValueError(f"unknown formulation {formulation!r}")
    # Python floats (omega_vertical is a numpy one), so no product below is
    # numpy's scalar arithmetic
    m, l, g, alpha = (float(v) for v in (params.m, params.l, params.g, params.alpha))
    omega_v = float(params.omega_vertical)
    k_spring = m * g / l
    herglotz = formulation == "herglotz"

    def lagrangian(t, q, qdot, z):
        x, y = q.tolist()
        vx, vy = qdot.tolist()
        square_q, square_v = _square_rule(x), _square_rule(vx)
        value = 0.5 * m * (square_v(vx) + square_v(vy)) \
            - 0.5 * k_spring * (square_q(x) + square_q(y))
        if herglotz:
            value -= alpha * z
        return value

    def gradients(t, q, qdot, z):
        x, y = q.tolist()
        vx, vy = qdot.tolist()
        gz = -alpha if herglotz else 0.0
        return [-k_spring * x, -k_spring * y], [m * vx, m * vy], gz

    def constraint_matrix(q):
        x, y = q.tolist()
        return np.array([[-y, x]])

    def constraint_offset(q):
        x, y = q.tolist()
        square = _square_rule(x)
        return [omega_v * (square(x) + square(y))]

    damping = -alpha * m  # the force -alpha m qdot takes this product first

    def external_force(t, q, qdot):
        return [damping * v for v in qdot.tolist()]

    # "herglotz" keeps the default zero external force
    force = {} if herglotz else {"external_force": external_force}

    def energy(q, qdot):
        x, y = q.tolist()
        vx, vy = qdot.tolist()
        square_q, square_v = _square_rule(x), _square_rule(vx)
        return 0.5 * m * (square_v(vx) + square_v(vy)) \
            + 0.5 * k_spring * (square_q(x) + square_q(y))

    return ContactSystem(
        dim_q=2,
        dim_c=1,
        lagrangian=lagrangian,
        constraint_matrix=constraint_matrix,
        constraint_offset=constraint_offset,
        energy=energy,
        lagrangian_gradients=gradients,
        **force,
    )


def foucault_reference_ode(params: FoucaultParams) -> Callable[[float, Array], Array]:
    """Explicit ODE right-hand side for the damped pendulum in the rotating
    frame, state ``y = (x, y, xdot, ydot)``.

    The multiplier is eliminated by differentiating the affine constraint
    once and solving the resulting scalar equation.
    """
    g_over_l = params.g / params.l
    alpha = params.alpha
    omega_v = params.omega_vertical

    def rhs(t, y):
        x, yy, vx, vy = y
        r2 = x * x + yy * yy
        lam_over_m = -(2.0 * omega_v * (x * vx + yy * vy) + alpha * omega_v * r2) / r2
        ax = -g_over_l * x - alpha * vx - lam_over_m * yy
        ay = -g_over_l * yy - alpha * vy + lam_over_m * x
        return np.array([vx, vy, ax, ay])

    return rhs


def foucault_reference_multiplier(params: FoucaultParams, y: Array) -> float:
    """Constraint multiplier along a reference state ``(x, y, xdot, ydot)``."""
    x, yy, vx, vy = y
    r2 = x * x + yy * yy
    omega_v = params.omega_vertical
    return -params.m * (2.0 * omega_v * (x * vx + yy * vy)
                        + params.alpha * omega_v * r2) / r2


# ---------------------------------------------------------------------------
# Falling rolling disk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskParams:
    """Homogeneous thin disk rolling without slipping on a horizontal plane.

    Coordinates are ``(X, Y, theta, phi, psi)``: contact-plane projection of
    the center, tilt from vertical, heading, and rolling angle.
    """

    m: float = 5.0
    R: float = 0.5
    I_A: Optional[float] = None   # axial moment; default m R^2 / 2
    I_T: Optional[float] = None   # transverse moment; default m R^2 / 4
    g: float = GRAVITY
    alpha: float = 0.0
    forcing: Callable[[float], Array] = _zeros5

    def __post_init__(self) -> None:
        if self.m <= 0 or self.R <= 0:
            raise ValueError("mass and radius must be positive")
        if self.I_A is None:
            object.__setattr__(self, "I_A", 0.5 * self.m * self.R ** 2)
        if self.I_T is None:
            object.__setattr__(self, "I_T", 0.25 * self.m * self.R ** 2)


def _kinetic_energy(params: DiskParams, s, c, qdot: list):
    """Disk kinetic energy from the sine ``s`` and cosine ``c`` of the tilt
    and the rates ``qdot``, Python numbers."""
    m, R, I_A, I_T = params.m, params.R, params.I_A, params.I_T
    dX, dY, dtheta, dphi, dpsi = qdot
    spin = dpsi - dphi * s
    square_q, square_v, square_spin = _square_rule(s), _square_rule(dX), _square_rule(spin)
    return (
        0.5 * m * (square_v(dX) + square_v(dY) + R ** 2 * square_q(s) * square_v(dtheta))
        + 0.5 * (I_A * square_spin(spin)
                 + I_T * (square_v(dtheta) + square_v(dphi) * square_q(c)))
    )


def disk_kinetic_energy(params: DiskParams, q: Array, qdot: Array) -> float:
    sin, cos = _trig(q[2])
    return _kinetic_energy(params, sin(q[2]), cos(q[2]), list(qdot))


def disk_system(params: DiskParams) -> ContactSystem:
    """Falling rolling disk with optional dissipation and generalized forcing.

    The two rolling constraints tie the center velocity to the Euler-angle
    rates; the forcing enters the Lagrangian as ``F(t) . q``.
    """
    m, R, I_A, I_T, g, alpha = (float(v) for v in (params.m, params.R, params.I_A,
                                                   params.I_T, params.g, params.alpha))
    forcing = params.forcing

    def lagrangian(t, q, qdot, z):
        q = q.tolist()
        theta = q[2]
        sin, cos = _trig(theta)
        c = cos(theta)
        return (
            _kinetic_energy(params, sin(theta), c, qdot.tolist())
            - m * g * R * c
            - alpha * z
            + dot(forcing(t).tolist(), q)
        )

    def gradients(t, q, qdot, z):
        theta = q[2].item()
        dX, dY, dtheta, dphi, dpsi = qdot.tolist()
        sin, cos = _trig(theta)
        square_q, square_v = _square_rule(theta), _square_rule(dX)
        s = sin(theta)
        c = cos(theta)
        spin = dpsi - dphi * s
        # F(t) + 0, complex when q or qdot is, as numpy's F + zeros_like(q + qdot)
        zero = 0j if isinstance(theta, complex) or isinstance(dX, complex) else 0.0
        gq = [f + zero for f in forcing(t).tolist()]
        gq[2] += (
            m * R ** 2 * s * c * square_v(dtheta)
            - I_A * spin * dphi * c
            - I_T * square_v(dphi) * c * s
            + m * g * R * s
        )
        gv = [
            m * dX,
            m * dY,
            (m * R ** 2 * square_q(s) + I_T) * dtheta,
            -I_A * spin * s + I_T * dphi * square_q(c),
            I_A * spin,
        ]
        return gq, gv, -alpha

    def constraint_matrix(q):
        _, _, theta, phi, _ = q.tolist()
        sin, cos = _trig(theta)
        st, ct = sin(theta), cos(theta)
        sin, cos = _trig(phi)
        sp, cp = sin(phi), cos(phi)
        return np.array([
            [1.0, 0.0, R * ct * sp, R * st * cp, -R * cp],
            [0.0, 1.0, -R * ct * cp, R * st * sp, -R * sp],
        ])

    def energy(q, qdot):
        theta = q[2].item()
        sin, cos = _trig(theta)
        c = cos(theta)
        return _kinetic_energy(params, sin(theta), c, qdot.tolist()) + m * g * R * c

    return ContactSystem(
        dim_q=5,
        dim_c=2,
        lagrangian=lagrangian,
        constraint_matrix=constraint_matrix,
        energy=energy,
        lagrangian_gradients=gradients,
    )
