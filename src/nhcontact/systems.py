"""The two benchmark systems: a Foucault pendulum with Rayleigh dissipation
and a falling rolling disk; plus an unconstrained damped oscillator with a
closed-form solution, for order-of-accuracy studies.

All are provided as :class:`~nhcontact.model.ContactSystem` instances with
analytic Lagrangian gradients.  The disk additionally exposes the
hand-eliminated residual form of its constrained stepping equations, used as
an independent cross-check of the generic engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import Array, ContactSystem
from .newton import NewtonConfig, newton_solve

#: Sidereal rotation rate of the Earth (rad/s).
EARTH_ROTATION_RATE = 7.2921159e-5

GRAVITY = 9.81


def _zeros5(t: float) -> Array:
    return np.zeros(5)


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
    m, l, g, alpha = params.m, params.l, params.g, params.alpha
    omega_v = params.omega_vertical
    k_spring = m * g / l
    herglotz = formulation == "herglotz"

    def lagrangian(t, q, qdot, z):
        value = 0.5 * m * (qdot[0] ** 2 + qdot[1] ** 2) \
            - 0.5 * k_spring * (q[0] ** 2 + q[1] ** 2)
        if herglotz:
            value -= alpha * z
        return value

    def gradients(t, q, qdot, z):
        gq = -k_spring * q
        gv = m * qdot
        gz = -alpha if herglotz else 0.0
        return gq, gv, gz

    def constraint_matrix(q):
        return np.array([[-q[1], q[0]]])

    def constraint_offset(q):
        return np.array([omega_v * (q[0] ** 2 + q[1] ** 2)])

    # "herglotz" keeps the default zero external force
    force = {} if herglotz else {"external_force": lambda t, q, qdot: -alpha * m * qdot}

    def energy(q, qdot):
        return 0.5 * m * (qdot[0] ** 2 + qdot[1] ** 2) \
            + 0.5 * k_spring * (q[0] ** 2 + q[1] ** 2)

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


def disk_kinetic_energy(params: DiskParams, q: Array, qdot: Array) -> float:
    m, R, I_A, I_T = params.m, params.R, params.I_A, params.I_T
    theta = q[2]
    dX, dY, dtheta, dphi, dpsi = qdot
    s = np.sin(theta)
    c = np.cos(theta)
    spin = dpsi - dphi * s
    return (
        0.5 * m * (dX ** 2 + dY ** 2 + R ** 2 * s ** 2 * dtheta ** 2)
        + 0.5 * (I_A * spin ** 2 + I_T * (dtheta ** 2 + dphi ** 2 * c ** 2))
    )


def disk_system(params: DiskParams) -> ContactSystem:
    """Falling rolling disk with optional dissipation and generalized forcing.

    The two rolling constraints tie the center velocity to the Euler-angle
    rates; the forcing enters the Lagrangian as ``F(t) . q``.
    """
    m, R, I_A, I_T, g, alpha = params.m, params.R, params.I_A, params.I_T, params.g, params.alpha
    forcing = params.forcing

    def lagrangian(t, q, qdot, z):
        theta = q[2]
        return (
            disk_kinetic_energy(params, q, qdot)
            - m * g * R * np.cos(theta)
            - alpha * z
            + forcing(t) @ q
        )

    def gradients(t, q, qdot, z):
        theta = q[2]
        dX, dY, dtheta, dphi, dpsi = qdot
        s = np.sin(theta)
        c = np.cos(theta)
        spin = dpsi - dphi * s
        # complex when q or qdot is, so complex-step probes pass through
        gq = np.asarray(forcing(t)) + np.zeros_like(q + qdot)
        gq[2] += (
            m * R ** 2 * s * c * dtheta ** 2
            - I_A * spin * dphi * c
            - I_T * dphi ** 2 * c * s
            + m * g * R * s
        )
        gv = np.array([
            m * dX,
            m * dY,
            (m * R ** 2 * s ** 2 + I_T) * dtheta,
            -I_A * spin * s + I_T * dphi * c ** 2,
            I_A * spin,
        ])
        return gq, gv, -alpha

    def constraint_matrix(q):
        theta, phi = q[2], q[3]
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        return np.array([
            [1.0, 0.0, R * ct * sp, R * st * cp, -R * cp],
            [0.0, 1.0, -R * ct * cp, R * st * sp, -R * sp],
        ])

    def energy(q, qdot):
        return disk_kinetic_energy(params, q, qdot) + m * g * R * np.cos(q[2])

    return ContactSystem(
        dim_q=5,
        dim_c=2,
        lagrangian=lagrangian,
        constraint_matrix=constraint_matrix,
        energy=energy,
        lagrangian_gradients=gradients,
    )


def disk_eliminated_residual(
    params: DiskParams,
    h: float,
    q_prev: Array,
    q_curr: Array,
    q_next: Array,
    t_curr: float,
) -> Array:
    """Hand-eliminated stepping residual for the disk, five components.

    This is the multiplier-free form of the constrained contact step
    (midpoint positions, second-order z handling): one combined
    center/rolling balance, the two discrete rolling constraints at midpoint
    angles, and the tilt and heading balances.  Kept verbatim as an
    independent oracle for the generic engine.
    """
    m, R, I_A, I_T, g, alpha = params.m, params.R, params.I_A, params.I_T, params.g, params.alpha
    FX, FY, Fth, Fph, Fps = params.forcing(t_curr)
    Xm, Ym, thm, phm, psm = q_prev
    Xj, Yj, thj, phj, psj = q_curr
    Xp, Yp, thp, php, psp = q_next
    h2 = h * h

    fac = (alpha * h - 2.0) / (alpha * h + 2.0)
    # forward/backward midpoint angles
    th_f = 0.5 * (thj + thp)
    th_b = 0.5 * (thm + thj)
    ph_f = 0.5 * (phj + php)

    r = np.empty(5)

    # combined X / Y / psi balance
    x_block = (
        0.5 * FX
        - fac * (0.5 * FX - m * (Xm - Xj) / h2)
        + m * (Xj - Xp) / h2
    )
    y_block = (
        0.5 * FY
        - fac * (0.5 * FY - m * (Ym - Yj) / h2)
        + m * (Yj - Yp) / h2
    )
    psi_block = (
        -fac * (0.5 * Fps - I_A / h * ((psm - psj) / h - np.sin(th_b) * (phm - phj) / h))
        + I_A / h * ((psj - psp) / h - np.sin(th_f) * (phj - php) / h)
        + 0.5 * Fps
    )
    r[0] = R * np.cos(phj) * x_block + R * np.sin(phj) * y_block + psi_block

    # discrete rolling constraints at midpoint angles
    r[1] = (
        R * np.cos(ph_f) * (psj - psp) / h
        - (Xj - Xp) / h
        - R * np.cos(ph_f) * np.sin(th_f) * (phj - php) / h
        - R * np.cos(th_f) * np.sin(ph_f) * (thj - thp) / h
    )
    r[2] = (
        R * np.sin(ph_f) * (psj - psp) / h
        - (Yj - Yp) / h
        - R * np.sin(ph_f) * np.sin(th_f) * (phj - php) / h
        + R * np.cos(ph_f) * np.cos(th_f) * (thj - thp) / h
    )

    # tilt balance
    r[3] = (
        Fth / m
        + I_T / m * (2.0 * (thj - thp) / h2
                     - 0.5 * np.sin(thj + thp) * (phj - php) ** 2 / h2)
        + R * g * np.sin(thj)
        + R ** 2 * (np.sin(th_f) ** 2 * 2.0 * (thj - thp) / h2
                    + 0.5 * np.sin(thj + thp) * (thj - thp) ** 2 / h2)
        + fac * (
            I_T / m * (2.0 * (thm - thj) / h2
                       + 0.5 * np.sin(thm + thj) * (phm - phj) ** 2 / h2)
            - Fth / m
            - R * g * np.sin(thj)
            + R ** 2 * (np.sin(th_b) ** 2 * 2.0 * (thm - thj) / h2
                        - 0.5 * np.sin(thm + thj) * (thm - thj) ** 2 / h2)
            + I_A * (phm - phj) / m * np.cos(th_b)
            * ((psm - psj) / h2 - np.sin(th_b) * (phm - phj) / h2)
        )
        + 2.0 * R * np.cos(phj) * np.cos(thj) * (
            0.5 * FY / m - fac * (0.5 * FY / m - (Ym - Yj) / h2) + (Yj - Yp) / h2
        )
        - 2.0 * R * np.cos(thj) * np.sin(phj) * (
            0.5 * FX / m - fac * (0.5 * FX / m - (Xm - Xj) / h2) + (Xj - Xp) / h2
        )
        - I_A * (phj - php) / m * np.cos(th_f)
        * ((psj - psp) / h2 - np.sin(th_f) * (phj - php) / h2)
    )

    # heading balance
    r[4] = (
        0.5 * Fph
        + I_T * np.cos(th_f) ** 2 * (phj - php) / h2
        - fac * (
            0.5 * Fph
            - I_T * np.cos(th_b) ** 2 * (phm - phj) / h2
            + I_A * np.sin(th_b)
            * ((psm - psj) / h2 - np.sin(th_b) * (phm - phj) / h2)
        )
        - R * np.cos(phj) * np.sin(thj) * (
            0.5 * FX - fac * (0.5 * FX - m * (Xm - Xj) / h2) + m * (Xj - Xp) / h2
        )
        - R * np.sin(phj) * np.sin(thj) * (
            0.5 * FY - fac * (0.5 * FY - m * (Ym - Yj) / h2) + m * (Yj - Yp) / h2
        )
        - I_A * np.sin(th_f)
        * ((psj - psp) / h2 - np.sin(th_f) * (phj - php) / h2)
    )
    return r


def disk_eliminated_step(
    params: DiskParams,
    h: float,
    q_prev: Array,
    q_curr: Array,
    t_curr: float,
    solver: NewtonConfig = NewtonConfig(),
) -> Array:
    """Solve the hand-eliminated disk residual for the next configuration."""
    def residual(q_next):
        return disk_eliminated_residual(params, h, q_prev, q_curr, q_next, t_curr)

    guess = 2.0 * q_curr - q_prev
    q_next, _, _ = newton_solve(residual, guess, solver)
    return q_next
