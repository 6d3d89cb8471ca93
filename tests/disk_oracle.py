"""Hand-eliminated disk stepper, the tests' independent oracle for the generic engine."""

from __future__ import annotations

import numpy as np

from nhcontact.model import Array
from nhcontact.newton import NewtonConfig, newton_solve
from nhcontact.systems import DiskParams


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
