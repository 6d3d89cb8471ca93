"""Trajectory metrics: reference errors, velocity reconstruction,
oscillation-plane tracking and convergence-order estimation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Array, Trajectory


class AlignmentError(ValueError):
    """Trajectory and reference samples do not share a grid."""


class DegenerateWindow(RuntimeError):
    """Second-moment eigenvalues too close to orient a swing plane."""


@dataclass(frozen=True)
class ErrorSeries:
    times: Array
    errors: Array


def trajectory_error(traj: Trajectory, reference_configurations: Array) -> ErrorSeries:
    """Pointwise Euclidean configuration error against aligned reference samples."""
    ref = np.asarray(reference_configurations, dtype=float)
    if ref.shape != traj.configurations.shape:
        raise AlignmentError(
            f"reference shape {ref.shape} does not match trajectory "
            f"{traj.configurations.shape}"
        )
    errors = np.linalg.norm(traj.configurations - ref, axis=1)
    return ErrorSeries(times=traj.times.copy(), errors=errors)


def reconstruct_velocities_from_arrays(configurations: Array, h: float) -> Array:
    """Finite-difference velocities: central interior, second-order one-sided
    at the endpoints (first-order when only two samples exist)."""
    q = np.asarray(configurations, dtype=float)
    n_pts = q.shape[0]
    v = np.empty_like(q)
    if n_pts == 1:
        v[:] = 0.0
        return v
    if n_pts == 2:
        v[0] = v[1] = (q[1] - q[0]) / h
        return v
    v[1:-1] = (q[2:] - q[:-2]) / (2 * h)
    v[0] = (-3 * q[0] + 4 * q[1] - q[2]) / (2 * h)
    v[-1] = (3 * q[-1] - 4 * q[-2] + q[-3]) / (2 * h)
    return v


def principal_axis_angle(points: Array) -> float:
    """Orientation (mod pi) of the dominant principal axis of a 2-d point cloud."""
    pts = np.asarray(points, dtype=float)
    moments = pts.T @ pts / len(pts)
    evals, evecs = np.linalg.eigh(moments)
    if evals[1] - evals[0] < 1e-12:
        raise DegenerateWindow(
            f"moment eigenvalues {evals[0]:.3e}, {evals[1]:.3e} nearly equal"
        )
    major = evecs[:, 1]
    angle = np.arctan2(major[1], major[0])
    return float(angle % np.pi)


def oscillation_plane_angle(traj: Trajectory, window_seconds: float):
    """Swing-plane orientation per time window, unwrapped modulo pi.

    Returns ``(window_centers, angles)``.  Each window's angle is the
    principal-axis orientation of its ``(x, y)`` samples; consecutive angles
    are unwrapped assuming the per-window rotation stays below pi/2.
    Raises :class:`ValueError` on a trajectory shorter than one window.
    """
    if len(traj.times) < 2:
        raise ValueError("trajectory shorter than one window")
    h = traj.times[1] - traj.times[0]
    per_window = max(2, int(round(window_seconds / h)))
    n_windows = len(traj.times) // per_window
    if n_windows < 1:
        raise ValueError("trajectory shorter than one window")

    centers = np.empty(n_windows)
    angles = np.empty(n_windows)
    for w in range(n_windows):
        sl = slice(w * per_window, (w + 1) * per_window)
        centers[w] = 0.5 * (traj.times[sl][0] + traj.times[sl][-1])
        raw = principal_axis_angle(traj.configurations[sl, :2])
        if w == 0:
            angles[w] = raw
        else:
            prev = angles[w - 1]
            # shift by multiples of pi so the increment lies in (-pi/2, pi/2]
            delta = (raw - prev + np.pi / 2) % np.pi - np.pi / 2
            angles[w] = prev + delta
    return centers, angles


def convergence_order(errors_at_steps: Sequence) -> float:
    """Least-squares slope of log(error) against log(step size)."""
    pairs = np.asarray(list(errors_at_steps), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
        raise ValueError("need at least two (h, error) pairs")
    log_h = np.log(pairs[:, 0])
    log_e = np.log(pairs[:, 1])
    slope, _ = np.polyfit(log_h, log_e, 1)
    return float(slope)


def period_averaged(times: Array, values: Array, period: float) -> tuple:
    """Mean of ``values`` over consecutive windows of one ``period``;
    :class:`ValueError` with fewer than two samples."""
    if len(times) < 2:
        raise ValueError("need at least two samples")
    h = times[1] - times[0]
    per_window = max(1, int(round(period / h)))
    n_windows = len(times) // per_window
    centers = np.empty(n_windows)
    means = np.empty(n_windows)
    for w in range(n_windows):
        sl = slice(w * per_window, (w + 1) * per_window)
        centers[w] = 0.5 * (times[sl][0] + times[sl][-1])
        means[w] = float(np.mean(values[sl]))
    return centers, means
