import numpy as np
import pytest

from nhcontact.analysis import (
    AlignmentError,
    DegenerateWindow,
    convergence_order,
    oscillation_plane_angle,
    period_averaged,
    principal_axis_angle,
    reconstruct_velocities_from_arrays,
    trajectory_error,
)
from nhcontact.model import Termination, Trajectory


def make_trajectory(times, configurations):
    n = configurations.shape[0]
    return Trajectory(
        times=times,
        configurations=configurations,
        velocities=np.zeros_like(configurations),
        z_values=np.zeros(n),
        multipliers=np.zeros((n - 1, 0)),
        energies=np.zeros(n),
        termination=Termination.done(),
    )


def test_trajectory_error_zero_iff_identical():
    times = np.linspace(0.0, 1.0, 11)
    q = np.column_stack([np.sin(times), np.cos(times)])
    traj = make_trajectory(times, q)
    series = trajectory_error(traj, q.copy())
    assert np.all(series.errors == 0.0)
    series = trajectory_error(traj, q + 1e-3)
    assert np.all(series.errors > 0.0)


def test_trajectory_error_shape_mismatch():
    times = np.linspace(0.0, 1.0, 5)
    traj = make_trajectory(times, np.zeros((5, 2)))
    with pytest.raises(AlignmentError):
        trajectory_error(traj, np.zeros((4, 2)))


def test_velocity_reconstruction_second_order():
    # smooth signal: max error should drop ~4x when h halves
    def worst(h):
        t = np.arange(0.0, 2.0 + h / 2, h)
        q = np.sin(t)[:, None]
        v = reconstruct_velocities_from_arrays(q, h)
        return np.max(np.abs(v[:, 0] - np.cos(t)))

    ratio = worst(0.01) / worst(0.005)
    assert 3.5 < ratio < 4.5


def test_velocity_reconstruction_degenerate_lengths():
    v = reconstruct_velocities_from_arrays(np.array([[1.0]]), 0.1)
    assert v.shape == (1, 1) and v[0, 0] == 0.0
    v = reconstruct_velocities_from_arrays(np.array([[0.0], [1.0]]), 0.5)
    assert np.allclose(v, 2.0)


def test_principal_axis_angle_of_line():
    t = np.linspace(-1.0, 1.0, 50)
    for angle in [0.1, 1.0, 2.5]:
        pts = np.column_stack([t * np.cos(angle), t * np.sin(angle)])
        assert principal_axis_angle(pts) == pytest.approx(angle % np.pi, abs=1e-12)


def test_principal_axis_degenerate_circle():
    t = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t)])
    with pytest.raises(DegenerateWindow):
        principal_axis_angle(pts)


def test_plane_angle_equivariance():
    # rotating the trajectory rotates every window angle by the same amount
    h = 0.01
    times = np.arange(0.0, 20.0, h)
    swing = np.sin(3.0 * times)
    slow = 0.02 * times
    q = np.column_stack([swing * np.cos(slow), swing * np.sin(slow)])
    traj = make_trajectory(times, q)
    _, base = oscillation_plane_angle(traj, 2.0)

    rot = 0.7
    c, s = np.cos(rot), np.sin(rot)
    q_rot = q @ np.array([[c, -s], [s, c]]).T
    traj_rot = make_trajectory(times, q_rot)
    _, rotated = oscillation_plane_angle(traj_rot, 2.0)
    diff = (rotated - base) - rot
    assert np.max(np.abs(diff - np.round(diff / np.pi) * np.pi)) < 1e-10


def test_plane_angle_tracks_precession():
    h = 0.01
    times = np.arange(0.0, 50.0, h)
    rate = 0.01
    swing = np.sin(5.0 * times)
    q = np.column_stack([swing * np.cos(rate * times), swing * np.sin(rate * times)])
    traj = make_trajectory(times, q)
    centers, angles = oscillation_plane_angle(traj, 2.5)
    slope = np.polyfit(centers, angles, 1)[0]
    assert slope == pytest.approx(rate, rel=0.05)


def test_plane_angle_too_short():
    # one row is what a run with t_final = 0, or one whose seed fails, returns
    for rows in (2, 1):
        traj = make_trajectory(0.1 * np.arange(rows), np.zeros((rows, 2)))
        with pytest.raises(ValueError):
            oscillation_plane_angle(traj, 10.0)
    with pytest.raises(ValueError):
        period_averaged(traj.times, traj.energies, 1.0)


def test_convergence_order_exact_power_law():
    hs = np.array([0.1, 0.05, 0.025])
    for p in [1.0, 2.0, 3.7]:
        pairs = [(h, 4.2 * h ** p) for h in hs]
        assert convergence_order(pairs) == pytest.approx(p, abs=1e-10)


def test_convergence_order_needs_two_points():
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1e-3)])
