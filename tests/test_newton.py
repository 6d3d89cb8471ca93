import numpy as np
import pytest

from nhcontact.model import EvaluationError
from nhcontact.newton import (
    NewtonConfig,
    NewtonDivergence,
    SingularJacobian,
    fd_jacobian,
    newton_solve,
    solve_dense,
)


def test_solve_dense_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        assert np.allclose(solve_dense(a, b), np.linalg.solve(a, b))


def test_solve_dense_badly_scaled_rows():
    # equilibration keeps the pivoting sane across 12 orders of magnitude
    a = np.array([[1e12, 2e12], [1.0, 3.0]])
    b = np.array([3e12, 4.0])
    assert np.allclose(solve_dense(a, b), np.linalg.solve(a, b))


def test_solve_dense_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularJacobian) as info:
        solve_dense(a, np.ones(2))
    assert info.value.pivot < 1e-14


def test_fd_jacobian_quadratic():
    def residual(x):
        return np.array([x[0] ** 2 + x[1], 3.0 * x[1] ** 2])

    x = np.array([1.5, -0.5])
    jac = fd_jacobian(residual, x, residual(x))
    assert np.allclose(jac, [[3.0, 1.0], [0.0, -3.0]], atol=1e-6)


def test_newton_scalar_root():
    x, iters = newton_solve(lambda x: np.array([x[0] ** 2 - 2.0]),
                            np.array([1.0]),
                            NewtonConfig(tolerance=1e-12))
    assert x[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert 1 <= iters <= 8


def test_newton_converged_guess_is_free():
    x, iters = newton_solve(lambda x: x - 1.0, np.array([1.0]), NewtonConfig())
    assert iters == 0
    assert x[0] == 1.0


def test_newton_divergence_carries_diagnostics():
    # root-free residual
    with pytest.raises(NewtonDivergence) as info:
        newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]),
                     np.array([1.0]),
                     NewtonConfig(max_iterations=5))
    assert info.value.iterations == 5
    assert info.value.residual_norm >= 1.0


def test_newton_stops_at_first_non_finite_residual():
    # the full step from 0 lands on 2, where the residual is NaN: one
    # evaluation at the guess, two for the Jacobian, one at the step
    calls = []

    def residual(x):
        calls.append(x[0])
        return np.array([x[0] - 2.0 if x[0] < 1.5 else np.nan])

    with pytest.raises(EvaluationError, match="iteration 1"):
        newton_solve(residual, np.array([0.0]), NewtonConfig())
    assert len(calls) == 4


def test_newton_rejects_bad_config():
    with pytest.raises(ValueError):
        NewtonConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iterations=0)


def test_newton_multivariate_system():
    def residual(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

    x, _ = newton_solve(residual, np.array([1.0, 0.5]),
                        NewtonConfig(tolerance=1e-13))
    assert np.allclose(x, np.sqrt(2.0), atol=1e-12)
