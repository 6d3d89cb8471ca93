import numpy as np
import pytest

from nhcontact import newton
from nhcontact.model import EvaluationError
from nhcontact.newton import (
    PIVOT_FLOOR,
    NewtonConfig,
    NewtonDivergence,
    SingularJacobian,
    fd_jacobian,
    lu_factor,
    lu_solve,
    newton_solve,
)


def solve_dense(a, rhs):
    return lu_solve(lu_factor(a), rhs)


def reference_solve_dense(a, rhs):
    """Row-equilibrated LU with partial pivoting on numpy arrays, the oracle
    for the Python-float elimination of :func:`lu_factor` and :func:`lu_solve`."""
    a = np.array(a, dtype=float)
    b = np.array(rhs, dtype=float)
    k = a.shape[0]
    scale = np.max(np.abs(a), axis=1)
    scale[scale == 0.0] = 1.0
    a /= scale[:, None]
    b /= scale
    for col in range(k):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[p, col]) < PIVOT_FLOOR:
            raise SingularJacobian(abs(a[p, col]))
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col + 1:] -= np.outer(factors, a[col, col + 1:])
        b[col + 1:] -= factors * b[col]
    x = np.empty(k)
    for row in range(k - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


@pytest.mark.parametrize("k", range(1, 14))
def test_solve_dense_bit_identical_to_numpy_lu(k):
    rng = np.random.default_rng(k)
    for trial in range(60):
        a = rng.normal(size=(k, k))
        if trial % 3 == 1:
            # tied pivots: half-integer entries repeat magnitudes, and the
            # first column is all +-1
            a = np.sign(a) * np.round(np.abs(a) * 2.0 + 1.0) / 2.0
            a[:, 0] = rng.choice([-1.0, 1.0], size=k)
        elif trial % 3 == 2:
            # rows scaled across 24 orders of magnitude
            a *= 10.0 ** rng.uniform(-12.0, 12.0, size=(k, 1))
        b = rng.normal(size=k)
        try:
            expected = reference_solve_dense(a, b)
        except SingularJacobian as exc:
            with pytest.raises(SingularJacobian) as info:
                solve_dense(a, b)
            assert info.value.pivot == exc.pivot
            continue
        assert np.array_equal(solve_dense(a, b), expected)


@pytest.mark.parametrize("gap, singular", [(1e-15, True), (1e-13, False)])
def test_solve_dense_pivot_floor(gap, singular):
    # after elimination the second pivot is about ``gap``
    a = np.array([[1.0, 1.0], [1.0, 1.0 + gap]])
    b = np.array([2.0, 2.0 + gap])
    if singular:
        with pytest.raises(SingularJacobian) as info:
            solve_dense(a, b)
        assert info.value.pivot < PIVOT_FLOOR
    else:
        assert np.array_equal(solve_dense(a, b), reference_solve_dense(a, b))


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
    jac = fd_jacobian(residual, x)
    assert np.allclose(jac, [[3.0, 1.0], [0.0, -3.0]], atol=1e-6)


def test_newton_builds_jacobians_with_given_callable(monkeypatch):
    monkeypatch.setattr(newton, "fd_jacobian", None)  # never called
    built = []

    def exact(x):
        built.append(x.copy())
        return np.array([[2.0 * x[0]]])

    x, iters, _ = newton_solve(lambda x: np.array([x[0] ** 2 - 2.0]), np.array([1.0]),
                               NewtonConfig(tolerance=1e-12), build_jacobian=exact)
    assert x[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert len(built) == iters >= 1


def test_newton_scalar_root():
    x, iters, _ = newton_solve(lambda x: np.array([x[0] ** 2 - 2.0]),
                               np.array([1.0]),
                               NewtonConfig(tolerance=1e-12))
    assert x[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert 1 <= iters <= 8


def test_newton_converged_guess_is_free():
    x, iters, jacobian = newton_solve(lambda x: x - 1.0, np.array([1.0]), NewtonConfig())
    assert iters == 0 and jacobian is None
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


def test_newton_stops_at_non_finite_jacobian():
    # finite at every iterate, NaN only at the backward probe of x = 0
    def residual(x):
        return np.array([x[0] - 1.0 if x[0] >= 0.0 else np.nan])

    with pytest.raises(EvaluationError, match="Jacobian is not finite at Newton iteration 0"):
        newton_solve(residual, np.array([0.0]), NewtonConfig())


def test_newton_chord_iterations_until_they_stop_contracting(monkeypatch):
    builds = []
    monkeypatch.setattr(newton, "fd_jacobian",
                        lambda *args: builds.append(1) or fd_jacobian(*args))

    def residual(x):
        return np.array([x[0] - 1.0, x[1] + 2.0 * x[0]])

    exact = lu_factor(np.array([[1.0, 0.0], [2.0, 1.0]]))
    x, iters, jacobian = newton_solve(residual, np.zeros(2), NewtonConfig(), exact)
    assert np.allclose(x, [1.0, -2.0]) and iters == 1 and jacobian is exact
    assert builds == []
    # factors of twice the Jacobian halve the step: the chord iterate cuts
    # the residual by 1/2 only, so Newton drops it and builds a fresh
    # Jacobian at the guess, which it hands back
    stale = lu_factor(np.array([[2.0, 0.0], [4.0, 2.0]]))
    x, iters, jacobian = newton_solve(residual, np.zeros(2), NewtonConfig(), stale)
    assert np.allclose(x, [1.0, -2.0]) and iters == 2 and len(builds) == 1
    assert np.array_equal(lu_solve(jacobian, [1.0, 0.0]), solve_dense(
        fd_jacobian(residual, np.zeros(2)), [1.0, 0.0]))
    # a chord iterate within the tolerance is kept, however little it cut
    x, iters, jacobian = newton_solve(residual, np.zeros(2), NewtonConfig(tolerance=0.6),
                                      stale)
    assert np.array_equal(x, [0.5, -1.0]) and iters == 1 and jacobian is stale
    assert len(builds) == 1


def test_newton_drops_a_chord_iterate_with_non_finite_residual():
    # the stale factors overshoot to x = 4, where the residual is NaN; Newton
    # goes back to the guess and converges from there with a fresh Jacobian
    def residual(x):
        return np.array([x[0] - 2.0 if x[0] < 3.0 else np.nan])

    stale = lu_factor(np.array([[0.5]]))
    x, iters, _ = newton_solve(residual, np.zeros(1), NewtonConfig(), stale)
    assert x[0] == pytest.approx(2.0) and iters == 2


def test_newton_rejects_bad_config():
    with pytest.raises(ValueError):
        NewtonConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iterations=0)


def test_newton_multivariate_system():
    def residual(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

    x, _, _ = newton_solve(residual, np.array([1.0, 0.5]),
                           NewtonConfig(tolerance=1e-13))
    assert np.allclose(x, np.sqrt(2.0), atol=1e-12)
