import warnings

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
    inf_norm,
    lu_factor,
    lu_solve,
    newton_solve,
)


def solve_dense(a, rhs):
    return lu_solve(lu_factor(a), rhs)


def equilibrated(a):
    """``a`` with each row divided by its largest magnitude."""
    return a / np.max(np.abs(a), axis=1, keepdims=True)


@pytest.mark.parametrize("k", range(1, 14))
def test_solve_dense_matches_numpy_solve(k):
    """Random systems, also with tied magnitudes and with rows scaled across
    24 orders of magnitude, against LAPACK's solve of the equilibrated
    system: the two differ by no more than round-off amplified by its
    condition number."""
    rng = np.random.default_rng(k)
    for trial in range(60):
        a = rng.normal(size=(k, k))
        if trial % 3 == 1:
            # tied magnitudes: half-integer entries repeat, and the first
            # column is all +-1
            a = np.sign(a) * np.round(np.abs(a) * 2.0 + 1.0) / 2.0
            a[:, 0] = rng.choice([-1.0, 1.0], size=k)
        elif trial % 3 == 2:
            a *= 10.0 ** rng.uniform(-12.0, 12.0, size=(k, 1))
        b = rng.normal(size=k)
        scaled = equilibrated(a)
        cond = np.linalg.cond(scaled, np.inf)
        if not cond < 1.0 / PIVOT_FLOOR:
            continue
        expected = np.linalg.solve(scaled, b / np.max(np.abs(a), axis=1))
        error = np.max(np.abs(solve_dense(a, b.tolist()) - expected))
        assert error <= 4 * k * np.finfo(float).eps * cond * np.max(np.abs(expected)), (
            trial, cond)


def array_newton_solve(residual, x0, config, jacobian=None, build_jacobian=None):
    """:func:`newton_solve` with each residual kept as a numpy array, the
    oracle for its loop on Python floats; a builder gets the residual's
    array at its point."""
    x = np.array(x0, dtype=float)
    chord = jacobian is not None
    start = None
    for iteration in range(newton.MAX_ITERATIONS + 1):
        fx = np.asarray(residual(x), dtype=float)
        norm = inf_norm(fx)
        if norm <= config.tolerance:
            return x, iteration, jacobian
        if start is not None and not norm <= newton.CHORD_CONTRACTION * start[2]:
            x, fx, norm = start
            chord = False
        start = None
        if not np.isfinite(norm):
            raise EvaluationError(
                f"residual is not finite at Newton iteration {iteration}")
        if iteration < newton.MAX_ITERATIONS:
            if chord:
                start = x, fx, norm
            else:
                jac = (fd_jacobian(residual, x) if build_jacobian is None
                       else build_jacobian(x, fx))
                if not np.all(np.isfinite(jac)):
                    raise EvaluationError(
                        f"Jacobian is not finite at Newton iteration {iteration}")
                jacobian = lu_factor(jac)
            x = x + lu_solve(jacobian, -fx)
    raise NewtonDivergence(newton.MAX_ITERATIONS, norm)


def test_newton_solve_bit_identical_to_array_loop():
    """Same iterates, result, iteration count and final factors, bit for bit,
    on seeded systems of 1 to 13 unknowns: fresh and carried factors, chord
    iterates kept and dropped, non-finite residuals, singular Jacobians."""
    seen = set()
    for k in range(1, 14):
        rng = np.random.default_rng(200 + k)
        for trial in range(48):
            kind = trial % 6
            a = rng.normal(size=(k, k)) + 2.0 * np.eye(k)
            c = rng.normal(size=k)
            x0 = rng.normal(size=k)
            bend = 0.0 if kind == 5 else 0.5
            if kind == 5:  # singular: a repeated row, or a zero 1x1 matrix
                a[-1] = a[0] if k > 1 else 0.0
            bound = np.inf if kind != 4 else 1.5 * (np.max(np.abs(x0)) + 1.0)

            def f(x):
                if np.max(np.abs(x)) > bound:
                    return np.full(k, np.nan)
                return a @ x + bend * np.sin(x) - c

            def jac(x):
                return a + bend * np.diag(np.cos(x))

            def build(x, fx):
                # the residual Newton holds at x, as a list or the oracle's array
                assert np.asarray(fx, dtype=float).tobytes() == f(x).tobytes()
                return jac(x)

            carried = None
            if kind == 2:  # close to the Jacobian: chord iterates are kept
                carried = lu_factor(jac(x0) * (1.0 + 0.02 * rng.normal(size=(k, k))))
            elif kind in (3, 4):  # too large or too small: chord iterates dropped
                carried = lu_factor(jac(x0) * (3.0 if kind == 3 else 0.2))
            builder = build if kind in (1, 2, 4, 5) else None
            outcomes = []
            for solve in (newton_solve, array_newton_solve):
                points = []

                def residual(x):
                    points.append(x.tobytes())
                    return f(x)

                try:
                    x, iters, lu = solve(residual, x0, NewtonConfig(tolerance=1e-10),
                                         carried, builder)
                    factors = lu and lu.inverse.tobytes()
                    outcome = (x.tobytes(), iters, lu is carried, factors)
                    if carried is not None:
                        seen.add("chord kept" if lu is carried else "chord dropped")
                except (NewtonDivergence, SingularJacobian, EvaluationError) as exc:
                    outcome = (type(exc), str(exc))
                    seen.add(type(exc).__name__)
                if bound < np.inf and any(
                        np.max(np.abs(np.frombuffer(p))) > bound for p in points):
                    seen.add("non-finite residual")
                outcomes.append((outcome, points))
            assert outcomes[0] == outcomes[1], (k, trial)
    assert seen >= {"chord kept", "chord dropped", "non-finite residual",
                    "EvaluationError", "SingularJacobian"}, seen


@pytest.mark.parametrize("gap, singular", [(1e-15, True), (1e-13, False)])
def test_solve_dense_pivot_floor(gap, singular):
    # the equilibrated inverse's entries are about 1/gap, as the second pivot
    # of an elimination is about gap
    a = np.array([[1.0, 1.0], [1.0, 1.0 + gap]])
    b = [2.0, 2.0 + gap]
    if singular:
        with pytest.raises(SingularJacobian) as info:
            solve_dense(a, b)
        assert info.value.pivot < PIVOT_FLOOR
    else:
        # condition number about 4/gap: x = (1, 1) to within 1e-2
        assert np.allclose(solve_dense(a, b), [1.0, 1.0], rtol=0.0, atol=1e-2)


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
    rng = np.random.default_rng(3)
    rank_7 = rng.normal(size=(8, 7)) @ rng.normal(size=(7, 8))
    zero_row = rng.normal(size=(5, 5))
    zero_row[2] = 0.0
    for a in (np.array([[1.0, 2.0], [2.0, 4.0]]),  # exactly singular
              rank_7,  # numerically singular: LAPACK finds no zero pivot
              zero_row, np.zeros((1, 1))):
        with pytest.raises(SingularJacobian) as info:
            solve_dense(a, np.ones(len(a)))
        assert info.value.pivot < PIVOT_FLOOR


def pathological_matrices():
    """Matrices at the edges of the float range, singular ones, and ones
    holding inf or NaN, as ``(name, matrix)``."""
    rng = np.random.default_rng(5)
    base = rng.normal(size=(8, 8)) + 4.0 * np.eye(8)
    for value in (np.inf, -np.inf, np.nan):
        for name, where in (("corner", (0, 0)), ("inside", (5, 2))):
            a = base.copy()
            a[where] = value
            yield f"{value} {name}", a
        yield f"all {value}", np.full((3, 3), value)
    yield "2x2 inf", np.array([[np.inf, 1.0], [1.0, 1.0]])
    yield "zeros", np.zeros((4, 4))
    yield "huge", base * 1e307
    yield "tiny", base * 1e-300
    yield "subnormal", base * 1e-310
    yield "huge and tiny rows", base * np.array([[1e300], [1e-300]] * 4)
    yield "repeated row", np.vstack([base[:7], base[:1]])
    yield "empty", np.zeros((0, 0))


def test_non_finite_matrix_never_yields_a_finite_answer():
    # LAPACK inverts [[inf, 1], [1, 1]] into a finite, wrong matrix; a
    # matrix holding inf or NaN is refused before LAPACK sees it
    for name, a in pathological_matrices():
        if np.all(np.isfinite(a)):
            continue
        with pytest.raises(SingularJacobian):
            lu_factor(a)


def test_factoring_raises_only_singular_jacobian():
    # numpy's LinAlgError is a ValueError, which the failure contract keeps
    # for invalid input: it never escapes, and neither does a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, a in pathological_matrices():
            try:
                factors = lu_factor(a)
            except SingularJacobian:
                continue
            assert factors.inverse.shape == a.shape, name
            assert not np.isnan(factors.inverse).any(), name


def test_newton_rejects_an_infinite_jacobian():
    # a Jacobian holding inf fails before factoring, as one holding NaN does
    jac = np.array([[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(EvaluationError, match="Jacobian is not finite at Newton iteration 0"):
        newton_solve(lambda x: x - 1.0, np.zeros(2), NewtonConfig(), build_jacobian=lambda x, fx: jac)


@pytest.mark.parametrize("k", [0, 1, 4, 9])
def test_inf_norm_matches_numpy_reductions(k):
    # numpy's reductions are the reference: the same maximum, NaN when any
    # entry is NaN, else infinite when any entry is
    rng = np.random.default_rng(k)
    for _ in range(50):
        x = rng.standard_normal(k) * 10.0 ** rng.integers(-20, 20, size=k)
        if k:
            for special in rng.choice([np.nan, np.inf, -np.inf, 0.0], size=2):
                x[rng.integers(k)] = special
        expected = float(np.max(np.abs(x))) if k else 0.0
        got = inf_norm(x)
        assert got == expected or (np.isnan(got) and np.isnan(expected))
        assert np.isfinite(got) == bool(np.all(np.isfinite(x)))


def test_fd_jacobian_quadratic():
    def residual(x):
        return np.array([x[0] ** 2 + x[1], 3.0 * x[1] ** 2])

    x = np.array([1.5, -0.5])
    jac = fd_jacobian(residual, x)
    assert np.allclose(jac, [[3.0, 1.0], [0.0, -3.0]], atol=1e-6)


def test_newton_builds_jacobians_with_given_callable(monkeypatch):
    monkeypatch.setattr(newton, "fd_jacobian", None)  # never called
    built = []

    def exact(x, fx):
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


def test_newton_handed_factors_corrects_a_converged_guess():
    # a start within the tolerance is accepted for free only without factors:
    # a solve handed them applies at least one correction first
    factors = lu_factor(np.array([[1.0]]))
    guess = np.array([1.0 + 1e-7])
    x, iters, jacobian = newton_solve(lambda x: x - 1.0, guess, NewtonConfig(), factors)
    assert iters >= 1 and jacobian is factors
    assert x[0] == 1.0
    x, iters, _ = newton_solve(lambda x: x - 1.0, guess, NewtonConfig())
    assert iters == 0 and x[0] == guess[0]


def test_newton_divergence_carries_diagnostics():
    # root-free residual
    with pytest.raises(NewtonDivergence) as info:
        newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]),
                     np.array([1.0]),
                     NewtonConfig())
    assert info.value.iterations == newton.MAX_ITERATIONS
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


def test_newton_hands_the_builder_the_residual_it_holds():
    # after a dropped chord iterate Newton builds at the chord step's start,
    # from the very list it evaluated there, and evaluates no point twice
    evaluated, built = [], []

    def residual(x):
        fx = [x[0] - 1.0, x[1] + 2.0 * x[0]]
        evaluated.append((x.tobytes(), fx))
        return fx

    def build(x, fx):
        built.append((x.tobytes(), fx))
        return np.array([[1.0, 0.0], [2.0, 1.0]])

    stale = lu_factor(np.array([[2.0, 0.0], [4.0, 2.0]]))
    x, iters, _ = newton_solve(residual, np.zeros(2), NewtonConfig(), stale, build)
    assert np.allclose(x, [1.0, -2.0]) and iters == 2
    # the start, the dropped chord iterate and the solution, each once
    assert len(evaluated) == len({point for point, _ in evaluated}) == 3
    (point, fx), = built
    assert point == evaluated[0][0] and fx is evaluated[0][1]


def test_newton_drops_a_chord_iterate_with_non_finite_residual():
    # the stale factors overshoot to x = 4, where the residual is NaN; Newton
    # goes back to the guess and converges from there with a fresh Jacobian
    def residual(x):
        return np.array([x[0] - 2.0 if x[0] < 3.0 else np.nan])

    stale = lu_factor(np.array([[0.5]]))
    x, iters, _ = newton_solve(residual, np.zeros(1), NewtonConfig(), stale)
    assert x[0] == pytest.approx(2.0) and iters == 2


def test_newton_rejects_bad_config():
    # NaN never converges, infinity returns the start unsolved
    for settings in [{"tolerance": 0.0}, {"tolerance": -1e-6},
                     {"tolerance": float("nan")}, {"tolerance": float("inf")}]:
        with pytest.raises(ValueError):
            NewtonConfig(**settings)


def test_newton_multivariate_system():
    def residual(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])

    x, _, _ = newton_solve(residual, np.array([1.0, 0.5]),
                           NewtonConfig(tolerance=1e-13))
    assert np.allclose(x, np.sqrt(2.0), atol=1e-12)
