from dataclasses import replace
from fractions import Fraction

import numpy as np
import numpy_oracle
import pytest
from disk_oracle import disk_eliminated_step

from nhcontact.experiments import _disk_params, get_experiment, steady_rolling_spin_rate
from nhcontact.model import (
    COMPLEX_STEP,
    DiscretizationRule,
    PositionRule,
    ZRule,
    initial_acceleration,
    partials_of_Ld,
    project_velocity,
)
from nhcontact.newton import NewtonConfig
from nhcontact.reference import rkf45_integrate
from nhcontact.systems import (
    DiskParams,
    FoucaultParams,
    disk_kinetic_energy,
    disk_system,
    foucault_reference_multiplier,
    foucault_reference_ode,
    foucault_system,
)

DISK_RULE = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.1)


def test_foucault_default_parameters():
    p = FoucaultParams()
    assert p.m == 28.0 and p.l == 67.0
    assert p.beta == pytest.approx(np.deg2rad(49.0))
    assert p.omega_vertical == pytest.approx(7.2921159e-5 * np.sin(np.deg2rad(49.0)))


def test_foucault_invalid_parameters():
    with pytest.raises(ValueError):
        FoucaultParams(m=-1.0)
    with pytest.raises(ValueError):
        foucault_system(FoucaultParams(), formulation="hamiltonian")


def test_foucault_gradients_match_finite_differences():
    system = foucault_system(FoucaultParams(alpha=1e-3))
    bare = type(system)(**{**{f: getattr(system, f) for f in system.__dataclass_fields__},
                           "lagrangian_gradients": None})
    rule = DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, 0.05)
    rng = np.random.default_rng(5)
    q = rng.normal(size=2)
    qn = q + 0.01 * rng.normal(size=2)
    got = partials_of_Ld(system, rule, 0.0, q, qn, 0.2, 0.3)
    ref = partials_of_Ld(bare, rule, 0.0, q, qn, 0.2, 0.3)
    for a, b in zip(got, ref):
        assert np.allclose(a, b, rtol=1e-5, atol=1e-5)


def test_herglotz_and_rayleigh_foucault_share_initial_acceleration():
    # the Lagrangian's -alpha z and the force -alpha m qdot give the same
    # continuous equations, so the seeds agree only if the external force
    # enters the initial acceleration
    params = FoucaultParams(alpha=1e-2)
    herglotz = foucault_system(params, formulation="herglotz")
    forced = foucault_system(params, formulation="la")
    q0 = np.array([0.3, 0.6])
    v0 = project_velocity(herglotz, q0, np.array([0.5, -0.2]))
    acc = initial_acceleration(herglotz, q0, v0)[0]
    np.testing.assert_allclose(initial_acceleration(forced, q0, v0)[0], acc, rtol=0, atol=1e-12)
    unforced = replace(forced, external_force=lambda t, q, qdot: np.zeros_like(q))
    assert np.max(np.abs(initial_acceleration(unforced, q0, v0)[0] - acc)) > 1e-4


def test_foucault_reference_ode_preserves_constraint():
    params = FoucaultParams(alpha=1e-3)
    from nhcontact.contact import project_velocity

    system = foucault_system(params)
    q0 = np.array([0.0, 0.67])
    v0 = project_velocity(system, q0, np.zeros(2))
    traj = rkf45_integrate(foucault_reference_ode(params),
                           np.concatenate([q0, v0]), (0.0, 30.0),
                           rel_tol=1e-10, abs_tol=1e-12)
    worst = 0.0
    for y in traj.states:
        x, yy, vx, vy = y
        c = -yy * vx + x * vy + params.omega_vertical * (x * x + yy * yy)
        worst = max(worst, abs(c))
    assert worst < 1e-9


def test_foucault_reference_multiplier_consistent_with_ode():
    # the eliminated multiplier must reproduce the constraint-force terms
    params = FoucaultParams(alpha=1e-3)
    y = np.array([0.1, 0.5, -0.02, 0.3])
    lam = foucault_reference_multiplier(params, y)
    rhs = foucault_reference_ode(params)(0.0, y)
    x, yy, vx, vy = y
    ax_free = -params.g / params.l * x - params.alpha * vx
    assert rhs[2] == pytest.approx(ax_free - lam / params.m * yy)


def float_bits(values) -> bytes:
    """The bytes of ``values`` as float64, every NaN made numpy's ``nan``:
    which operand's sign a product of two NaNs keeps differs between
    Python's own float paths, so only NaN-ness is compared."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def test_foucault_reference_ode_and_multiplier_match_numpy_oracle():
    # Python floats against numpy scalars: the same IEEE operations, so the
    # same bits, zero signs and the non-finite values of the origin included
    rng = np.random.default_rng(20)
    for params in (FoucaultParams(alpha=1e-3), FoucaultParams(alpha=-2.5, beta=0.3)):
        rhs, oracle = foucault_reference_ode(params), numpy_oracle.foucault_reference_ode(params)
        states = [*rng.normal(scale=[0.7, 0.7, 0.1, 0.1], size=(2000, 4)),
                  np.array([0.0, 0.0, 0.1, -0.2]), np.zeros(4), np.array([-0.0, 0.0, 0.0, 0.0]),
                  np.array([1e-170, 0.0, 1.0, 0.0]), np.array([np.inf, 0.5, 0.0, 0.0]),
                  np.array([np.nan, 0.5, 0.0, 0.0])]
        with np.errstate(all="ignore"):
            for y in states:
                assert float_bits(rhs(0.0, y)) == float_bits(oracle(0.0, y))
                expected = float_bits(numpy_oracle.foucault_reference_multiplier(params, y))
                for state in (y, y.tolist()):
                    lam = foucault_reference_multiplier(params, state)
                    assert type(lam) is float and float_bits(lam) == expected


def test_disk_default_moments_of_inertia():
    p = DiskParams()
    assert p.I_A == pytest.approx(0.5 * 5.0 * 0.25)
    assert p.I_T == pytest.approx(0.25 * 5.0 * 0.25)


def test_disk_kinetic_energy_vertical_rolling():
    # upright disk rolling straight: T = (m + I_A/R^2)/2 * Xdot^2
    p = DiskParams()
    psidot = 2.0
    xdot = p.R * psidot
    q = np.zeros(5)
    qdot = np.array([xdot, 0.0, 0.0, 0.0, psidot])
    expected = 0.5 * p.m * xdot ** 2 + 0.5 * p.I_A * psidot ** 2
    assert disk_kinetic_energy(p, q, qdot) == pytest.approx(expected)


def test_disk_gradients_match_finite_differences():
    params = DiskParams(alpha=0.05, forcing=lambda t: np.array([0, 0, 0, t / 16, t / 16.0]))
    system = disk_system(params)
    bare = type(system)(**{**{f: getattr(system, f) for f in system.__dataclass_fields__},
                           "lagrangian_gradients": None})
    rng = np.random.default_rng(6)
    q = rng.normal(size=5) * 0.3
    qn = q + 0.02 * rng.normal(size=5)
    got = partials_of_Ld(system, DISK_RULE, 0.7, q, qn, 0.1, 0.2)
    ref = partials_of_Ld(bare, DISK_RULE, 0.7, q, qn, 0.1, 0.2)
    for a, b in zip(got, ref):
        assert np.allclose(a, b, rtol=1e-4, atol=1e-4)


def _system_pair(name):
    """The package's system ``name`` and its numpy oracle."""
    if name.startswith("foucault"):
        params = FoucaultParams(alpha=1e-3, beta=np.deg2rad(30.0))
        formulation = "la" if name == "foucault-la" else "herglotz"
        return (foucault_system(params, formulation),
                numpy_oracle.foucault_system(params, formulation))
    params = _disk_params(get_experiment(name))
    return disk_system(params), numpy_oracle.disk_system(params)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _python_numbers(value) -> bool:
    """Whether ``value`` is a Python number or a sequence of them, nested
    to any depth, with no numpy array or numpy scalar anywhere."""
    if isinstance(value, (list, tuple)):
        return all(_python_numbers(v) for v in value)
    return isinstance(value, (float, complex, int))


# the forced disks: a constant torque (1.1) and a ramp in t (3.2)
@pytest.mark.parametrize("name", ["foucault", "foucault-la", "disk-1.1", "disk-2.3",
                                  "disk-3.2"])
def test_callables_bit_identical_to_numpy_oracle(name):
    # math/cmath on Python numbers against numpy arrays and scalars, on real
    # arguments and on complex-step probes of q, qdot and z, zero signs
    # included
    system, oracle = _system_pair(name)
    n = system.dim_q
    disk = name.startswith("disk")
    # _zeros5 (disk-2.3), the constant torque and the ramp
    forcing = _disk_params(get_experiment(name)).forcing if disk else None
    rng = np.random.default_rng(9)
    # many real draws: a square written as x ** 2 on one side only (pow,
    # which can round otherwise than x * x, on about 1 float in 1,100 on
    # some platforms) shows on a few of them
    for draw in range(1000):
        t = rng.uniform(0.0, 20.0)
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 1.0)
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 1.0)
        z = rng.normal()
        probes = [(q, v, z)]
        for e in np.eye(n) if draw % 50 == 0 else ():
            probes += [(q + 1j * COMPLEX_STEP * e, v, z), (q, v + 1j * COMPLEX_STEP * e, z),
                       (q + 1j * COMPLEX_STEP * e, v + 1j * COMPLEX_STEP * e, z)]
        probes.append((q + 0j, v + 0j, z + 1j * COMPLEX_STEP))
        for qq, vv, zz in probes:
            got = system.lagrangian_gradients(t, qq, vv, zz)
            expected = oracle.lagrangian_gradients(t, qq, vv, zz)
            assert all(_same_bits(a, b) for a, b in zip(got, expected))
            assert _same_bits(system.lagrangian(t, qq, vv, zz), oracle.lagrangian(t, qq, vv, zz))
            assert _same_bits(system.constraint_matrix(qq), oracle.constraint_matrix(qq))
            assert _same_bits(system.constraint_offset(qq), oracle.constraint_offset(qq))
            assert _same_bits(system.external_force(t, qq, vv), oracle.external_force(t, qq, vv))
            assert _same_bits(system.energy(qq, vv), oracle.energy(qq, vv))
            # Python numbers throughout, which the kernel takes as they are:
            # no numpy array is built per call
            matrix = system.constraint_matrix(qq)
            assert _python_numbers(got) and _python_numbers(matrix)
            assert _python_numbers(system.constraint_offset(qq))
            if disk:
                assert _python_numbers(forcing(t))
                # each row of one number type, as numpy's upcast gave: so the
                # kernel never multiplies a float by a complex
                kind = complex if qq.dtype == complex else float
                assert all(type(x) is kind for row in matrix for x in row)
            elif name == "foucault-la":
                assert _python_numbers(system.external_force(t, qq, vv))


def test_squares_are_correctly_rounded():
    # the Foucault offset and energy and the disk's kinetic energy square by
    # products: on draws where x ** 2 (libm's pow) misrounds, none where pow
    # is correctly rounded, and on a few ordinary ones, each equals its value
    # from the exact square rounded once
    rng = np.random.default_rng(12)
    draws = (rng.normal(size=200_000) * 10.0 ** rng.uniform(-2.0, 1.0, size=200_000)).tolist()
    misrounded = [x for x in draws if x ** 2 != x * x]
    foucault_params, disk_params = FoucaultParams(), DiskParams()
    foucault = foucault_system(foucault_params)
    m, k_spring = foucault_params.m, foucault_params.m * foucault_params.g / foucault_params.l
    omega_v = float(foucault_params.omega_vertical)
    zero = np.zeros(2)
    for x in misrounded + draws[:20]:
        square = float(Fraction(x) ** 2)
        assert foucault.constraint_offset(np.array([x, 0.0])) == [omega_v * square]
        assert foucault.energy(zero, np.array([x, 0.0])) == 0.5 * m * square
        assert foucault.energy(np.array([0.0, x]), zero) == 0.5 * k_spring * square
        qdot = np.array([x, 0.0, 0.0, 0.0, 0.0])
        assert disk_kinetic_energy(disk_params, np.zeros(5), qdot) == 0.5 * disk_params.m * square


def test_disk_constraints_annihilate_rolling_velocity():
    # rolling without slipping: contact-point velocity vanishes
    params = DiskParams()
    system = disk_system(params)
    rng = np.random.default_rng(8)
    for _ in range(5):
        theta, phi = rng.uniform(0.1, 1.0), rng.uniform(0.0, 2 * np.pi)
        thetadot, phidot, psidot = rng.normal(size=3)
        r = params.R
        xdot = r * (np.cos(phi) * psidot - np.cos(phi) * np.sin(theta) * phidot
                    - np.cos(theta) * np.sin(phi) * thetadot)
        ydot = r * (np.sin(phi) * psidot - np.sin(phi) * np.sin(theta) * phidot
                    + np.cos(phi) * np.cos(theta) * thetadot)
        q = np.array([0.0, 0.0, theta, phi, 0.0])
        v = np.array([xdot, ydot, thetadot, phidot, psidot])
        assert np.max(np.abs(system.constraint_matrix(q) @ v)) < 1e-12


def test_disk_eliminated_step_is_deterministic_and_smooth():
    params = DiskParams(alpha=0.005, forcing=lambda t: np.array([0, 0, 0, 0, 0.5]))
    h = 0.1
    q_prev = np.zeros(5)
    q_curr = np.array([0.0, 0.0, 0.0, 0.0, 0.001])
    solver = NewtonConfig(tolerance=1e-12)
    a = disk_eliminated_step(params, h, q_prev, q_curr, h, solver)
    b = disk_eliminated_step(params, h, q_prev, q_curr, h, solver)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - (2 * q_curr - q_prev))) < 0.1


def test_catalog_spin_rate_formula():
    params = DiskParams()
    theta0 = 20.0 * np.pi / 180.0
    phidot0 = -3.0 * np.pi / 10.0
    m, R, I_A, I_T, g = params.m, params.R, params.I_A, params.I_T, params.g
    expected = ((I_T - I_A - m * R ** 2) * np.sin(theta0) * phidot0 ** 2
                - m * g * R) / ((I_A + m * R ** 2) * np.tan(theta0) * phidot0)
    assert steady_rolling_spin_rate(params, theta0, phidot0) == pytest.approx(expected)


def test_steady_rolling_balance():
    # tilt balance of the rolling disk:
    # (I_T + mR^2) thetadd = -I_T s c phidot^2
    #   - (I_A + mR^2) c (psidot - s phidot) phidot + mgR s
    # the spin rate zeroing it leaves theta stationary
    params = DiskParams()
    theta0 = 20.0 * np.pi / 180.0
    phidot0 = -3.0 * np.pi / 10.0
    m, R, I_A, I_T, g = params.m, params.R, params.I_A, params.I_T, params.g
    s, t = np.sin(theta0), np.tan(theta0)
    psidot0 = (m * g * R * t + (I_A + m * R ** 2 - I_T) * s * phidot0 ** 2) / (
        (I_A + m * R ** 2) * phidot0
    )
    from nhcontact.model import initial_acceleration

    system = disk_system(params)
    q0 = np.array([0.0, 0.0, theta0, 0.0, 0.0])
    # rolling-consistent center velocity at phi = 0
    v0 = np.array([params.R * (psidot0 - s * phidot0), 0.0, 0.0, phidot0, psidot0])
    acc = initial_acceleration(system, q0, v0)[0]
    assert abs(acc[2]) < 1e-8  # no tilt acceleration
