import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhcontact.contact import run_contact
from nhcontact.dalembert import _discrete_force, la_residual, la_window_terms, run_la
from nhcontact.experiments import DISK_RULE, build_contact_system, get_experiment
from nhcontact.model import (
    DiscretizationRule,
    PositionRule,
    StepState,
    ZRule,
    discrete_constraint,
    partials_of_Ld,
)
from nhcontact.newton import NewtonConfig
from nhcontact.systems import FoucaultParams, foucault_system

TRAP_FIRST = DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, 0.05)


def test_pendulum_la_residual_matches_hand_coded_block():
    """Forced stepping equations for the damped pendulum: the discrete force
    h * (-alpha m (q_{j+1} - q_j)/h) must appear as -alpha m (q_{j+1} - q_j).
    """
    params = FoucaultParams(alpha=1e-3)
    system = foucault_system(params, formulation="la")
    h = TRAP_FIRST.h
    m, g, l, alpha = params.m, params.g, params.l, params.alpha
    rng = np.random.default_rng(1)
    for _ in range(10):
        qm = rng.normal(size=2)
        qj = qm + 0.05 * rng.normal(size=2)
        qp = qj + 0.05 * rng.normal(size=2)
        lam = rng.normal(size=1)
        window = StepState(q_prev=qm, q_curr=qj, z_prev=0.0, z_curr=0.0, t_curr=1.0)
        res = la_residual(system, TRAP_FIRST, window,
                          la_window_terms(system, TRAP_FIRST, window),
                          np.concatenate([qp, lam]))
        # h * [D1 Ld(fwd) + D2 Ld(bwd)] with trapezoidal quadrature,
        # plus the one-step force quadrature, minus the constraint term
        hand = m * ((2 * qj - qp - qm) / h - h * (g / l) * qj) \
            - alpha * m * (qp - qj)
        hand -= np.array([[-qj[1], qj[0]]]).T @ lam
        assert np.allclose(res[:2], hand, rtol=1e-12, atol=1e-9)


def unhoisted_la_residual(system, rule, window, unknowns):
    """Reference residual that recomputes every window term per call."""
    w = window
    n, m, h = system.dim_q, system.dim_c, rule.h
    q_next, lam = unknowns[:n], unknowns[n:]
    d1f, _, _, _ = partials_of_Ld(system, rule, w.t_curr, w.q_curr, q_next, 0.0, 0.0)
    _, d2b, _, _ = partials_of_Ld(system, rule, w.t_curr - h, w.q_prev, w.q_curr, 0.0, 0.0)
    momentum = h * (d1f + d2b) + _discrete_force(system, rule, w.t_curr, w.q_curr, q_next)
    if m:
        momentum = momentum - system.constraint_matrix(w.q_curr).T @ lam
    out = np.empty(n + m)
    out[:n] = momentum
    if m:
        out[n:] = discrete_constraint(system, rule, w.q_curr, q_next)
    return out


def forced_pendulum_case():
    system = foucault_system(FoucaultParams(alpha=1e-3), formulation="la")
    return system, TRAP_FIRST, np.array([0.1, 0.6])


def forced_disk_case():
    # the disk has no external-force formulation; its contact Lagrangian with
    # z frozen at zero still exercises the midpoint rule and the t-ramped force
    spec = get_experiment("disk-3.2")
    return build_contact_system(spec), DISK_RULE, spec.q0 + np.array([0.0, 0.0, 0.1, 0.2, 0.3])


@pytest.mark.parametrize("case", [forced_pendulum_case, forced_disk_case],
                         ids=["pendulum-trap-first", "disk-mid-second"])
def test_hoisted_la_residual_bit_identical_to_unhoisted(case):
    system, rule, q = case()
    n, m = system.dim_q, system.dim_c
    rng = np.random.default_rng(4)
    for _ in range(20):
        qm = q + 0.05 * rng.normal(size=n)
        qj = qm + 0.05 * rng.normal(size=n)
        window = StepState(q_prev=qm, q_curr=qj, z_prev=0.0, z_curr=0.0,
                           t_curr=rng.uniform(0.1, 10.0))
        terms = la_window_terms(system, rule, window)
        for _ in range(5):
            unknowns = np.concatenate([qj + 0.05 * rng.normal(size=n), rng.normal(size=m)])
            assert np.array_equal(la_residual(system, rule, window, terms, unknowns),
                                  unhoisted_la_residual(system, rule, window, unknowns))


@settings(max_examples=10, deadline=None)
@given(amplitude=st.floats(1.0 / 200.0, 1.0 / 50.0),
       direction=st.floats(0.0, np.pi),
       latitude=st.floats(np.deg2rad(10.0), np.deg2rad(80.0)))
def test_conservative_la_matches_contact_per_step(amplitude, direction, latitude):
    """At alpha = 0 the contact and forced schemes solve the same equations.

    The solver tolerance is absolute. At the largest amplitudes the momentum
    rows are of order 1e4, and 1e-12 sits at their round-off floor, so the
    runs are solved to 1e-11.
    """
    params = FoucaultParams(alpha=0.0, beta=latitude)
    herglotz = foucault_system(params, formulation="herglotz")
    forced = foucault_system(params, formulation="la")
    q0 = amplitude * params.l * np.array([np.cos(direction), np.sin(direction)])
    v0 = np.zeros(2)
    solver = NewtonConfig(tolerance=1e-11)
    tc = run_contact(herglotz, TRAP_FIRST, q0, v0, 200, solver)
    tl = run_la(forced, TRAP_FIRST, q0, v0, 200, solver)
    assert tc.termination.completed and tl.termination.completed
    assert np.max(np.abs(tc.configurations - tl.configurations)) < 1e-10


def test_la_z_values_stay_zero():
    system = foucault_system(FoucaultParams(alpha=1e-3), formulation="la")
    traj = run_la(system, TRAP_FIRST, np.array([0.0, 0.67]), np.zeros(2), 50)
    assert np.all(traj.z_values == 0.0)
    assert traj.termination.completed


def test_la_dissipates_energy():
    system = foucault_system(FoucaultParams(alpha=1e-2), formulation="la")
    traj = run_la(system, TRAP_FIRST, np.array([0.0, 0.67]), np.zeros(2), 4000)
    # one pendulum period is about 330 steps; compare full-period averages
    period = 330
    early = np.mean(traj.energies[:period])
    late = np.mean(traj.energies[-period:])
    assert late < early
