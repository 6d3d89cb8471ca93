import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy_oracle import window_carry

from nhcontact.contact import contact_window_terms, run_contact
from nhcontact.dalembert import la_residual, run_la
from nhcontact.model import DiscretizationRule, PositionRule, StepState, ZRule
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
        terms = contact_window_terms(system, TRAP_FIRST, window,
                                     window_carry(system, TRAP_FIRST, window, with_z=False))
        res = la_residual(system, TRAP_FIRST, window, terms, np.concatenate([qp, lam]))
        # h * [D1 Ld(fwd) + D2 Ld(bwd)] with trapezoidal quadrature,
        # plus the one-step force quadrature, minus the constraint term
        hand = m * ((2 * qj - qp - qm) / h - h * (g / l) * qj) \
            - alpha * m * (qp - qj)
        hand -= np.array([[-qj[1], qj[0]]]).T @ lam
        assert np.allclose(res[:2], hand, rtol=1e-12, atol=1e-9)


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
