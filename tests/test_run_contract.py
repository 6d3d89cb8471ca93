"""The run contract on drawn inputs: whatever the experiment, damping, step
size, rule, integrator and initial state, a library run either rejects the
input as :class:`UnsupportedExperiment` or returns a trajectory that keeps
the README's promises (finite when completed, with the discrete constraint
within Newton's tolerance; truncated at the failure step, with a message,
when not; the same bytes on a repeated run)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhcontact.experiments import (
    UnsupportedExperiment,
    build_contact_system,
    build_la_system,
    catalog_ids,
    get_experiment,
    run_experiment,
)
from nhcontact.model import (
    DiscretizationRule,
    Integrator,
    PositionRule,
    ZRule,
    discrete_constraint,
)
from nhcontact.newton import NewtonConfig

FIELDS = ("times", "configurations", "velocities", "z_values", "multipliers", "energies")

#: a catalog id, the system first, so the pendulum-only integrators run
ids = st.one_of(*(st.sampled_from([eid for eid in catalog_ids() if eid.startswith(system)])
                  for system in ("foucault", "disk")))

#: 0, or a magnitude log-uniform in [1e-4, 1e4] of either sign
alphas = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 4.0)))


def _state(spec, shift, scale):
    """``spec``'s initial configuration shifted by the leading entries of
    ``shift`` and its initial velocity scaled by ``scale``."""
    return spec.q0 + np.asarray(shift[:len(spec.q0)]), scale * spec.v0


def _discrete_constraints(spec, traj) -> float:
    """Largest inf-norm of the discrete constraint over the trajectory's
    steps, on the system the integrator ran."""
    build = build_la_system if spec.integrator is Integrator.LAGRANGE_DALEMBERT \
        else build_contact_system
    system = build(spec)
    qs = traj.configurations
    return max((np.max(np.abs(discrete_constraint(system, spec.rule, a, b)), initial=0.0)
                for a, b in zip(qs[:-1], qs[1:])), default=0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("integrator", list(Integrator), ids=lambda i: i.value)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(eid=ids,
       alpha=alphas,
       h=st.floats(0.003, 2.0),
       steps=st.integers(0, 300),
       position=st.sampled_from(list(PositionRule)),
       z_rule=st.sampled_from(list(ZRule)),
       shift=st.lists(st.floats(-0.1, 0.1), min_size=5, max_size=5),
       scale=st.floats(-5.0, 5.0))
def test_run_contract_holds_for_drawn_inputs(integrator, eid, alpha, h, steps, position,
                                             z_rule, shift, scale):
    if integrator in (Integrator.RKF45_REFERENCE, Integrator.IMPLICIT_DAE_REFERENCE):
        # BDF2 takes 10 steps per grid step, and RKF45's cost grows with the
        # horizon, not the grid
        steps //= 10
    q0, v0 = _state(get_experiment(eid), shift, scale)
    try:
        spec = get_experiment(eid, alpha=alpha, integrator=integrator,
                              rule=DiscretizationRule(position, z_rule, h),
                              t_final=steps * h, q0=q0, v0=v0)
        first, second = run_experiment(spec), run_experiment(spec)
    except UnsupportedExperiment:
        return
    rows = len(first.times)
    term = first.termination
    assert all(len(getattr(first, f)) == rows for f in FIELDS if f != "multipliers")
    assert len(first.multipliers) == rows - 1
    if term.completed:
        assert rows == round(spec.t_final / spec.h) + 1
        assert all(np.all(np.isfinite(getattr(first, f))) for f in FIELDS)
        if integrator in (Integrator.CONTACT, Integrator.LAGRANGE_DALEMBERT):
            assert _discrete_constraints(spec, first) <= NewtonConfig().tolerance
    else:
        assert term.status == "solver_failure"
        assert rows == term.step
        assert isinstance(term.message, str) and term.message
    assert second.termination == term
    assert all(getattr(first, f).tobytes() == getattr(second, f).tobytes() for f in FIELDS)
