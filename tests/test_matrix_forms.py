"""``A(q)`` as a system returns it: a 2-D numpy array, a list of lists or a
tuple of tuples of the same numbers gives the same bits everywhere the
package samples it."""

import dataclasses

import numpy as np
import pytest

import nhcontact.reference
from nhcontact.contact import (
    StepCarry,
    contact_residual,
    contact_window_terms,
    initialize_window,
    run_contact,
    step_jacobian,
)
from nhcontact.dalembert import la_residual, run_la
from nhcontact.model import (
    NUMERICAL_FAILURES,
    ContactSystem,
    DiscretizationRule,
    PositionRule,
    StepState,
    ZRule,
    initial_acceleration,
    project_velocity,
)
from nhcontact.newton import newton_solve
from nhcontact.reference import implicit_dae_integrate, make_continuous_system

ALPHA = 0.05
FORMS = {
    "array": lambda rows: rows,
    "list": lambda rows: rows.tolist(),
    "tuple": lambda rows: tuple(map(tuple, rows.tolist())),
}


def _rows(q, m, redundant):
    """``A(q)`` as a numpy array of ``m`` rows of 3 numbers, complex for a
    complex ``q``: a second row twice the first when ``redundant``."""
    x, y, w = q
    first = [np.cos(w), np.sin(w), x]
    second = [2.0 * a for a in first] if redundant else [y, 0.0, 1.0]
    return np.array([first, second][:m]).reshape(m, 3)


def _system(m, redundant, form):
    """Three coordinates, ``L = |v|^2/2 - x^2/2 - y^2 - cos w - alpha z``,
    and ``m`` constraint rows, returned in ``form``; the offset is ``0.1 y``
    for the first row, and twice that for a redundant second row."""
    def lagrangian(t, q, v, z):
        return (0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
                - 0.5 * (q[0] * q[0]) - q[1] * q[1] - np.cos(q[2]) - ALPHA * z)

    def gradients(t, q, v, z):
        return np.array([-q[0], -2.0 * q[1], np.sin(q[2])]), v.copy(), -ALPHA

    def offset(q):
        return np.array([0.1 * q[1], (0.2 if redundant else 0.0) * q[1]][:m])

    matrix = ((lambda q: np.zeros((0, 3))) if m == 0 and form == "array"
              else lambda q: FORMS[form](_rows(q, m, redundant)))
    return ContactSystem(
        dim_q=3,
        dim_c=m,
        lagrangian=lagrangian,
        constraint_matrix=matrix,
        constraint_offset=offset,
        energy=lambda q, v: 0.5 * (v @ v) + 0.5 * (q[0] * q[0]) + q[1] * q[1] - np.cos(q[2]),
        lagrangian_gradients=gradients,
    )


def _bits(value):
    """The exact bits of a result: arrays and numbers by dtype and bytes,
    containers by their members, anything else as itself."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (np.ndarray, float, complex, int)):
        a = np.asarray(value)
        return a.dtype.str, a.shape, a.tobytes()
    return value


Q0 = np.array([0.3, -0.2, 0.7])
V0 = np.array([0.1, 0.4, -0.3])
CASES = [(0, False), (1, False), (2, False), (2, True)]
CASE_IDS = ["m0", "m1", "m2", "m2-redundant"]


def _seed(system, rule, with_z):
    """The seed step's window and carry, or the failure that ends it."""
    try:
        return initialize_window(system, rule, Q0, V0, with_z)
    except NUMERICAL_FAILURES as exc:
        return type(exc).__name__, str(exc)


def _results(m, redundant, form, rule, monkeypatch):
    """Everything the package computes from ``A(q)``, for one form."""
    system = _system(m, redundant, form)
    h = rule.h
    out = {"rates": initial_acceleration(system, Q0, V0),
           "projected": project_velocity(system, Q0, V0)}
    # a window and a backward carry of made-up numbers, as a redundant row
    # leaves the seed step without a solution
    window = StepState(Q0 + h * V0, 0.01, h)
    carry = StepCarry(None, [0.1, -0.2, 0.3], 0.02, 0.5, [])
    x = np.concatenate([Q0 + 2.0 * h * V0, [0.03], np.full(m, 0.2)])
    for name, residual, with_z in (("contact", contact_residual, True),
                                   ("la", la_residual, False)):
        out[f"{name} seed"] = _seed(system, rule, with_z)
        # z stays at zero in every window of a run without z
        point = window if with_z else window._replace(z_curr=0.0)
        terms = contact_window_terms(system, rule, point, carry)
        u = x if with_z else np.delete(x, 3)
        rows = out[f"{name} residual"] = residual(system, rule, point, terms, u)
        out[f"{name} jacobian"] = step_jacobian(
            lambda probes: residual(system, rule, point, terms, probes),
            u, terms[2], rule, rows.parts[:2])
    out["contact run"] = run_contact(system, rule, Q0, V0, 20)
    out["la run"] = run_la(system, rule, Q0, V0, 20)

    continuous = make_continuous_system(system)
    y = np.concatenate([Q0, V0, [0.01], np.full(m, 0.2)])
    out["dae residual"] = continuous.residual(0.1, y, 0.5 * y)
    builders = []

    def capturing(residual, x0, config, jacobian=None, build_jacobian=None):
        builders.append((residual, build_jacobian))
        return newton_solve(residual, x0, config, jacobian, build_jacobian)

    monkeypatch.setattr(nhcontact.reference, "newton_solve", capturing)
    out["dae run"] = implicit_dae_integrate(continuous, y, 0.5 * y, (0.0, 0.1), 0.05)
    residual, build = builders[-1]
    out["dae jacobian"] = build(y, residual(y))
    return out


@pytest.mark.parametrize("position", list(PositionRule), ids=lambda p: p.value)
@pytest.mark.parametrize("m, redundant", CASES, ids=CASE_IDS)
def test_constraint_matrix_forms_bit_identical(m, redundant, position, monkeypatch):
    # the rows as an ndarray (np.zeros((0, 3)) at m = 0), as a list of
    # lists ([] at m = 0) and as a tuple of tuples
    rule = DiscretizationRule(position, ZRule.SECOND_ORDER, 0.05)
    results = {form: _results(m, redundant, form, rule, monkeypatch) for form in FORMS}
    expected = results["array"]
    for form in ("list", "tuple"):
        for key, value in results[form].items():
            assert _bits(value) == _bits(expected[key]), (form, key)
    # the runs did their work, except that a redundant row makes every step
    # Jacobian singular
    for key in ("contact run", "la run"):
        assert expected[key].termination.completed is not redundant, expected[key].termination
    assert expected["dae run"].completed is not redundant
    assert (expected["contact seed"][0] == "SingularJacobian") is redundant
