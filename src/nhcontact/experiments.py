"""Named experiment catalog and a single entry point for running any
experiment with any of the four integrators."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import contact, dalembert
from .model import (
    NUMERICAL_FAILURES,
    Array,
    DiscretizationRule,
    ExperimentSpec,
    Integrator,
    PositionRule,
    Termination,
    Trajectory,
    ZRule,
    project_velocity,
)
from .newton import NewtonConfig
from .reference import (
    consistent_init,
    implicit_dae_integrate,
    make_continuous_system,
    rkf45_integrate,
)
from .systems import (
    DiskParams,
    FoucaultParams,
    disk_system,
    foucault_reference_multiplier,
    foucault_reference_ode,
    foucault_system,
)

FOUCAULT_RULE = DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, h=0.05)
DISK_RULE = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, h=0.1)

#: Most steps ``t_final / h`` an overridden spec may ask for: the drivers
#: allocate every row of the trajectory before the first step.
MAX_STEPS = 4_000_000
#: The implicit DAE reference steps this many times finer than the grid.
DAE_REFINEMENT = 10


class UnknownExperiment(KeyError):
    pass


class UnsupportedExperiment(ValueError):
    """A system or integrator the package cannot run, an integrator the
    system has no formulation for, or an override of a field the experiment
    spec does not have or with a value the spec rejects."""


def steady_rolling_spin_rate(params: DiskParams, theta0: float, phidot0: float) -> float:
    """Rolling rate giving steady circular motion at tilt ``theta0`` and
    precession rate ``phidot0``."""
    m, R, I_A, I_T, g = params.m, params.R, params.I_A, params.I_T, params.g
    return ((I_T - I_A - m * R ** 2) * np.sin(theta0) * phidot0 ** 2 - m * g * R) / (
        (I_A + m * R ** 2) * np.tan(theta0) * phidot0
    )


def _foucault_entry(alpha: float) -> ExperimentSpec:
    params = FoucaultParams(alpha=alpha)
    return ExperimentSpec(
        system_id="foucault",
        parameters={"m": params.m, "l": params.l, "g": params.g,
                    "beta": params.beta, "Omega": params.Omega},
        alpha=alpha,
        forcing=None,
        q0=np.array([0.0, params.l / 100.0]),
        v0=np.zeros(2),
        t_final=3600.0,
        integrator=Integrator.CONTACT,
        rule=FOUCAULT_RULE,
    )


def _disk_entry(alpha, q0, v0, forcing=None, t_final=20.0) -> ExperimentSpec:
    params = DiskParams()
    return ExperimentSpec(
        system_id="falling-disk",
        parameters={"m": params.m, "R": params.R, "I_A": params.I_A,
                    "I_T": params.I_T, "g": params.g},
        alpha=alpha,
        forcing=forcing,
        q0=np.asarray(q0, dtype=float),
        v0=np.asarray(v0, dtype=float),
        t_final=t_final,
        integrator=Integrator.CONTACT,
        rule=DISK_RULE,
    )


def _rolling_force(t: float) -> tuple:
    return 0.0, 0.0, 0.0, 0.0, 0.5  # a constant: the same tuple every call


def _ramp_force(t: float) -> tuple:
    return 0.0, 0.0, 0.0, t / 16.0, t / 16.0


def _build_catalog() -> dict:
    cat = {
        "foucault-1": _foucault_entry(alpha=1e-3),
        "foucault-2": _foucault_entry(alpha=1e-4),
    }
    zero5 = np.zeros(5)
    for tag, alpha in (("1.1", 0.005), ("1.2", 0.1)):
        cat[f"disk-{tag}"] = _disk_entry(alpha, zero5, zero5, forcing=_rolling_force)
    q0_tilted = np.array([0.0, 0.0, np.pi / 36.0, 0.0, 0.0])
    v0_rolling = np.array([np.pi, 0.0, 0.0, 0.0, 2.0 * np.pi])
    for tag, alpha in (("2.1", 0.0), ("2.2", 0.005), ("2.3", 0.1)):
        cat[f"disk-{tag}"] = _disk_entry(alpha, q0_tilted, v0_rolling)
    v0_forced = np.array([np.pi / 2.0, 0.0, 0.0, 0.0, np.pi])
    for tag, alpha in (("3.1", 0.0), ("3.2", 0.005), ("3.3", 0.1)):
        cat[f"disk-{tag}"] = _disk_entry(alpha, zero5, v0_forced, forcing=_ramp_force)
    theta0 = 20.0 * np.pi / 180.0
    phidot0 = -3.0 * np.pi / 10.0
    psidot0 = steady_rolling_spin_rate(DiskParams(), theta0, phidot0)
    q0_circ = np.array([0.0, 0.0, theta0, 0.0, 0.0])
    v0_circ = np.array([np.pi / 2.0, 0.0, 0.0, phidot0, psidot0])
    for tag, alpha in (("4.1", 0.0), ("4.2", 0.005), ("4.3", 0.1)):
        cat[f"disk-{tag}"] = _disk_entry(alpha, q0_circ, v0_circ, t_final=25.0)
    return cat


CATALOG = _build_catalog()


def catalog_ids() -> list:
    return sorted(CATALOG.keys())


def get_experiment(experiment_id: str, **overrides) -> ExperimentSpec:
    """Look up a catalog entry, optionally replacing spec fields; an ``h``
    override sets the step size of the rule, overridden or not.

    Raises :class:`UnsupportedExperiment` for an override the spec rejects
    and for a horizon of more than :data:`MAX_STEPS` steps.
    """
    try:
        spec = CATALOG[experiment_id]
    except KeyError:
        raise UnknownExperiment(experiment_id) from None
    if not overrides:
        return spec
    unknown = sorted(set(overrides) - set(spec.__dataclass_fields__) - {"h"})
    if unknown:
        raise UnsupportedExperiment(f"unknown override {', '.join(unknown)}")
    try:
        if "h" in overrides:
            rule = overrides.get("rule", spec.rule)
            overrides["rule"] = replace(rule, h=float(overrides.pop("h")))
        spec = replace(spec, **overrides)
    except ValueError as exc:
        raise UnsupportedExperiment(str(exc)) from None
    if spec.t_final / spec.h > MAX_STEPS:
        raise UnsupportedExperiment(
            f"t_final / h = {spec.t_final / spec.h:.3g} steps, more than {MAX_STEPS}")
    return spec


def _foucault_params(spec: ExperimentSpec) -> FoucaultParams:
    p = spec.parameters
    return FoucaultParams(m=p["m"], l=p["l"], g=p["g"], beta=p["beta"],
                          Omega=p["Omega"], alpha=spec.alpha)


def _disk_params(spec: ExperimentSpec) -> DiskParams:
    p = spec.parameters
    forcing = {} if spec.forcing is None else {"forcing": spec.forcing}
    return DiskParams(m=p["m"], R=p["R"], I_A=p["I_A"], I_T=p["I_T"],
                      g=p["g"], alpha=spec.alpha, **forcing)


def build_contact_system(spec: ExperimentSpec):
    """System instance for the intrinsic-dissipation formulation."""
    if spec.system_id == "foucault":
        return foucault_system(_foucault_params(spec), formulation="herglotz")
    if spec.system_id == "falling-disk":
        return disk_system(_disk_params(spec))
    raise UnsupportedExperiment(f"unknown system {spec.system_id!r}")


def build_la_system(spec: ExperimentSpec):
    """System instance for the external-force formulation."""
    if spec.system_id == "foucault":
        return foucault_system(_foucault_params(spec), formulation="la")
    if spec.system_id == "falling-disk":
        raise UnsupportedExperiment(
            "the disk has no external-force damping formulation; "
            "use the contact integrator"
        )
    raise UnsupportedExperiment(f"unknown system {spec.system_id!r}")


def _n_steps(spec: ExperimentSpec) -> int:
    return int(round(spec.t_final / spec.h))


def _grid(spec: ExperimentSpec) -> Array:
    return spec.h * np.arange(_n_steps(spec) + 1)


def _run_rkf45(spec: ExperimentSpec) -> Trajectory:
    if spec.system_id != "foucault":
        raise UnsupportedExperiment(
            "the adaptive explicit reference covers the pendulum only")
    params = _foucault_params(spec)
    system = foucault_system(params, formulation="herglotz")
    grid = _grid(spec)
    v0 = project_velocity(system, spec.q0, spec.v0)
    y0 = np.concatenate([spec.q0, v0])
    termination = Termination.done()
    states = y0[None, :]
    if len(grid) > 1:
        try:
            dense = rkf45_integrate(foucault_reference_ode(params), y0, (grid[0], grid[-1]))
            states = dense.sample(grid)
        except NUMERICAL_FAILURES as exc:
            # the initial row alone, as from a contact run whose seed fails
            grid, termination = grid[:1], Termination.failure(step=1, message=str(exc))
    qs, vels = states[:, :2], states[:, 2:]
    lams = np.array([
        [foucault_reference_multiplier(params, row)] for row in states[1:].tolist()
    ]).reshape(len(grid) - 1, 1)
    energies = np.array([system.energy(q, v) for q, v in zip(qs, vels)])
    return Trajectory(times=grid, configurations=qs, velocities=vels,
                      z_values=np.zeros(len(grid)), multipliers=lams,
                      energies=energies, termination=termination)


def _run_implicit_dae(spec: ExperimentSpec) -> Trajectory:
    """Fixed-step implicit reference at a step :data:`DAE_REFINEMENT` times
    finer than the experiment grid, downsampled back onto it."""
    system = build_contact_system(spec)
    continuous = make_continuous_system(system)
    grid = _grid(spec)
    n, m = system.dim_q, system.dim_c
    termination = Termination.done()
    try:
        y0, ydot0 = consistent_init(system, spec.q0, spec.v0)
    except NUMERICAL_FAILURES as exc:
        # the initial row alone, as from a contact run whose seed fails
        v0 = project_velocity(system, spec.q0, spec.v0)
        y0 = np.concatenate([spec.q0, v0, np.zeros(1 + m)])
        grid, termination = grid[:1], Termination.failure(step=1, message=str(exc))
    if len(grid) == 1:
        result_states = y0[None, :]
    else:
        dae = implicit_dae_integrate(continuous, y0, ydot0, (grid[0], grid[-1]),
                                     spec.h / DAE_REFINEMENT)
        n_full = (len(dae.times) - 1) // DAE_REFINEMENT
        grid = grid[: n_full + 1]
        result_states = dae.states[::DAE_REFINEMENT][: n_full + 1]
        if not dae.completed:
            termination = Termination.failure(
                step=n_full + 1,
                message=f"reference failure at t={dae.failure_time:.6e}: "
                        f"{dae.failure_message}",
            )
    qs = result_states[:, :n]
    vels = result_states[:, n:2 * n]
    zs = result_states[:, 2 * n]
    lams = result_states[1:, 2 * n + 1:].reshape(len(grid) - 1, m)
    energies = np.array([system.energy(q, v) for q, v in zip(qs, vels)])
    return Trajectory(times=grid, configurations=qs, velocities=vels,
                      z_values=zs, multipliers=lams, energies=energies,
                      termination=termination)


def run_experiment(
    spec: ExperimentSpec,
    solver: NewtonConfig = NewtonConfig(),
    stats: contact.StepStats = None,
) -> Trajectory:
    """Run ``spec`` with its selected integrator, on a uniform grid of
    step ``spec.h``."""
    if spec.integrator is Integrator.CONTACT:
        return contact.run_contact(build_contact_system(spec), spec.rule, spec.q0,
                                   spec.v0, _n_steps(spec), solver, stats)
    if spec.integrator is Integrator.LAGRANGE_DALEMBERT:
        return dalembert.run_la(build_la_system(spec), spec.rule, spec.q0, spec.v0,
                                _n_steps(spec), solver, stats)
    if spec.integrator is Integrator.RKF45_REFERENCE:
        return _run_rkf45(spec)
    if spec.integrator is Integrator.IMPLICIT_DAE_REFERENCE:
        return _run_implicit_dae(spec)
    raise UnsupportedExperiment(f"unknown integrator {spec.integrator!r}")
