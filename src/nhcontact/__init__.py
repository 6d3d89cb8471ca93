"""Variational integrators for dissipative nonholonomic mechanics.

The package provides a contact-type (action-dependent Lagrangian) integrator
for systems with affine velocity constraints, a forced Lagrange-d'Alembert
baseline, classical reference solvers, and a catalog of benchmark
experiments on a damped Foucault pendulum and a falling rolling disk.
"""

from .analysis import (
    ErrorSeries,
    convergence_order,
    oscillation_plane_angle,
    reconstruct_velocities,
    trajectory_error,
)
from .contact import (
    StepCarry,
    StepStats,
    contact_residual,
    contact_window_terms,
    initialize_window,
    run_contact,
)
from .dalembert import la_residual, run_la
from .experiments import (
    CATALOG,
    UnknownExperiment,
    UnsupportedExperiment,
    build_contact_system,
    build_la_system,
    catalog_ids,
    get_experiment,
    run_experiment,
)
from .model import (
    ContactSystem,
    DiscretizationRule,
    ExperimentSpec,
    Integrator,
    PositionRule,
    StepState,
    Termination,
    Trajectory,
    ZRule,
)
from .newton import NewtonConfig, NewtonDivergence, newton_solve
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
    foucault_reference_ode,
    foucault_system,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "ContactSystem",
    "DiscretizationRule",
    "DiskParams",
    "ErrorSeries",
    "ExperimentSpec",
    "FoucaultParams",
    "Integrator",
    "NewtonConfig",
    "NewtonDivergence",
    "PositionRule",
    "StepCarry",
    "StepState",
    "StepStats",
    "Termination",
    "Trajectory",
    "UnknownExperiment",
    "UnsupportedExperiment",
    "ZRule",
    "build_contact_system",
    "build_la_system",
    "catalog_ids",
    "consistent_init",
    "contact_residual",
    "contact_window_terms",
    "convergence_order",
    "disk_system",
    "foucault_reference_ode",
    "foucault_system",
    "get_experiment",
    "implicit_dae_integrate",
    "initialize_window",
    "la_residual",
    "make_continuous_system",
    "newton_solve",
    "oscillation_plane_angle",
    "reconstruct_velocities",
    "rkf45_integrate",
    "run_contact",
    "run_experiment",
    "run_la",
    "trajectory_error",
]
