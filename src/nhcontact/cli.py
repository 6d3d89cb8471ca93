"""Command-line experiment runner.

Subcommands: ``run`` (one experiment, CSV artifacts), ``compare`` (several
integrators against the system's reference), ``convergence`` (order study)
and ``list`` (catalog).  Output is deterministic: repeated runs of the same
configuration produce byte-identical trajectory CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .analysis import convergence_order, trajectory_error
from .contact import StepStats, run_contact
from .experiments import (
    CATALOG,
    UnknownExperiment,
    UnsupportedExperiment,
    build_contact_system,
    catalog_ids,
    get_experiment,
    run_experiment,
)
from .model import (
    ContactSystem,
    DiscretizationRule,
    Integrator,
    PositionRule,
    Trajectory,
    ZRule,
    discrete_constraint,
)
from .newton import NewtonConfig
from .systems import damped_oscillator, damped_oscillator_solution

OUTPUT_ROOT_ENV = "NHCONTACT_OUTPUT_ROOT"

RULE_NAMES = {
    "left-first": DiscretizationRule(PositionRule.LEFT_ENDPOINT, ZRule.FIRST_ORDER, 1.0),
    "mid-second": DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 1.0),
    "trap-first": DiscretizationRule(PositionRule.TRAPEZOIDAL, ZRule.FIRST_ORDER, 1.0),
}

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_SOLVER_FAILURE = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(c) if isinstance(c, str) else _fmt(c) for c in row))
            f.write("\n")


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    n = traj.configurations.shape[1]
    m = traj.multipliers.shape[1]
    header = (
        ["t"]
        + [f"q_{i + 1}" for i in range(n)]
        + [f"qdot_{i + 1}" for i in range(n)]
        + ["z"]
        + [f"lambda_{i + 1}" for i in range(m)]
        + ["E"]
    )

    def rows():
        for j in range(len(traj.times)):
            lam = traj.multipliers[j - 1] if j > 0 else np.zeros(m)
            yield (
                [traj.times[j]]
                + list(traj.configurations[j])
                + list(traj.velocities[j])
                + [traj.z_values[j]]
                + list(lam)
                + [traj.energies[j]]
            )

    _write_csv(path, header, rows())


def _max_constraint_residual(system: ContactSystem, rule: DiscretizationRule,
                             traj: Trajectory) -> float:
    if system.dim_c == 0 or traj.n_steps == 0:
        return 0.0
    worst = 0.0
    for j in range(traj.n_steps):
        r = discrete_constraint(system, rule, traj.configurations[j],
                                traj.configurations[j + 1])
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def write_summary_csv(path: str, traj: Trajectory, wall_time: float,
                      stats: StepStats, max_constraint: float) -> None:
    header = ["termination", "final_time", "wall_time",
              "newton_total_iterations", "newton_max_iterations",
              "max_constraint_residual"]
    row = [traj.termination.status, _fmt(traj.times[-1]), _fmt(wall_time),
           str(stats.total_iterations), str(stats.max_iterations),
           _fmt(max_constraint)]
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.write(",".join(row) + "\n")


#: Spec fields settable by ``--override`` and ``--config``, with the
#: conversion of their text values; ``rule`` names an entry of RULE_NAMES.
OVERRIDE_TYPES = {"alpha": float, "h": float, "t_final": float,
                  "integrator": Integrator, "rule": str}


def _parse_override(pair: str):
    key, _, raw = pair.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in OVERRIDE_TYPES:
        raise UnsupportedExperiment(
            f"unknown override {key}; settable: {', '.join(sorted(OVERRIDE_TYPES))}")
    try:
        return key, OVERRIDE_TYPES[key](raw)
    except ValueError:
        raise UnsupportedExperiment(f"invalid value {raw!r} for {key}") from None


def _collect_overrides(args) -> dict:
    overrides = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, value = _parse_override(line)
                overrides[key] = value
    for pair in getattr(args, "override", None) or []:
        key, value = _parse_override(pair)
        overrides[key] = value
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = args.alpha
    if getattr(args, "h", None) is not None:
        overrides["h"] = args.h
    if getattr(args, "t_final", None) is not None:
        overrides["t_final"] = args.t_final
    if getattr(args, "integrator", None) is not None:
        overrides["integrator"] = Integrator(args.integrator)
    return overrides


def _resolve_spec(args):
    overrides = _collect_overrides(args)
    rule_name = overrides.pop("rule", None) or getattr(args, "rule", None)
    spec = get_experiment(args.experiment, **overrides)
    if rule_name:
        if rule_name not in RULE_NAMES:
            raise UnsupportedExperiment(f"unknown rule {rule_name!r}")
        base = RULE_NAMES[rule_name]
        rule = DiscretizationRule(base.position_rule, base.z_rule, spec.h)
        fields = {f: getattr(spec, f) for f in spec.__dataclass_fields__}
        fields["rule"] = rule
        spec = type(spec)(**fields)
    return spec


def _output_dir(args, default_name: str) -> str:
    if args.output_dir:
        out = args.output_dir
    else:
        root = os.environ.get(OUTPUT_ROOT_ENV, ".")
        out = os.path.join(root, default_name)
    os.makedirs(out, exist_ok=True)
    return out


def cmd_list(args) -> int:
    for eid in catalog_ids():
        spec = CATALOG[eid]
        print(f"{eid}: {spec.system_id}, alpha={spec.alpha:g}, "
              f"h={spec.h:g}, t_final={spec.t_final:g}")
    return EXIT_OK


def _unknown(experiment: str) -> int:
    print(f"unknown experiment {experiment!r}; available:", file=sys.stderr)
    for eid in catalog_ids():
        print(f"  {eid}", file=sys.stderr)
    return EXIT_UNKNOWN


def _unsupported(exc: ValueError) -> int:
    print(f"unsupported: {exc}", file=sys.stderr)
    return EXIT_UNKNOWN


def cmd_run(args) -> int:
    try:
        spec = _resolve_spec(args)
        stats = StepStats()
        start = time.perf_counter()
        traj = run_experiment(spec, stats=stats)
        wall = time.perf_counter() - start
    except UnknownExperiment:
        return _unknown(args.experiment)
    except UnsupportedExperiment as exc:
        return _unsupported(exc)

    out = _output_dir(args, args.experiment)
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj)
    if spec.integrator in (Integrator.CONTACT, Integrator.LAGRANGE_DALEMBERT):
        if spec.integrator is Integrator.CONTACT:
            system = build_contact_system(spec)
        else:
            from .experiments import build_la_system
            system = build_la_system(spec)
        max_c = _max_constraint_residual(system, spec.rule, traj)
    else:
        max_c = 0.0
    write_summary_csv(os.path.join(out, "summary.csv"), traj, wall, stats, max_c)
    print(f"{args.experiment}: {traj.termination.status}, "
          f"{traj.n_steps} steps, wrote {out}")
    return EXIT_OK if traj.termination.completed else EXIT_SOLVER_FAILURE


def cmd_compare(args) -> int:
    names = args.integrators
    runs = {}
    status = EXIT_OK
    try:
        base = _resolve_spec(args)
        fields = {f: getattr(base, f) for f in base.__dataclass_fields__}
        for name in names:
            fields["integrator"] = Integrator(name)
            traj = run_experiment(type(base)(**fields))
            runs[name] = traj
            if not traj.termination.completed:
                status = EXIT_SOLVER_FAILURE

        reference_name = "rkf45" if base.system_id == "foucault" else "implicit-dae"
        if reference_name not in runs:
            fields["integrator"] = Integrator(reference_name)
            runs[reference_name] = run_experiment(type(base)(**fields))
    except UnknownExperiment:
        return _unknown(args.experiment)
    except UnsupportedExperiment as exc:
        return _unsupported(exc)

    out = _output_dir(args, f"{args.experiment}-compare")

    ref = runs[reference_name]
    n_rows = min(len(t.times) for t in runs.values())
    header = ["t"] + [f"err_{name}" for name in names] \
        + [f"dE_{name}" for name in names]
    rows = []
    for j in range(n_rows):
        row = [ref.times[j]]
        for name in names:
            row.append(float(np.linalg.norm(
                runs[name].configurations[j] - ref.configurations[j])))
        for name in names:
            row.append(float(runs[name].energies[j] - ref.energies[j]))
        rows.append(row)
    _write_csv(os.path.join(out, "comparison.csv"), header, rows)

    header = ["integrator", "termination", "final_time"]
    with open(os.path.join(out, "summary.csv"), "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for name, traj in runs.items():
            f.write(f"{name},{traj.termination.status},{_fmt(traj.times[-1])}\n")
    print(f"{args.experiment}: compared {', '.join(names)} "
          f"against {reference_name}, wrote {out}")
    return status


def cmd_convergence(args) -> int:
    try:
        h_list = [float(v) for v in args.h_list.split(",")]
        studies = []
        for rule_name in args.rules.split(","):
            if rule_name not in RULE_NAMES:
                raise UnsupportedExperiment(f"unknown rule {rule_name!r}")
            base = RULE_NAMES[rule_name]
            studies.append((rule_name, [DiscretizationRule(base.position_rule, base.z_rule, h)
                                        for h in h_list]))
    except ValueError as exc:
        return _unsupported(exc)

    out = _output_dir(args, "convergence")
    alpha, omega, t_final = 0.1, 1.0, 10.0
    system = damped_oscillator(alpha, omega)
    rows = []
    for rule_name, rules in studies:
        pairs = []
        for rule in rules:
            n = int(round(t_final / rule.h))
            traj = run_contact(system, rule, np.array([1.0]), np.array([0.0]), n,
                               NewtonConfig(tolerance=1e-12))
            err = abs(traj.configurations[-1, 0]
                      - damped_oscillator_solution(alpha, omega, t_final))
            pairs.append((rule.h, err))
        order = convergence_order(pairs)
        for h, err in pairs:
            rows.append([rule_name, _fmt(h), _fmt(err), _fmt(order)])
        print(f"{rule_name}: measured order {order:.3f}")
    _write_csv(os.path.join(out, "orders.csv"),
               ["rule", "h", "error", "order"],
               ([str(c) for c in row] for row in rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhcontact",
        description="Variational integrators for dissipative nonholonomic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_experiment=True):
        if with_experiment:
            p.add_argument("experiment")
        p.add_argument("--integrator",
                       choices=[i.value for i in Integrator], default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--t-final", dest="t_final", type=float, default=None)
        p.add_argument("--rule", choices=sorted(RULE_NAMES), default=None)
        p.add_argument("--output-dir", default=None)
        p.add_argument("--override", action="append", metavar="k=v")
        p.add_argument("--config", default=None,
                       help="file of key=value override lines")

    p_run = sub.add_parser("run", help="run one catalog experiment")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run several integrators against the reference")
    add_common(p_cmp)
    p_cmp.add_argument("--integrators", nargs="+",
                       default=["contact"],
                       choices=[i.value for i in Integrator])
    p_cmp.set_defaults(func=cmd_compare)

    p_conv = sub.add_parser("convergence", help="damped-oscillator order study")
    p_conv.add_argument("--h-list", default="0.1,0.05,0.025,0.0125")
    p_conv.add_argument("--rules", default="left-first,mid-second")
    p_conv.add_argument("--output-dir", default=None)
    p_conv.set_defaults(func=cmd_convergence)

    p_list = sub.add_parser("list", help="list catalog experiments")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
