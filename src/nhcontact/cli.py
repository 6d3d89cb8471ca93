"""Command-line experiment runner.

Subcommands: ``run`` (one experiment, CSV artifacts), ``compare`` (several
integrators against the system's reference), ``convergence`` (order study)
and ``list`` (catalog).  Output is deterministic: repeated runs of the same
configuration produce byte-identical trajectory CSV.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from .analysis import convergence_order
from .contact import StepStats, run_contact
from .experiments import (
    CATALOG,
    MAX_STEPS,
    UnknownExperiment,
    UnsupportedExperiment,
    catalog_ids,
    get_experiment,
    run_experiment,
)
from .model import DiscretizationRule, Integrator, PositionRule, Trajectory, ZRule
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


def _write_csv(path: str, header: list, rows) -> None:
    """Every CSV the CLI writes but the trajectory: text cells as they are,
    numbers to 17 significant digits, so that a float reads back to the same
    value."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(c if isinstance(c, str) else format(float(c), ".17g")
                             for c in row))
            f.write("\n")


#: Rows that :func:`write_trajectory_csv` formats with one ``%`` and writes
#: with one ``write``; chunks keep a 4,000,000-step run's text bounded.
CSV_CHUNK_ROWS = 4096


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """``trajectory.csv``: one row per time, its numbers written as
    :func:`_write_csv` writes them, :data:`CSV_CHUNK_ROWS` rows at a time."""
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
    # the first row carries no multipliers; "%.17g" formats a float exactly
    # as format(c, ".17g") does, without a call per cell
    lams = np.vstack([np.zeros((1, m)), traj.multipliers])
    table = np.column_stack([traj.times, traj.configurations, traj.velocities,
                             traj.z_values, lams, traj.energies])
    template = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            chunk = table[start:start + CSV_CHUNK_ROWS]
            f.write((template * len(chunk)) % tuple(chunk.ravel().tolist()))


def write_summary_csv(path: str, traj: Trajectory, wall_time: float,
                      stats: StepStats, max_constraint: float) -> None:
    _write_csv(path, ["termination", "final_time", "wall_time", "newton_total_iterations",
                      "newton_max_iterations", "max_constraint_residual"],
               [[traj.termination.status, traj.times[-1], wall_time,
                 str(stats.total_iterations), str(stats.max_iterations), max_constraint]])


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
        try:
            with open(args.config) as f:
                lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise UnsupportedExperiment(f"cannot read config {args.config}: {exc}") from None
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, value = _parse_override(line)
            overrides[key] = value
    for pair in getattr(args, "override", None) or []:
        key, value = _parse_override(pair)
        overrides[key] = value
    for key, convert in OVERRIDE_TYPES.items():
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = convert(value)
    return overrides


def _resolve_spec(args):
    overrides = _collect_overrides(args)
    rule_name = overrides.pop("rule", None)
    spec = get_experiment(args.experiment, **overrides)
    if rule_name:
        if rule_name not in RULE_NAMES:
            raise UnsupportedExperiment(f"unknown rule {rule_name!r}")
        spec = replace(spec, rule=replace(RULE_NAMES[rule_name], h=spec.h))
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


def _report_failure(label: str, traj: Trajectory) -> None:
    """One stderr line saying where and why a run stopped, when it failed;
    the CSV files hold only the termination status."""
    term = traj.termination
    if not term.completed:
        print(f"{label}: {term.status} at step {term.step}: {term.message}",
              file=sys.stderr)


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
    # the reference integrators record no steps: their summary reads 0
    write_summary_csv(os.path.join(out, "summary.csv"), traj, wall, stats,
                      stats.max_constraint)
    print(f"{args.experiment}: {traj.termination.status}, "
          f"{traj.n_steps} steps, wrote {out}")
    _report_failure(args.experiment, traj)
    return EXIT_OK if traj.termination.completed else EXIT_SOLVER_FAILURE


def cmd_compare(args) -> int:
    names = args.integrators
    runs = {}
    status = EXIT_OK
    try:
        base = _resolve_spec(args)
        for name in names:
            traj = run_experiment(replace(base, integrator=Integrator(name)))
            runs[name] = traj
            if not traj.termination.completed:
                status = EXIT_SOLVER_FAILURE

        reference_name = "rkf45" if base.system_id == "foucault" else "implicit-dae"
        if reference_name not in runs:
            runs[reference_name] = run_experiment(
                replace(base, integrator=Integrator(reference_name)))
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

    _write_csv(os.path.join(out, "summary.csv"), ["integrator", "termination", "final_time"],
               ([name, traj.termination.status, traj.times[-1]]
                for name, traj in runs.items()))
    print(f"{args.experiment}: compared {', '.join(names)} "
          f"against {reference_name}, wrote {out}")
    for name, traj in runs.items():
        _report_failure(f"{args.experiment} {name}", traj)
    return status


def cmd_convergence(args) -> int:
    alpha, omega, t_final = 0.1, 1.0, 10.0
    try:
        h_list = [float(v) for v in args.h_list.split(",")]
        if len(set(h_list)) < 2:
            raise UnsupportedExperiment("--h-list needs at least two distinct step sizes")
        studies = []
        for rule_name in args.rules.split(","):
            if rule_name not in RULE_NAMES:
                raise UnsupportedExperiment(f"unknown rule {rule_name!r}")
            studies.append((rule_name, [replace(RULE_NAMES[rule_name], h=h)
                                        for h in h_list]))
        # the rules have checked that every h is positive and finite
        if t_final / min(h_list) > MAX_STEPS:
            raise UnsupportedExperiment(f"h = {min(h_list):g} takes more than {MAX_STEPS} steps")
        # each error is taken at t_final, so each h must divide it, up to round-off
        for h in h_list:
            if not math.isclose(round(t_final / h) * h, t_final, rel_tol=1e-9):
                raise UnsupportedExperiment(f"h = {h:g} does not divide t_final = {t_final:g}")
    except ValueError as exc:
        return _unsupported(exc)

    out = _output_dir(args, "convergence")
    system = damped_oscillator(alpha, omega)
    rows = []
    status = EXIT_OK
    for rule_name, rules in studies:
        pairs = []
        for rule in rules:
            n = int(round(t_final / rule.h))
            traj = run_contact(system, rule, np.array([1.0]), np.array([0.0]), n,
                               NewtonConfig(tolerance=1e-12))
            if not traj.termination.completed:
                # a truncated run has no error at t_final: the rule measures no order
                _report_failure(f"{rule_name} h={rule.h:g}", traj)
                status = EXIT_SOLVER_FAILURE
                pairs = None
                break
            err = abs(traj.configurations[-1, 0]
                      - damped_oscillator_solution(alpha, omega, t_final))
            pairs.append((rule.h, err))
        if pairs is None:
            print(f"{rule_name}: no order measured")
            continue
        order = convergence_order(pairs)
        for h, err in pairs:
            rows.append([rule_name, h, err, order])
        print(f"{rule_name}: measured order {order:.3f}")
    _write_csv(os.path.join(out, "orders.csv"), ["rule", "h", "error", "order"], rows)
    return status


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that reads a token such as ``-1e-3`` as a negative
    number, so that it can be an option's value; argparse's own pattern
    takes exponent notation for an option name.  The subcommand parsers are
    of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
