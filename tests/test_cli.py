import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from nhcontact.cli import (
    CSV_CHUNK_ROWS,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    EXIT_UNKNOWN,
    RULE_NAMES,
    main,
    write_trajectory_csv,
)
from nhcontact.contact import run_contact
from nhcontact.experiments import (
    MAX_STEPS,
    UnsupportedExperiment,
    get_experiment,
    run_experiment,
)
from nhcontact.model import (
    DiscretizationRule,
    Integrator,
    PositionRule,
    Termination,
    Trajectory,
    ZRule,
)
from nhcontact.systems import damped_oscillator


def run_cli(args):
    return main(args)


def test_list_exits_zero(capsys):
    assert run_cli(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "foucault-1" in out and "disk-4.3" in out


def test_unknown_experiment(capsys):
    assert run_cli(["run", "not-a-thing"]) == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert "foucault-1" in err  # catalog listed on error


@pytest.mark.parametrize("args", [
    ["run", "disk-2.1", "--integrator", "la"],
    ["run", "disk-2.1", "--integrator", "rkf45"],
    ["compare", "disk-2.1", "--integrators", "la"],
    ["run", "foucault-1", "--override", "foo=1"],
    ["run", "foucault-1", "--override", "rule=foo"],
    ["run", "foucault-1", "--h", "0"],
    ["run", "foucault-1", "--h", "nan"],
    ["run", "foucault-1", "--t-final", "-1"],
    ["compare", "foucault-1", "--t-final", "inf"],
    ["run", "foucault-1", "--override", "h=abc"],
    ["run", "foucault-1", "--override", "integrator=foo"],
    ["run", "foucault-1", "--override", "q0=1"],
    ["convergence", "--h-list", "0.1,abc"],
    ["convergence", "--h-list", "0.1,0"],
    ["convergence", "--rules", "left-first,foo"],
    ["run", "foucault-1", "--config", "nonexistent-dir/overrides.cfg"],
    ["run", "foucault-1", "--t-final", "1", "--h", "1e-300"],
    ["convergence", "--h-list", "1e-300"],
    ["convergence", "--h-list", "0.1"],
    ["convergence", "--h-list", "0.1,0.1"],
    ["convergence", "--h-list", "4,2"],
], ids=["run-disk-la", "run-disk-rkf45", "compare-disk-la", "unknown-override",
        "unknown-rule", "zero-h", "nan-h", "negative-t-final", "compare-inf-t-final",
        "text-h", "unknown-integrator-override", "array-override",
        "convergence-text-h", "convergence-zero-h", "convergence-unknown-rule",
        "missing-config", "step-count-over-bound", "convergence-step-count-over-bound",
        "convergence-one-h", "convergence-repeated-h", "convergence-h-not-dividing-t-final"])
def test_unsupported_input_one_error_line(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(args + ["--output-dir", str(out)]) == EXIT_UNKNOWN == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_step_count_bound():
    # specs are only built, never run: nothing is allocated
    h = 0.5
    assert get_experiment("foucault-1", h=h, t_final=MAX_STEPS * h).t_final == MAX_STEPS * h
    with pytest.raises(UnsupportedExperiment, match="more than"):
        get_experiment("foucault-1", h=h, t_final=(MAX_STEPS + 1) * h)
    with pytest.raises(UnsupportedExperiment, match="more than"):
        get_experiment("foucault-1", t_final=1.0, h=5e-324)
    # the refined run of acceptance criterion 6 stays inside the bound
    get_experiment("foucault-2", h=0.05 / 20.0, integrator=Integrator.LAGRANGE_DALEMBERT)


def test_step_size_lives_in_the_rule():
    # a spec has one step size, its rule's: an h override moves the rule,
    # an overridden one too, and the spec itself cannot be given another
    spec = get_experiment("foucault-1", t_final=2.0)
    with pytest.raises(TypeError):
        replace(spec, h=0.1)
    assert get_experiment("foucault-1", h=0.1).rule.h == 0.1
    mid = DiscretizationRule(PositionRule.MIDPOINT, ZRule.SECOND_ORDER, 0.05)
    spec = get_experiment("foucault-1", rule=mid, h=0.1)
    assert spec.h == spec.rule.h == 0.1
    assert spec.rule.position_rule is PositionRule.MIDPOINT


def test_integrator_override_is_converted(tmp_path):
    flag, override = tmp_path / "flag", tmp_path / "override"
    assert run_cli(["run", "foucault-1", "--t-final", "1", "--integrator", "la",
                    "--output-dir", str(flag)]) == EXIT_OK
    assert run_cli(["run", "foucault-1", "--t-final", "1", "--override", "integrator=la",
                    "--output-dir", str(override)]) == EXIT_OK
    assert (override / "trajectory.csv").read_bytes() == (flag / "trajectory.csv").read_bytes()


def test_run_zero_horizon_single_row(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["run", "foucault-1", "--t-final", "0",
                    "--output-dir", str(out)])
    assert code == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one row
    header = lines[0].split(",")
    assert header == ["t", "q_1", "q_2", "qdot_1", "qdot_2", "z", "lambda_1", "E"]


def test_run_short_disk_writes_artifacts(tmp_path):
    out = tmp_path / "disk"
    code = run_cli(["run", "disk-2.3", "--t-final", "2",
                    "--output-dir", str(out)])
    assert code == EXIT_OK
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert len(traj) == 22  # header + 21 rows at h = 0.1
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("termination,final_time,wall_time")
    fields = dict(zip(summary[0].split(","), summary[1].split(",")))
    assert fields["termination"] == "completed"
    assert float(fields["final_time"]) == pytest.approx(2.0)
    assert float(fields["max_constraint_residual"]) <= 1e-5
    assert int(fields["newton_total_iterations"]) > 0


@pytest.mark.parametrize("args", [
    # at h = 0.8 the seed of the first window already fails to converge
    ["run", "disk-4.3", "--h", "0.8", "--t-final", "10"],
    # the implicit DAE reference cannot initialize consistently
    ["run", "disk-2.3", "--integrator", "implicit-dae", "--t-final", "1", "--alpha", "1e10"],
    # a non-finite model: the consistent initialization's residual is NaN
    ["run", "disk-2.3", "--integrator", "implicit-dae", "--t-final", "1", "--alpha", "nan"],
    # the adaptive reference's right-hand side overflows to NaN
    pytest.param(["run", "foucault-1", "--integrator", "rkf45", "--alpha", "1e300",
                  "--t-final", "10"], marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    # a step so large that the seed's Taylor point overflows
    ["run", "foucault-1", "--h", "1e200", "--t-final", "1e200"],
    # a stiff pendulum: the adaptive reference stops on its stiffness test
    ["run", "foucault-1", "--integrator", "rkf45", "--alpha", "1e8", "--t-final", "1.5"],
], ids=["contact-seed", "dae-consistent-init", "dae-non-finite", "rkf45-non-finite",
        "contact-huge-step", "rkf45-stiff"])
def test_seeding_failure_exits_2_with_initial_row(args, tmp_path):
    out = tmp_path / "coarse"
    code = run_cli(args + ["--output-dir", str(out)])
    assert code == EXIT_SOLVER_FAILURE == 2
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header + the initial state
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("solver_failure")


def test_coarse_step_fails_instead_of_finding_a_spurious_root(tmp_path):
    # at h = 0.3 an uncapped exact-Jacobian Newton "completes" this run on a
    # spurious root (tilt -1.8 rad, z ~ 3e5) with up to 17 iterations a step
    out = tmp_path / "coarse"
    code = run_cli(["run", "disk-4.3", "--h", "0.3", "--t-final", "10",
                    "--output-dir", str(out)])
    assert code == EXIT_SOLVER_FAILURE
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("solver_failure")


def test_solver_failure_says_where_and_why_on_stderr(tmp_path, capsys):
    out = tmp_path / "coarse"
    code = run_cli(["run", "disk-2.3", "--h", "2.0", "--output-dir", str(out)])
    assert code == EXIT_SOLVER_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("disk-2.3: solver_failure at step 2: Newton did not converge "
                             "after 10 iterations (residual inf-norm ")
    # the CSV files keep their columns
    assert (out / "summary.csv").read_text().splitlines()[1].split(",")[0] == "solver_failure"
    assert len((out / "trajectory.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("integrator, build", [("contact", "build_contact_system"),
                                               ("la", "build_la_system")])
def test_injected_failure_exits_2_with_truncated_trajectory(integrator, build, tmp_path,
                                                            capsys, monkeypatch):
    # dL/dq turns NaN from t = 0.5 = 10 h on: the step from there, step 11,
    # fails in Newton from the quadratic start and again from the linear
    # retry, and the run ends there
    import nhcontact.experiments as experiments

    built = getattr(experiments, build)

    def poisoned(spec):
        system = built(spec)
        gradients = system.lagrangian_gradients

        def nan_from_half(t, q, v, z):
            gq, gv, gz = gradients(t, q, v, z)
            return (np.asarray(gq) * np.nan if t >= 0.5 else gq), gv, gz

        return replace(system, lagrangian_gradients=nan_from_half)

    monkeypatch.setattr(experiments, build, poisoned)
    out = tmp_path / integrator
    code = run_cli(["run", "foucault-1", "--integrator", integrator, "--t-final", "1",
                    "--output-dir", str(out)])
    assert code == EXIT_SOLVER_FAILURE == 2
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 11
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("solver_failure")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("foucault-1: solver_failure at step 11: residual is not finite ")


def test_long_disk_run_completes(tmp_path, capsys):
    # one step near t = 58 needs 8 Newton iterations from the linear start;
    # from the quadratic one Newton hits the 10-iteration cap there, and the
    # step is solved again from the linear start
    out = tmp_path / "long"
    assert run_cli(["run", "disk-2.3", "--t-final", "60", "--output-dir", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("completed")


def test_trajectory_rows_finite_and_monotone(tmp_path):
    out = tmp_path / "rows"
    run_cli(["run", "disk-3.1", "--t-final", "3", "--output-dir", str(out)])
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    assert np.all(np.diff(rows[:, 0]) > 0)
    assert rows.shape[1] == 1 + 5 + 5 + 1 + 2 + 1


def test_determinism_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["run", "disk-2.2", "--t-final", "3"]
    run_cli(args + ["--output-dir", str(out_a)])
    run_cli(args + ["--output-dir", str(out_b)])
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NHCONTACT_OUTPUT_ROOT", str(tmp_path))
    run_cli(["run", "foucault-1", "--t-final", "0"])
    assert (tmp_path / "foucault-1" / "trajectory.csv").exists()


def test_alpha_and_h_overrides(tmp_path):
    out = tmp_path / "ov"
    run_cli(["run", "disk-2.1", "--alpha", "0.02", "--h", "0.05",
             "--t-final", "1", "--output-dir", str(out)])
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 21  # h = 0.05 over 1 s
    assert rows[1, 0] == pytest.approx(0.05)


def test_negative_exponent_option_value(tmp_path):
    # argparse alone reads "-1e-3" as an option name and exits 2
    written = []
    for args in (["--alpha", "-1e-3"], ["--alpha=-1e-3"]):
        out = tmp_path / str(len(written))
        assert run_cli(["run", "foucault-1", *args, "--t-final", "1",
                        "--output-dir", str(out)]) == EXIT_OK
        written.append((out / "trajectory.csv").read_bytes())
    assert written[0] == written[1]


def test_override_pairs_and_config_file(tmp_path):
    cfg = tmp_path / "overrides.txt"
    cfg.write_text("t_final = 1\nh = 0.1\n")
    out = tmp_path / "cfg"
    run_cli(["run", "disk-2.1", "--config", str(cfg),
             "--override", "t_final=0.5", "--output-dir", str(out)])
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    # command line wins over the config file
    assert rows[-1, 0] == pytest.approx(0.5)


def test_rule_flag(tmp_path):
    out = tmp_path / "rule"
    code = run_cli(["run", "disk-2.1", "--t-final", "1", "--rule", "left-first",
                    "--output-dir", str(out)])
    assert code == EXIT_OK


@pytest.mark.parametrize("setting", ["override", "config"])
def test_rule_flag_wins_over_override_and_config(setting, tmp_path):
    # a flag wins over --override, which wins over --config, for every key
    cfg = tmp_path / "rule.cfg"
    cfg.write_text("rule = mid-second\n")
    other = {"override": ["--override", "rule=mid-second"], "config": ["--config", str(cfg)]}
    base = ["run", "disk-2.3", "--t-final", "1", "--rule", "left-first"]
    flag, both = tmp_path / "flag", tmp_path / "both"
    assert run_cli(base + ["--output-dir", str(flag)]) == EXIT_OK
    assert run_cli(base + other[setting] + ["--output-dir", str(both)]) == EXIT_OK
    assert (both / "trajectory.csv").read_bytes() == (flag / "trajectory.csv").read_bytes()


def test_compare_contact_vs_itself_zero_columns(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(["compare", "disk-2.1", "--t-final", "2",
                    "--integrators", "contact", "contact",
                    "--output-dir", str(out)])
    assert code == EXIT_OK
    rows = np.loadtxt(out / "comparison.csv", delimiter=",", skiprows=1)
    # identical integrators: identical error columns against the reference
    assert np.array_equal(rows[:, 1], rows[:, 2])


def test_compare_foucault_layout(tmp_path):
    out = tmp_path / "cmpf"
    code = run_cli(["compare", "foucault-1", "--t-final", "10",
                    "--integrators", "contact", "la",
                    "--output-dir", str(out)])
    assert code == EXIT_OK
    header = (out / "comparison.csv").read_text().splitlines()[0]
    assert header == "t,err_contact,err_la,dE_contact,dE_la"
    summary = (out / "summary.csv").read_text()
    assert "rkf45" in summary


def test_convergence_subcommand(tmp_path, capsys):
    out = tmp_path / "conv"
    code = run_cli(["convergence", "--h-list", "0.1,0.05,0.025",
                    "--rules", "left-first,mid-second",
                    "--output-dir", str(out)])
    assert code == EXIT_OK
    text = (out / "orders.csv").read_text()
    assert text.startswith("rule,h,error,order")
    printed = capsys.readouterr().out
    assert "left-first" in printed and "mid-second" in printed


def test_convergence_failed_run_measures_no_order(tmp_path, capsys):
    # the left-first run at h = 5 fails at step 2: that rule gets one stderr
    # line and no rows, the midpoint rule still measures its order
    out = tmp_path / "conv"
    code = run_cli(["convergence", "--h-list", "10,5", "--output-dir", str(out)])
    assert code == EXIT_SOLVER_FAILURE == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("left-first h=5: solver_failure at step 2: ")
    assert "left-first: measured order" not in captured.out
    assert "mid-second: measured order" in captured.out
    rows = (out / "orders.csv").read_text().splitlines()
    assert rows[0] == "rule,h,error,order"
    assert [row.split(",")[0] for row in rows[1:]] == ["mid-second", "mid-second"]


def test_run_uses_17_significant_digits(tmp_path):
    out = tmp_path / "digits"
    run_cli(["run", "disk-2.1", "--t-final", "1", "--output-dir", str(out)])
    second_row = (out / "trajectory.csv").read_text().splitlines()[2]
    t_field = second_row.split(",")[0]
    assert t_field == "0.10000000000000001"


def reference_write_trajectory_csv(path, traj):
    """Per-cell writer, the oracle for the bytes of
    :func:`~nhcontact.cli.write_trajectory_csv`."""
    n = traj.configurations.shape[1]
    m = traj.multipliers.shape[1]
    header = (["t"] + [f"q_{i + 1}" for i in range(n)] + [f"qdot_{i + 1}" for i in range(n)]
              + ["z"] + [f"lambda_{i + 1}" for i in range(m)] + ["E"])
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for j in range(len(traj.times)):
            lam = traj.multipliers[j - 1] if j > 0 else np.zeros(m)
            row = ([traj.times[j]] + list(traj.configurations[j])
                   + list(traj.velocities[j]) + [traj.z_values[j]] + list(lam)
                   + [traj.energies[j]])
            f.write(",".join(format(float(c), ".17g") for c in row) + "\n")


def edge_value_trajectory():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308,
                      0.1, -2.5e-17, 123456789.12345678])
    rows = 12
    cells = np.resize(edges, rows * 9).reshape(rows, 9)
    return Trajectory(
        times=cells[:, 0], configurations=cells[:, 1:3], velocities=cells[:, 3:5],
        z_values=cells[:, 5], multipliers=cells[1:, 6:8], energies=cells[:, 8],
        termination=Termination.done())


def random_trajectory(rows: int, m: int) -> Trajectory:
    """``rows`` rows of random numbers across 17 decades, with ``m``
    multipliers."""
    cells = np.random.default_rng(rows).normal(size=(rows, 7 + m)) * 10.0 ** np.arange(7 + m)
    return Trajectory(
        times=cells[:, 0], configurations=cells[:, 1:3], velocities=cells[:, 3:5],
        z_values=cells[:, 5], multipliers=cells[1:, 6:6 + m], energies=cells[:, -1],
        termination=Termination.done())


#: Row counts at the writer's chunk edges, where one "%" per chunk could
#: drop or repeat a row; a trajectory has at least its initial row.
CHUNK_EDGES = [1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]


@pytest.mark.parametrize("make", [
    edge_value_trajectory,
    # no constraints (m = 0)
    lambda: run_contact(damped_oscillator(), replace(RULE_NAMES["mid-second"], h=0.1),
                        np.array([1.0]), np.array([0.0]), 20),
    # a 0-step trajectory, a single row
    lambda: run_experiment(get_experiment("foucault-1", t_final=0.0)),
    *[partial(random_trajectory, rows, m) for m in (0, 2) for rows in CHUNK_EDGES],
], ids=["edge-values", "no-constraints", "zero-steps",
        *[f"{rows}-rows-m{m}" for m in (0, 2) for rows in CHUNK_EDGES]])
def test_trajectory_csv_bytes_match_per_cell_writer(make, tmp_path):
    traj = make()
    write_trajectory_csv(str(tmp_path / "new.csv"), traj)
    reference_write_trajectory_csv(str(tmp_path / "reference.csv"), traj)
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\n") == len(traj.times) + 1

