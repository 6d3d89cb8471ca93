import os

import numpy as np
import pytest

from nhcontact.cli import EXIT_OK, EXIT_SOLVER_FAILURE, EXIT_UNKNOWN, main
from nhcontact.experiments import MAX_STEPS, UnsupportedExperiment, get_experiment
from nhcontact.model import Integrator


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
], ids=["run-disk-la", "run-disk-rkf45", "compare-disk-la", "unknown-override",
        "unknown-rule", "zero-h", "nan-h", "negative-t-final", "compare-inf-t-final",
        "text-h", "unknown-integrator-override", "array-override",
        "convergence-text-h", "convergence-zero-h", "convergence-unknown-rule",
        "missing-config", "step-count-over-bound", "convergence-step-count-over-bound"])
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
    # the adaptive reference's right-hand side overflows to NaN
    pytest.param(["run", "foucault-1", "--integrator", "rkf45", "--alpha", "1e300",
                  "--t-final", "10"], marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
], ids=["contact-seed", "dae-consistent-init", "rkf45-non-finite"])
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


def test_run_uses_17_significant_digits(tmp_path):
    out = tmp_path / "digits"
    run_cli(["run", "disk-2.1", "--t-final", "1", "--output-dir", str(out)])
    second_row = (out / "trajectory.csv").read_text().splitlines()[2]
    t_field = second_row.split(",")[0]
    assert t_field == "0.10000000000000001"
