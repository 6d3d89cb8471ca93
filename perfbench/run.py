#!/usr/bin/env python3
"""Seeded simulation-sweep benchmark of the nhcontact library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload foucault-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload in a closed loop: one client, the next run
starts when the previous one ends.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced pass (see
``tracer.py``).  ``--smoke`` runs every workload at tiny size in both modes
and checks that every metric of ``BENCHMARK.json`` is printed with its unit.
The last line of standard output is the JSON result; the line before it,
starting with ``report``, records the machine, the build, the trajectory
digests and the failures.
"""

import os

# Pin BLAS threads before numpy loads, so lstsq/eigh do not oversubscribe the cores.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

LIB_MODULES = ("experiments", "cli", "model", "analysis", "contact", "dalembert",
               "newton", "reference", "systems")

#: Set-up is repeated this many times per process; its median is reported.
SETUP_REPEATS = 5

#: A run's tail time is the slowest run that still has this many runs slower than it.
TAIL_RUNS_BEYOND = 10

#: Times are reported at a fixed machine speed: the one at which
#: ``speed_probe`` takes PROBE_REFERENCE_S.  The CPU speed seen by one process
#: on a shared 2-core sandbox moves between about 0.55x and 1x, in episodes
#: of 5-20 s and in faster flickers (a 1 s busy loop timed for 3 minutes), so
#: raw wall times of two processes differ by up to 50%.  ``SpeedMeter``
#: samples the probe before, during (every PROBE_PERIOD_S, from a SIGALRM
#: handler) and after each timed section, and scales the section's wall time
#: by PROBE_REFERENCE_S / (mean probe time).
PROBE_REFERENCE_S = 0.0008
PROBE_PERIOD_S = 0.03

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "steps_per_s": "1/s",
    "completed_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "newton.iters_per_step": "iter/step",
    "newton.max_iters": "iter",
    "newton.converged_ratio": "ratio",
    "newton.residual_evals_per_iter": "evals/iter",
    "newton.fd_jacobian_calls": "calls/run",
    "newton.fd_jacobian_self_ms": "ms/run",
    "newton.solve_dense_calls": "calls/run",
    "newton.solve_dense_self_ms": "ms/run",
    "newton.self_ms": "ms/run",
    "contact.residual_calls_per_step": "calls/step",
    "contact.residual_self_ms": "ms/run",
    "contact.init_window_ms": "ms/run",
    "contact.driver_self_ms": "ms/run",
    "contact.self_ms": "ms/run",
    "model.partials_calls_per_step": "calls/step",
    "model.partials_self_ms": "ms/run",
    "model.ld_calls_per_step": "calls/step",
    "model.constraint_calls_per_step": "calls/step",
    "model.self_ms": "ms/run",
    "systems.calls_per_step": "calls/step",
    "systems.self_ms": "ms/run",
    "dalembert.residual_calls_per_step": "calls/step",
    "dalembert.self_ms": "ms/run",
    "reference.rkf45_ms": "ms/run",
    "reference.rkf45_rhs_calls": "calls/run",
    "reference.bdf2_ms": "ms/run",
    "reference.bdf2_residual_calls": "calls/run",
    "reference.consistent_init_ms": "ms/run",
    "reference.self_ms": "ms/run",
    "analysis.self_ms": "ms/run",
    "experiments.build_ms": "ms",
    "experiments.self_ms": "ms/run",
    "cli.write_ms": "ms/run",
    "cli.bytes_written": "bytes/run",
    "cli.constraint_check_ms": "ms/run",
    "cli.self_ms": "ms/run",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
}


# ---------------------------------------------------------------------------
# Machine and build record
# ---------------------------------------------------------------------------

def _git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _source_sha256():
    """Digest of the package sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "nhcontact")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as f:
        libraries = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def machine_record():
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads,
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARIABLES},
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# Set-up, warm-up and the closed loop
# ---------------------------------------------------------------------------

def load_library():
    """Import the package afresh (its modules are dropped first)."""
    for name in [n for n in sys.modules if n == "nhcontact" or n.startswith("nhcontact.")]:
        del sys.modules[name]
    importlib.import_module("nhcontact")
    importlib.import_module("nhcontact.cli")
    return SimpleNamespace(**{m: sys.modules[f"nhcontact.{m}"] for m in LIB_MODULES})


_PROBE_MATRIX = np.eye(4) + 0.1
_PROBE_START = np.linspace(0.1, 0.4, 4)


def _probe_residual(a, b, scale):
    out = np.empty(4)
    out[:2] = a[:2] * scale - b[:2]
    out[2:] = np.cos(a[2:]) + b[2:]
    return out


class _ProbePoint:
    __slots__ = ("x", "v")

    def __init__(self, x, v):
        self.x = x
        self.v = v

    def step(self, h):
        return _ProbePoint(self.x + h * self.v, self.v - h * self.x)


def speed_probe():
    """Seconds taken by a fixed mix like the library's work: small numpy
    operations behind Python calls, then object, dict and float-formatting
    work (0.8-1.7 ms on the 2-core sandbox).  With the numpy part alone the
    probe slowed less than the library in slow phases; with more of the
    pure-Python part, more."""
    b = _PROBE_START.copy()
    total = 0.0
    start = time.perf_counter()
    for _ in range(40):
        r = _probe_residual(_PROBE_START, b, 0.5)
        q = _PROBE_MATRIX @ r
        total += float(np.max(np.abs(q)))
        b = q * 1e-3 + b
    for _ in range(10):
        points = {j: _ProbePoint(j * 0.1, 1.0).step(0.01) for j in range(20)}
        total += len(",".join(format(p.x * p.x + p.v * p.v, ".17g") for p in points.values()))
    return time.perf_counter() - start


class SpeedMeter:
    """Wall time of code sections, and the same time scaled to the machine
    speed at which ``speed_probe`` takes PROBE_REFERENCE_S.

    With ``sample=True`` the probe also runs every PROBE_PERIOD_S inside the
    section, from a SIGALRM handler; the time those samples take is taken
    out of the section's wall time.  Without it (traced passes, where the
    samples would land inside layer spans) only the probes before and after
    the section count.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.last_probe = speed_probe()
        self._samples = []

    def _on_alarm(self, signum, frame):
        self._samples.append(speed_probe())

    def measure(self, fn, *args):
        """Run ``fn(*args)``; returns (result, raw seconds, speed factor)."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm) if self.sample else None
        start = time.perf_counter()
        try:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
            result = fn(*args)
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            raw = time.perf_counter() - start - sum(self._samples)
        after = speed_probe()
        probes = [self.last_probe, *self._samples, after]
        self.last_probe = after
        return result, raw, PROBE_REFERENCE_S * len(probes) / sum(probes)


def set_up(workloads, workload, seed, size):
    """Import, input generation and spec/system construction, repeated;
    returns the last library and pool, and every set-up time as
    (scaled, raw) seconds."""
    def once():
        lib = load_library()
        return lib, workloads.build_pool(lib, workload, seed, size)

    meter = SpeedMeter(sample=True)
    samples = []
    for _ in range(SETUP_REPEATS):
        (lib, pool), raw, speed = meter.measure(once)
        samples.append((raw * speed, raw))
    return lib, pool, samples


def sha256_of(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def closed_loop(workloads, lib, pool, out_dir, seconds=None, rounds=None, tracer=None,
                sample_speed=True):
    """Run whole rounds of the pool until ``seconds`` of wall time have
    passed or ``rounds`` rounds are done.  Returns the (round, variant,
    outcome) triples, the number of rounds and the digest of the first
    round's trajectory CSVs.  Each outcome's ``wall`` and ``speed`` come
    from a SpeedMeter (``sample_speed`` is its ``sample``)."""
    results = []
    digest = hashlib.sha256()
    meter = SpeedMeter(sample=sample_speed)
    start = time.perf_counter()
    done = 0
    while True:
        for variant in pool[done % len(pool)]:
            if tracer is not None:
                tracer.run_id = len(results)
            outcome, raw, speed = meter.measure(workloads.run_variant, lib, variant, out_dir)
            outcome.wall, outcome.speed = raw, speed
            results.append((done, variant, outcome))
            if done == 0:
                digest.update(sha256_of(outcome.csv_paths).encode())
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    return results, done, digest.hexdigest()


def tail(values):
    """(value, percentile) of the slowest run that has TAIL_RUNS_BEYOND runs
    slower than it; the slowest run when there are too few runs."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 1 - TAIL_RUNS_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def round_throughputs(results, scaled=True):
    """Completed steps per second of wall time, one value per round."""
    per_round = {}
    for round_number, _, outcome in results:
        steps, wall = per_round.get(round_number, (0, 0.0))
        wall += outcome.wall * (outcome.speed if scaled else 1.0)
        per_round[round_number] = (steps + outcome.steps, wall)
    return [steps / wall for steps, wall in per_round.values()]


def scaled_busy(results):
    return sum(o.wall * o.speed for _, _, o in results)


def failure_summary(results):
    counts = {}
    for _, _, outcome in results:
        if outcome.failure is not None:
            counts[outcome.failure] = counts.get(outcome.failure, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(results, setup_samples):
    walls_ms = [o.wall * o.speed * 1e3 for _, _, o in results]
    raw_walls_ms = [o.wall * 1e3 for _, _, o in results]
    failed = sum(o.failure is not None for _, _, o in results)
    tail_ms, tail_pct = tail(walls_ms)
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setup_samples),
        "run_ms_p50": statistics.median(walls_ms),
        "run_ms_tail": tail_ms,
        "steps_per_s": statistics.median(round_throughputs(results)),
        "completed_share": 1.0 - failed / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "runs": len(results), "run_ms_tail_percentile": tail_pct,
        "speed_factor_median": statistics.median(o.speed for _, _, o in results),
        "raw": {"setup_s": statistics.median(raw for _, raw in setup_samples),
                "run_ms_p50": statistics.median(raw_walls_ms),
                "run_ms_tail": tail(raw_walls_ms)[0],
                "steps_per_s": statistics.median(round_throughputs(results, scaled=False))},
    }
    return metrics, details


def per_layer_metrics(tracer, results, plain_busy, build_s):
    """Per-layer counts and times of the traced pass.  Times are raw wall
    times; only the overhead estimate, which compares two passes run at
    different moments, uses speed-scaled busy times."""
    runs = len(results)
    contact_steps = sum(o.steps for _, v, o in results if v.spec.integrator.value == "contact")
    la_steps = sum(o.steps for _, v, o in results if v.spec.integrator.value == "la")
    steps = contact_steps + la_steps
    busy = sum(o.wall for _, _, o in results)
    t = tracer

    def calls(*names):
        return t.total(t.calls, *names)

    def self_s(*names):
        return t.total(t.self_time, *names)

    def incl_s(*names):
        return t.total(t.inclusive, *names)

    def per_run_ms(seconds):
        return 1e3 * seconds / runs

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls("newton.newton_solve")
    newton = t.newton
    system_calls = sum(c for n, c in zip(t.names, t.calls) if n.startswith("systems."))
    covered = sum(t.self_time)
    return {
        "newton.iters_per_step": ratio(newton["iterations"], solves),
        "newton.max_iters": newton["max_iterations"],
        "newton.converged_ratio": ratio(solves - t.total(t.errors, "newton.newton_solve"), solves),
        "newton.residual_evals_per_iter": ratio(newton["residual_evals"], newton["iterations"]),
        "newton.fd_jacobian_calls": calls("newton.fd_jacobian") / runs,
        "newton.fd_jacobian_self_ms": per_run_ms(self_s("newton.fd_jacobian")),
        "newton.solve_dense_calls": calls("newton.solve_dense") / runs,
        "newton.solve_dense_self_ms": per_run_ms(self_s("newton.solve_dense")),
        "newton.self_ms": per_run_ms(t.layer_self_time("newton")),
        "contact.residual_calls_per_step": ratio(calls("contact.contact_residual"), contact_steps),
        "contact.residual_self_ms": per_run_ms(self_s("contact.contact_residual")),
        "contact.init_window_ms": per_run_ms(incl_s("contact.initialize_window")),
        "contact.driver_self_ms": per_run_ms(t.layer_self_time("contact")
                                             - self_s("contact.contact_residual")),
        "contact.self_ms": per_run_ms(t.layer_self_time("contact")),
        "model.partials_calls_per_step": ratio(calls("model.partials_of_Ld"), steps),
        "model.partials_self_ms": per_run_ms(self_s("model.partials_of_Ld")),
        "model.ld_calls_per_step": ratio(calls("model.evaluate_discrete_lagrangian"), steps),
        "model.constraint_calls_per_step": ratio(calls("model.discrete_constraint"), steps),
        "model.self_ms": per_run_ms(t.layer_self_time("model")),
        "systems.calls_per_step": ratio(system_calls, steps),
        "systems.self_ms": per_run_ms(t.layer_self_time("systems")),
        "dalembert.residual_calls_per_step": ratio(calls("dalembert.la_residual"), la_steps),
        "dalembert.self_ms": per_run_ms(t.layer_self_time("dalembert")),
        "reference.rkf45_ms": per_run_ms(incl_s("reference.rkf45_integrate")),
        "reference.rkf45_rhs_calls": calls("systems.reference_ode_rhs") / runs,
        "reference.bdf2_ms": per_run_ms(incl_s("reference.implicit_dae_integrate")),
        "reference.bdf2_residual_calls": t.bdf2_residual_calls / runs,
        "reference.consistent_init_ms": per_run_ms(incl_s("reference.consistent_init")),
        "reference.self_ms": per_run_ms(t.layer_self_time("reference")),
        "analysis.self_ms": per_run_ms(t.layer_self_time("analysis")),
        "experiments.build_ms": 1e3 * build_s,
        "experiments.self_ms": per_run_ms(t.layer_self_time("experiments")),
        "cli.write_ms": per_run_ms(incl_s("cli.write_trajectory_csv", "cli.write_summary_csv")),
        "cli.bytes_written": sum(o.bytes_written for _, _, o in results) / runs,
        "cli.constraint_check_ms": per_run_ms(incl_s("cli.constraint_check")),
        "cli.self_ms": per_run_ms(t.layer_self_time("cli")),
        "trace.overhead_pct": 100.0 * (scaled_busy(results) - plain_busy) / plain_busy,
        "trace.uncovered_pct": 100.0 * (busy - covered) / busy,
    }


# ---------------------------------------------------------------------------
# One workload process
# ---------------------------------------------------------------------------

def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "nhcontact", "__init__.py")):
        print(f"perfbench: no package sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.size]
    out_dir = os.path.join(OUT_ROOT, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    lib, pool, setup_samples = set_up(workloads, workload, args.seed, size)

    warm = workloads.run_variant(lib, workloads.warmup_variant(lib, workload, size), out_dir)
    if warm.failure is not None:
        print(f"perfbench: warm-up run failed ({warm.failure})", file=sys.stderr)
        return 1
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "loop": "closed, 1 client",
        "machine": machine_record(),
        "catalog_trajectory_sha256": sha256_of(warm.csv_paths),
        "setup_samples_s": setup_samples,
    }

    if args.trace == 0:
        results, rounds, digest = closed_loop(workloads, lib, pool, out_dir,
                                              seconds=args.seconds)
        metrics, details = end_to_end_metrics(results, setup_samples)
        units = END_TO_END_UNITS
        report.update(details)
    else:
        # Untraced pass for the overhead, then the same rounds traced.
        plain, rounds, digest = closed_loop(workloads, lib, pool, out_dir,
                                            seconds=args.seconds / 2.0, sample_speed=False)
        tracer = tracing.Tracer()
        tracer.install(lib)
        tracer.patch(workloads, "constraint_check", "cli.constraint_check")
        try:
            traced_pool = workloads.build_pool(lib, workload, args.seed, size)
            build_s = tracer.total(tracer.inclusive, "experiments.get_experiment",
                                   "experiments.build_contact_system",
                                   "experiments.build_la_system")
            tracer.reset()
            origin = time.perf_counter()
            results, _, _ = closed_loop(workloads, lib, traced_pool, out_dir,
                                        rounds=rounds, tracer=tracer, sample_speed=False)
        finally:
            tracer.uninstall()
        tracer.write_spans(os.path.join(out_dir, "spans.csv"), origin)
        metrics = per_layer_metrics(tracer, results, scaled_busy(plain), build_s)
        units = PER_LAYER_UNITS
        report.update(runs=len(results), untraced_runs=len(plain),
                      spans_kept=len(tracer.spans), patch_sites_missing=tracer.missing)

    failed = sum(o.failure is not None for _, _, o in results)
    report.update(rounds=rounds, variants_trajectory_sha256=digest,
                  failed_share=failed / len(results), failures=failure_summary(results))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':34s} {report['failed_share']:14.6g} ratio")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not any(o.incorrect for _, _, o in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------

def smoke():
    """Every workload at tiny size, both modes, in child processes; checks
    that each metric of BENCHMARK.json is printed, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for entry in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [sys.executable, os.path.abspath(__file__), "--workload", entry["name"],
                       "--seed", "1", "--seconds", "1", "--trace", str(trace),
                       "--size", "tiny"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            label = f"{entry['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-2]))
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{label}: an output check failed")
            for metric in listed:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or wrong unit: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in listed}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for problem in problems:
        print("SMOKE FAIL " + problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="variant sizes; tiny is for --smoke")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
