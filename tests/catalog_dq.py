"""Largest catalog |dq| between two source trees, against the first tree's
own solver error.

    python tests/catalog_dq.py OLD_SRC NEW_SRC [--ids ID ...] [--t-final T] [--jobs N]

``OLD_SRC`` and ``NEW_SRC`` are directories that hold the ``nhcontact``
package, such as the ``src`` of two checkouts.  The rows are the catalog
experiments under the contact integrator; the Lagrange-d'Alembert runs of
the two Foucault ones, ``foucault-1/la`` and ``foucault-2/la``; their RKF45
references, ``foucault-1/rkf45`` and ``foucault-2/rkf45``; and the BDF2
reference of every catalog experiment, ``<id>/implicit-dae`` (all of them
unless ``--ids`` names some, in the same form).  Each row runs at its full
horizon, except that ``--t-final`` sets every row's and that a Foucault BDF2
row runs :data:`DAE_FOUCAULT_T_FINAL` seconds unless ``--t-final`` is given.
The script runs OLD at Newton tolerance 1e-6 and 1e-8 and NEW at 1e-6, each
run in its own process with that tree on ``PYTHONPATH``.  A BDF2 row hands
that tolerance to BDF2's Newton; an RKF45 row, which has no Newton, runs its
tight run at a relative tolerance 100 times tighter, 1e-10.  Each row
prints one line:

- ``horizon``: the row's ``t_final``;
- ``dq``: max |q_NEW - q_OLD| over all steps and coordinates, both at 1e-6;
- ``tight``: OLD's solver-error proxy, max |q_OLD - q_OLD(tight run)|;
- ``ulp``: the spacing of floats at OLD's largest |q|, the rounding floor;
- ``ok`` when ``dq`` is below the proxy, so the change moves the trajectory
  by less than the solver's own error; ``rounding`` when it is not but is
  below ``ulp`` (a proxy of 0 says only that both tolerances took the same
  iterates); else ``ABOVE``;
- ``new-tight``: max |q_NEW - q_OLD(tight run)|, NEW's distance from the
  same tight run;
- ``vs tight``: ``nearer``, ``same`` or ``farther``, as ``new-tight`` is
  below, equal to or above ``tight``.  A change that makes the solver more
  accurate moves the trajectory by about the old error, so its ``dq`` reads
  ``ABOVE`` while NEW is ``nearer`` the tight run than OLD is;
- ``bytes``: ``equal`` when NEW's whole trajectory at 1e-6 is byte-equal to
  OLD's (times, configurations, velocities, z values, multipliers, energies
  and termination), else ``differ``.  A change that should not move any bit
  wants ``equal`` on every line.

A run that does not complete is reported with its status and compared over
the steps both runs have.  Runs go ``--jobs`` (default 2) at a time.  The
exit status is 1 when some row reads both ``ABOVE`` and ``farther``, else 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TOLERANCE = 1e-6
TIGHT_TOLERANCE = 1e-8


#: The trajectory arrays that the byte comparison covers, with the termination.
FIELDS = ("times", "configurations", "velocities", "z_values", "multipliers", "energies")
#: Suffixes of the rows that the contact integrator does not run: the value
#: of the integrator that runs them.
LA, RKF45, DAE = "la", "rkf45", "implicit-dae"
#: The rows besides the contact and BDF2 ones that run by default.
FOUCAULT_ROWS = tuple(f"foucault-{i}/{suffix}" for suffix in (LA, RKF45) for i in (1, 2))
#: Default horizon of a Foucault BDF2 row: the full 3,600 s is 720,000 BDF2
#: steps, about 40 s a run.
DAE_FOUCAULT_T_FINAL = 200.0
#: The relative tolerance of an RKF45 row's tight run, 100 times the default.
TIGHT_RKF45_REL_TOL = 1e-10


def _horizon(eid: str, t_final) -> str:
    """The ``t_final`` that row ``eid`` runs, as the worker takes it."""
    if t_final is not None:
        return repr(t_final)
    if eid.startswith("foucault") and eid.endswith("/" + DAE):
        return repr(DAE_FOUCAULT_T_FINAL)
    return "full"


def _worker(eid: str, tolerance: float, t_final: str, out: str) -> None:
    """Run one row with the ``nhcontact`` on ``PYTHONPATH``, save its
    trajectory arrays and termination to ``out`` and print its status."""
    from nhcontact import Integrator, experiments, get_experiment, run_experiment
    from nhcontact.newton import NewtonConfig

    overrides = {} if t_final == "full" else {"t_final": float(t_final)}
    eid, _, suffix = eid.partition("/")
    if suffix:
        overrides["integrator"] = Integrator(suffix)
    solver = NewtonConfig(tolerance=tolerance)
    # run_experiment hands the references no Newton settings: set their own
    if suffix == DAE:
        experiments.implicit_dae_integrate = functools.partial(
            experiments.implicit_dae_integrate, newton=solver)
    elif suffix == RKF45 and tolerance == TIGHT_TOLERANCE:
        experiments.rkf45_integrate = functools.partial(
            experiments.rkf45_integrate, rel_tol=TIGHT_RKF45_REL_TOL)
    traj = run_experiment(get_experiment(eid, **overrides), solver)
    np.savez(out, termination=repr(traj.termination),
             **{field: getattr(traj, field) for field in FIELDS})
    print(traj.termination.status)


def _run(src: str, eid: str, tolerance: float, t_final: str, out: str) -> tuple:
    """``(arrays, status)`` of one run in a fresh process on ``src``: the
    saved arrays by name, the termination's ``repr`` among them."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", eid, repr(tolerance), t_final,
         out], env=env, capture_output=True, text=True, check=True)
    with np.load(out) as saved:
        return dict(saved), done.stdout.strip()


def _same_bytes(a: dict, b: dict) -> bool:
    return all(a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
               and a[k].tobytes() == b[k].tobytes() for k in FIELDS + ("termination",))


def _max_dq(a: np.ndarray, b: np.ndarray) -> float:
    steps = min(len(a), len(b))
    return float(np.max(np.abs(a[:steps] - b[:steps])))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--worker":
        eid, tolerance, t_final, out = argv[1:]
        _worker(eid, float(tolerance), t_final, out)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--ids", nargs="+",
                        help="catalog ids, with /la, /rkf45 or /implicit-dae for a row the "
                             "contact integrator does not run (default: all, the two "
                             "Foucault ones with /la and /rkf45, and every id with "
                             "/implicit-dae)")
    parser.add_argument("--t-final", type=float, help="horizon (default: each row's own)")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    if args.ids is None:
        sys.path.insert(0, os.path.abspath(args.old_src))
        from nhcontact.experiments import catalog_ids
        ids = list(catalog_ids())
        args.ids = ids + list(FOUCAULT_ROWS) + [f"{eid}/{DAE}" for eid in ids]
    runs = [(src, eid, tolerance) for eid in args.ids
            for src, tolerance in ((args.old_src, TOLERANCE), (args.old_src, TIGHT_TOLERANCE),
                                   (args.new_src, TOLERANCE))]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(_run, src, eid, tolerance, _horizon(eid, args.t_final),
                               os.path.join(tmp, f"{i}.npz"))
                   for i, (src, eid, tolerance) in enumerate(runs)]
        results = [f.result() for f in futures]
    print(f"{'experiment':<24} {'horizon':>7} {'steps':>6} {'dq':>10} {'tight':>10} "
          f"{'ulp':>10}  {'verdict':<8}  {'new-tight':>10}  {'vs tight':<8}  {'bytes':<6}  "
          f"status old/tight/new")
    failed = False
    for i, eid in enumerate(args.ids):
        (old, s_old), (tight, s_tight), (new, s_new) = results[3 * i: 3 * i + 3]
        q_old, q_tight = old["configurations"], tight["configurations"]
        dq = _max_dq(new["configurations"], q_old)
        proxy = _max_dq(q_old, q_tight)
        new_tight = _max_dq(new["configurations"], q_tight)
        ulp = float(np.spacing(np.max(np.abs(q_old))))
        verdict = "ok" if dq < proxy else "rounding" if dq < ulp else "ABOVE"
        nearer = ("nearer" if new_tight < proxy else "same" if new_tight == proxy
                  else "farther")
        failed |= verdict == "ABOVE" and nearer == "farther"
        same = "equal" if _same_bytes(new, old) else "differ"
        print(f"{eid:<24} {_horizon(eid, args.t_final):>7} {len(q_old) - 1:>6} {dq:>10.3e} "
              f"{proxy:>10.3e} {ulp:>10.3e}  {verdict:<8}  {new_tight:>10.3e}  {nearer:<8}  "
              f"{same:<6}  {s_old}/{s_tight}/{s_new}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
