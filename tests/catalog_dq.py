"""Largest catalog |dq| between two source trees, against the first tree's
own Newton error.

    python tests/catalog_dq.py OLD_SRC NEW_SRC [--ids ID ...] [--t-final T] [--jobs N]

``OLD_SRC`` and ``NEW_SRC`` are directories that hold the ``nhcontact``
package, such as the ``src`` of two checkouts.  For each catalog experiment
(all of them unless ``--ids`` names some), at its full horizon unless
``--t-final`` shortens it, the script runs OLD at Newton tolerance 1e-6 and
1e-8 and NEW at 1e-6, each run in its own process with that tree on
``PYTHONPATH``, and prints one line:

- ``dq``: max |q_NEW - q_OLD| over all steps and coordinates, both at 1e-6;
- ``newton``: OLD's Newton-error proxy, max |q_OLD(1e-6) - q_OLD(1e-8)|;
- ``ulp``: the spacing of floats at OLD's largest |q|, the rounding floor;
- ``ok`` when ``dq`` is below the proxy, so the change moves the trajectory
  by less than Newton's own error; ``rounding`` when it is not but is below
  ``ulp`` (a proxy of 0 says only that both tolerances took the same
  iterates); else ``ABOVE``;
- ``bytes``: ``equal`` when NEW's whole trajectory at 1e-6 is byte-equal to
  OLD's (times, configurations, velocities, z values, multipliers, energies
  and termination), else ``differ``.  A change that should not move any bit
  wants ``equal`` on every line.

A run that does not complete is reported with its status and compared over
the steps both runs have.  Runs go ``--jobs`` (default 2) at a time.
"""

from __future__ import annotations

import argparse
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


def _worker(eid: str, tolerance: float, t_final: str, out: str) -> None:
    """Run one experiment with the ``nhcontact`` on ``PYTHONPATH``, save its
    trajectory arrays and termination to ``out`` and print its status."""
    from nhcontact import get_experiment, run_experiment
    from nhcontact.newton import NewtonConfig

    overrides = {} if t_final == "full" else {"t_final": float(t_final)}
    traj = run_experiment(get_experiment(eid, **overrides), NewtonConfig(tolerance=tolerance))
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
    parser.add_argument("--ids", nargs="+", help="catalog ids (default: all)")
    parser.add_argument("--t-final", type=float, help="horizon (default: each one's own)")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    if args.ids is None:
        sys.path.insert(0, os.path.abspath(args.old_src))
        from nhcontact.experiments import catalog_ids
        args.ids = list(catalog_ids())
    t_final = "full" if args.t_final is None else repr(args.t_final)
    runs = [(src, eid, tolerance) for eid in args.ids
            for src, tolerance in ((args.old_src, TOLERANCE), (args.old_src, TIGHT_TOLERANCE),
                                   (args.new_src, TOLERANCE))]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(_run, src, eid, tolerance, t_final,
                               os.path.join(tmp, f"{i}.npz"))
                   for i, (src, eid, tolerance) in enumerate(runs)]
        results = [f.result() for f in futures]
    print(f"{'experiment':<12} {'steps':>6} {'dq':>10} {'newton':>10} {'ulp':>10}  "
          f"{'verdict':<8}  {'bytes':<6}  status old/tight/new")
    all_below = True
    for i, eid in enumerate(args.ids):
        (old, s_old), (tight, s_tight), (new, s_new) = results[3 * i: 3 * i + 3]
        q_old = old["configurations"]
        dq = _max_dq(new["configurations"], q_old)
        newton = _max_dq(q_old, tight["configurations"])
        ulp = float(np.spacing(np.max(np.abs(q_old))))
        verdict = "ok" if dq < newton else "rounding" if dq < ulp else "ABOVE"
        all_below &= verdict != "ABOVE"
        same = "equal" if _same_bytes(new, old) else "differ"
        print(f"{eid:<12} {len(q_old) - 1:>6} {dq:>10.3e} {newton:>10.3e} {ulp:>10.3e}  "
              f"{verdict:<8}  {same:<6}  {s_old}/{s_tight}/{s_new}")
    return 0 if all_below else 1


if __name__ == "__main__":
    sys.exit(main())
