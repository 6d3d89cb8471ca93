"""Time the step kernel of two source trees in one process.

    python tests/kernel_timing.py OLD_SRC NEW_SRC [--rounds N] [--step J]

``OLD_SRC`` and ``NEW_SRC`` are directories that hold the ``nhcontact``
package, such as the ``src`` of two checkouts.  Both trees are loaded in
this one process, under the module names ``old_nhcontact`` and
``new_nhcontact``, so that the machine's speed, which can drift by up to 2x
between processes, is the same for both.

Each tree records one window from its own run of each case, the arguments of
the ``J``-th call of ``contact.solve_step`` (default 10):

- ``foucault-1``: the contact step of the Foucault pendulum, 4 unknowns;
- ``foucault-1/la``: its Lagrange-d'Alembert step, 3 unknowns;
- ``disk-4.2``: the contact step of the forced rolling disk, 8 unknowns.

From that window it times three things:

- ``residual``: one real residual evaluation at the step's first start;
- ``step fresh``: one ``solve_step`` from the recorded starts without
  factors, so that Newton builds fresh exact Jacobians;
- ``step factors``: the same ``solve_step`` with the previous step's
  factors, as `contact.run_steps` takes it.

Each timing is the best per-call time of a few repeats of a timed loop, and
the rounds alternate which tree goes first.  The table gives each tree's
best time over all rounds in microseconds and the median over the rounds of
the paired ratio NEW/OLD, below 1 when NEW is faster.  Not collected by
pytest: it is a tool, run by hand.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import timeit

import numpy as np

CASES = (("foucault-1", "contact", "foucault-1"),
         ("foucault-1/la", "la", "foucault-1"),
         ("disk-4.2", "contact", "disk-4.2"))
TARGET_SECONDS = 0.04  # per timed loop
REPEATS = 5


def load(name: str, src: str):
    """The ``nhcontact`` package under ``src`` as the top-level module
    ``name``; its relative imports load its modules as ``name.<module>``."""
    package = os.path.join(os.path.abspath(src), "nhcontact")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def record(lib, eid: str, integrator: str, step: int) -> tuple:
    """The arguments of the ``step``-th ``solve_step`` of the run of ``eid``
    under ``integrator`` (``"contact"`` or ``"la"``)."""
    contact, experiments = lib.contact, lib.experiments
    overrides = {"t_final": 2.0}
    if integrator == "la":
        overrides["integrator"] = lib.model.Integrator.LAGRANGE_DALEMBERT
    spec = experiments.get_experiment(eid, **overrides)
    solve_step, calls = contact.solve_step, []

    def recording(*args):
        calls.append(args)
        return solve_step(*args)

    contact.solve_step = recording
    try:
        experiments.run_experiment(spec)
    finally:
        contact.solve_step = solve_step
    if len(calls) < step:
        raise SystemExit(f"{eid}/{integrator}: only {len(calls)} steps, fewer than {step}")
    return calls[step - 1]


def kernels(lib, args: tuple) -> dict:
    """The three timed callables of one recorded window."""
    system, rule, window, residual, with_z, carry, solver, starts = args
    solve_step = lib.contact.solve_step
    terms = lib.contact.contact_window_terms(system, rule, window, carry, with_z)
    x = np.array(starts[0])
    fresh = carry._replace(factors=None)
    return {
        "residual": lambda: residual(system, rule, window, terms, x, []),
        "step fresh": lambda: solve_step(system, rule, window, residual, with_z, fresh,
                                         solver, starts),
        "step factors": lambda: solve_step(system, rule, window, residual, with_z, carry,
                                           solver, starts),
    }


def best_us(f, number: int) -> float:
    """The best of :data:`REPEATS` timed loops of ``number`` calls of ``f``,
    in microseconds per call."""
    return min(timeit.repeat(f, number=number, repeat=REPEATS)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--step", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.step < 1:
        parser.error("--rounds and --step must be at least 1")
    trees = {"old": load("old_nhcontact", args.old_src),
             "new": load("new_nhcontact", args.new_src)}
    if trees["old"].contact is trees["new"].contact:
        raise SystemExit("the two trees share their modules")
    rows = []
    for label, integrator, eid in CASES:
        timed = {tree: kernels(lib, record(lib, eid, integrator, args.step))
                 for tree, lib in trees.items()}
        for kernel in timed["old"]:
            pair = [timed["old"][kernel], timed["new"][kernel]]
            for f in pair:
                f()  # warm up, and fail early
            # calls per timed loop, from one call of the old tree
            number = max(1, int(TARGET_SECONDS / max(timeit.timeit(pair[0], number=1), 1e-7)))
            old, new = [], []
            for i in range(args.rounds):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                times = {side: best_us(pair[side], number) for side in order}
                old.append(times[0])
                new.append(times[1])
            ratio = statistics.median(b / a for a, b in zip(old, new))
            rows.append((label, kernel, min(old), min(new), ratio))
    print(f"{'case':<15}{'kernel':<14}{'old us':>9}{'new us':>9}{'new/old':>9}")
    for label, kernel, old, new, ratio in rows:
        print(f"{label:<15}{kernel:<14}{old:>9.2f}{new:>9.2f}{ratio:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
