"""Measured convergence orders of the two discretization rules.

Integrates a damped harmonic oscillator (alpha = 0.1, omega = 1) with the
contact integrator at a sequence of step sizes and fits the slope of
log(error) against log(h).  The left-endpoint rule with the explicit
action update is first order; the midpoint rule with the implicit action
update is second order.

Usage: python demos/convergence_orders.py
"""

import numpy as np

from nhcontact import DiscretizationRule, NewtonConfig, PositionRule, ZRule
from nhcontact.analysis import convergence_order
from nhcontact.contact import run_contact
from nhcontact.systems import damped_oscillator, damped_oscillator_solution

ALPHA, OMEGA, T_FINAL = 0.1, 1.0, 10.0


def main() -> None:
    system = damped_oscillator(ALPHA, OMEGA)
    rules = [
        ("left endpoint + explicit action", PositionRule.LEFT_ENDPOINT,
         ZRule.FIRST_ORDER),
        ("midpoint + implicit action", PositionRule.MIDPOINT,
         ZRule.SECOND_ORDER),
    ]
    for label, pos, zr in rules:
        print(f"\n{label}")
        print(f"  {'h':>8} {'max error':>12}")
        pairs = []
        for h in [0.1, 0.05, 0.025, 0.0125]:
            rule = DiscretizationRule(pos, zr, h)
            traj = run_contact(system, rule, np.array([1.0]), np.array([0.0]),
                               int(round(T_FINAL / h)),
                               solver=NewtonConfig(tolerance=1e-12))
            exact = damped_oscillator_solution(ALPHA, OMEGA, traj.times)
            err = float(np.max(np.abs(traj.configurations[:, 0] - exact)))
            pairs.append((h, err))
            print(f"  {h:>8.4f} {err:>12.3e}")
        print(f"  fitted order: {convergence_order(pairs):.2f}")


if __name__ == "__main__":
    main()
