"""Dense Newton with an exact or finite-difference Jacobian and a
singularity test on its inverse.

Every implicit step in the package goes through :func:`newton_solve`.
Problem sizes are small (at most 13 unknowns).  :func:`lu_factor` inverts
the row-equilibrated matrix once, by LAPACK through numpy, and keeps the
inverse, so that each solve (:func:`lu_solve`) is one matrix-vector product
and one factorization serves many solves.  At this size numpy's per-call
overhead costs more than the arithmetic of a residual, so each residual is
Python floats: the step residuals of both integrators return lists of
Python numbers, which Newton takes as they are; any other residual costs one
``tolist()``.

A caller that solves one system per time step hands each solve the factors
the previous one ended with: Newton then takes chord iterations with that
Jacobian while they contract, and builds a fresh one only when they stop
(simplified Newton; Hairer & Wanner, *Solving ODEs II*, section IV.8).  Such
a solve applies at least one correction before it accepts, even to a start
that already meets the tolerance.

A fresh Jacobian comes from the caller's builder when it passes one: the
contact and Lagrange-d'Alembert steps build theirs exactly, from the
columns known in closed form and complex steps for the rest.  Otherwise it
is :func:`fd_jacobian`.  Newton gives up after :data:`MAX_ITERATIONS`, ten
iterations: with an exact Jacobian, a step too coarse to resolve can
otherwise wander for dozens of iterations onto a spurious root, while no
step of the catalog needs more than seven (Radau5 caps its simplified
Newton at seven; Hairer & Wanner, section IV.8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import Array, EvaluationError, SolverFailure, central_difference

#: Newton iterations after which :func:`newton_solve` gives up.
MAX_ITERATIONS = 10
#: :func:`lu_factor` accepts an equilibrated inverse whose entries are at most
#: ``1/PIVOT_FLOOR``.
PIVOT_FLOOR = 1e-14
#: A chord iteration, one that reuses an earlier Jacobian, is followed by
#: another only while it cuts the residual inf-norm to at most this fraction.
CHORD_CONTRACTION = 0.1


class NewtonDivergence(SolverFailure):
    def __init__(self, iterations: int, residual_norm: float):
        self.iterations = iterations
        self.residual_norm = residual_norm
        super().__init__(
            f"Newton did not converge after {iterations} iterations "
            f"(residual inf-norm {residual_norm:.3e})"
        )


class SingularJacobian(SolverFailure):
    def __init__(self, pivot: float):
        self.pivot = pivot
        super().__init__(f"singular Jacobian (pivot {pivot:.3e} after equilibration)")


@dataclass(frozen=True)
class NewtonConfig:
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        # NaN never converges and infinity returns the start unsolved
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class LUFactors:
    """A factored square matrix (:func:`lu_factor`), kept as its inverse:
    each solve is then one matrix-vector product."""

    inverse: np.ndarray


def lu_factor(a: Array) -> LUFactors:
    """Factor ``a`` for :func:`lu_solve`: one LAPACK inverse of ``a`` with
    its rows scaled to unit inf-norm, the row scales folded back in.

    Raises :class:`SingularJacobian`, with ``pivot`` the reciprocal of the
    equilibrated inverse's largest entry, when that exceeds ``1/PIVOT_FLOOR``;
    with ``pivot`` 0 on an exactly zero pivot, a zero row or an entry that is
    not finite, which LAPACK may invert into finite and wrong numbers.
    """
    a = np.asarray(a, dtype=float)
    scales = abs(a).max(axis=1, initial=0.0)
    # one pass on Python floats; a NaN fails the comparison too
    if not all(0.0 < v < math.inf for v in scales.tolist()):
        raise SingularJacobian(0.0)
    try:
        inverse = np.linalg.inv(a / scales[:, None])
    except np.linalg.LinAlgError:
        raise SingularJacobian(0.0) from None
    growth = abs(inverse).max(initial=0.0)
    if not growth <= 1.0 / PIVOT_FLOOR:
        raise SingularJacobian(1.0 / growth)
    # a row scale below about 1e-294 can take an entry past the largest
    # float, to inf: the solve is then not finite, which the callers catch
    with np.errstate(over="ignore"):
        inverse /= scales
    return LUFactors(inverse)


def lu_solve(lu: LUFactors, rhs) -> Array:
    """Solve ``a x = rhs`` from the factors of ``a``; ``rhs`` is a list of
    floats or a vector."""
    return np.dot(lu.inverse, rhs)


def inf_norm(values: list) -> float:
    """Largest magnitude in the floats ``values``, 0 when empty; NaN if any
    entry is NaN, else infinite if any is, so it is finite exactly when they
    all are.
    """
    norm = 0.0
    # one pass on Python floats: cheaper than numpy's reductions at this size
    for v in values:
        v = abs(v)
        if not v <= norm:  # larger, or NaN
            norm = v
            if v != v:
                break
    return norm


def fd_jacobian(residual: Callable[[Array], Array], x: Array) -> Array:
    """Central finite-difference Jacobian of ``residual`` at ``x``."""
    return central_difference(residual, x)


def newton_solve(
    residual: Callable[[Array], Array],
    x0: Array,
    config: NewtonConfig = NewtonConfig(),
    jacobian: Optional[LUFactors] = None,
    build_jacobian: Optional[Callable[[Array], Array]] = None,
):
    """Solve ``residual(x) = 0`` to inf-norm ``config.tolerance``.

    ``residual`` takes a numpy array and returns a list of Python floats, or
    anything numpy converts to a float array.

    Without ``jacobian`` every iteration builds and factors a fresh
    Jacobian: ``build_jacobian(x)``, or :func:`fd_jacobian` of ``residual``
    when that is not given.  ``x`` is then the very array whose residual
    Newton evaluated last, or, after a dropped chord iterate, the one
    evaluated before it, so a builder may reuse what that evaluation left.
    Given the factors of an earlier Jacobian, it first takes chord
    iterations with them, for as long as each one cuts the residual
    inf-norm to :data:`CHORD_CONTRACTION` of the one before.  The first
    chord iterate that neither does so nor meets the tolerance (or whose
    residual is not finite) is dropped: from the iterate it started at,
    Newton goes on as without ``jacobian``, with a fresh Jacobian at every
    iteration.

    A solve handed factors applies at least one correction before it
    accepts, as Radau5 does, even when ``x0`` already meets the tolerance:
    a caller that hands factors steps in time and starts from an
    extrapolation, which can meet the absolute test while the unknowns
    the residual weighs lightly are still off.  Without factors a start
    that meets the tolerance is returned at iteration 0.

    Returns ``(x, iterations, jacobian)``, the last being the factors in use
    at the end (``None`` if none was given or built).  Raises
    :class:`EvaluationError` at the first iterate whose residual or Jacobian
    is not finite, :class:`NewtonDivergence` after :data:`MAX_ITERATIONS` and
    :class:`SingularJacobian` when the linearized system cannot be solved.
    """
    x = np.array(x0, dtype=float)
    chord = jacobian is not None
    start = None  # (x, fx, norm) the last chord step started from
    for iteration in range(MAX_ITERATIONS + 1):
        fx = residual(x)
        if not isinstance(fx, list):
            fx = np.asarray(fx, dtype=float).tolist()
        norm = inf_norm(fx)
        # a start is accepted unrefined only by a solve that was handed no
        # factors: one handed them applies at least one correction
        if norm <= config.tolerance and (iteration or not chord):
            return x, iteration, jacobian
        if start is not None and not norm <= CHORD_CONTRACTION * start[2]:
            # a fresh Newton step from a chord step that went astray can
            # diverge where one from its start converges
            x, fx, norm = start
            chord = False
        start = None
        if not math.isfinite(norm):
            raise EvaluationError(
                f"residual is not finite at Newton iteration {iteration}")
        if iteration < MAX_ITERATIONS:
            if chord:
                start = x, fx, norm
            else:
                jac = (fd_jacobian(residual, x) if build_jacobian is None
                       else build_jacobian(x))
                if not np.all(np.isfinite(jac)):
                    raise EvaluationError(
                        f"Jacobian is not finite at Newton iteration {iteration}")
                jacobian = lu_factor(jac)
            x = x - lu_solve(jacobian, fx)
    raise NewtonDivergence(MAX_ITERATIONS, norm)
