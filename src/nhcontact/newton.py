"""Dense Newton with a finite-difference Jacobian and LU pivoting diagnostics.

Every implicit step in the package goes through :func:`newton_solve`.
Problem sizes are small (at most a dozen unknowns), so the linear algebra is
a plain LU factorization with partial pivoting and row equilibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Array, EvaluationError, central_difference

#: Smallest equilibrated pivot :func:`solve_dense` accepts.
PIVOT_FLOOR = 1e-14


class NewtonDivergence(RuntimeError):
    def __init__(self, iterations: int, residual_norm: float):
        self.iterations = iterations
        self.residual_norm = residual_norm
        super().__init__(
            f"Newton did not converge after {iterations} iterations "
            f"(residual inf-norm {residual_norm:.3e})"
        )


class SingularJacobian(RuntimeError):
    def __init__(self, pivot: float):
        self.pivot = pivot
        super().__init__(f"singular Jacobian (pivot {pivot:.3e} after equilibration)")


@dataclass(frozen=True)
class NewtonConfig:
    tolerance: float = 1e-6
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def solve_dense(a: Array, rhs: Array) -> Array:
    """Solve ``a x = rhs`` by LU with partial pivoting after row equilibration.

    The pivot is the first entry of largest magnitude in its column.  Raises
    :class:`SingularJacobian` when that pivot of an equilibrated column falls
    below :data:`PIVOT_FLOOR`.
    """
    # elimination on Python floats: for a dozen unknowns, numpy's per-call
    # overhead costs more than the arithmetic; each update rounds its product
    # and its difference separately, as numpy's outer-product update does
    rows = np.array(a, dtype=float).tolist()
    b = np.array(rhs, dtype=float).tolist()
    k = len(rows)
    for i, row in enumerate(rows):
        scale = max(map(abs, row)) or 1.0
        rows[i] = [v / scale for v in row]
        b[i] /= scale
    for col in range(k):
        p, pivot = col, abs(rows[col][col])
        for r in range(col + 1, k):
            if abs(rows[r][col]) > pivot:
                p, pivot = r, abs(rows[r][col])
        if pivot < PIVOT_FLOOR:
            raise SingularJacobian(pivot)
        rows[col], rows[p] = rows[p], rows[col]
        b[col], b[p] = b[p], b[col]
        top = rows[col]
        for r in range(col + 1, k):
            row = rows[r]
            factor = row[col] / top[col]
            for c in range(col + 1, k):
                row[c] -= factor * top[c]
            b[r] -= factor * b[col]
    # back-substitution keeps numpy's dot: a Python sum rounds differently
    # and would move trajectories in their last bits
    u = np.array(rows)
    x = np.empty(k)
    for row in range(k - 1, -1, -1):
        x[row] = (b[row] - u[row, row + 1:] @ x[row + 1:]) / u[row, row]
    return x


def fd_jacobian(residual: Callable[[Array], Array], x: Array, fx: Array) -> Array:
    """Central finite-difference Jacobian of ``residual`` at ``x``.

    ``fx``, the residual at ``x``, is not needed by central differences.
    """
    return central_difference(residual, x)


def newton_solve(
    residual: Callable[[Array], Array],
    x0: Array,
    config: NewtonConfig = NewtonConfig(),
):
    """Solve ``residual(x) = 0`` to inf-norm ``config.tolerance``.

    Returns ``(x, iterations)``.  Raises :class:`EvaluationError` at the
    first iterate whose residual or Jacobian is not finite,
    :class:`NewtonDivergence` after ``max_iterations`` and
    :class:`SingularJacobian` when the linearized system cannot be solved.
    """
    x = np.array(x0, dtype=float)
    for iteration in range(config.max_iterations + 1):
        fx = np.asarray(residual(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            raise EvaluationError(
                f"residual is not finite at Newton iteration {iteration}")
        norm = float(np.max(np.abs(fx))) if len(fx) else 0.0
        if norm <= config.tolerance:
            return x, iteration
        if iteration < config.max_iterations:
            jac = fd_jacobian(residual, x, fx)
            if not np.all(np.isfinite(jac)):
                raise EvaluationError(
                    f"Jacobian is not finite at Newton iteration {iteration}")
            x = x + solve_dense(jac, -fx)
    raise NewtonDivergence(config.max_iterations, norm)
