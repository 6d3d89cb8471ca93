"""Damped multivariate Newton-Raphson with a dense pivoted linear solve.

Every implicit step in the package goes through :func:`newton_solve`.
Problem sizes are small (at most a dozen unknowns), so the linear algebra is
a plain LU factorization with partial pivoting and row equilibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import Array, EvaluationError, central_difference


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
    damping: str = "none"            # "none" | "armijo"
    jacobian: Optional[Callable[[Array], Array]] = None  # None -> finite differences

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.damping not in ("none", "armijo"):
            raise ValueError(f"unknown damping mode {self.damping!r}")


def solve_dense(a: Array, rhs: Array, pivot_floor: float = 1e-14) -> Array:
    """Solve ``a x = rhs`` by LU with partial pivoting after row equilibration.

    Raises :class:`SingularJacobian` when the largest available pivot of an
    equilibrated column falls below ``pivot_floor``.
    """
    a = np.array(a, dtype=float)
    b = np.array(rhs, dtype=float)
    k = a.shape[0]
    scale = np.max(np.abs(a), axis=1)
    scale[scale == 0.0] = 1.0
    a /= scale[:, None]
    b /= scale
    for col in range(k):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[p, col]) < pivot_floor:
            raise SingularJacobian(abs(a[p, col]))
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col + 1:] -= np.outer(factors, a[col, col + 1:])
        b[col + 1:] -= factors * b[col]
    x = np.empty(k)
    for row in range(k - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
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

    Returns ``(x, iterations)``.  Raises :class:`EvaluationError` when the
    residual is not finite at ``x0``, :class:`NewtonDivergence` after
    ``max_iterations`` and :class:`SingularJacobian` when the linearized
    system cannot be solved.
    """
    x = np.array(x0, dtype=float)
    fx = np.asarray(residual(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise EvaluationError("residual is not finite at the initial guess")
    norm = float(np.max(np.abs(fx))) if len(fx) else 0.0
    if norm <= config.tolerance:
        return x, 0

    for iteration in range(1, config.max_iterations + 1):
        if config.jacobian is not None:
            jac = np.asarray(config.jacobian(x), dtype=float)
        else:
            jac = fd_jacobian(residual, x, fx)
        step = solve_dense(jac, -fx)

        if config.damping == "armijo":
            scale = 1.0
            for _ in range(21):
                x_new = x + scale * step
                f_new = np.asarray(residual(x_new), dtype=float)
                new_norm = float(np.max(np.abs(f_new)))
                if np.isfinite(new_norm) and new_norm < norm:
                    break
                scale *= 0.5
        else:
            x_new = x + step
            f_new = np.asarray(residual(x_new), dtype=float)
            new_norm = float(np.max(np.abs(f_new)))

        x, fx, norm = x_new, f_new, new_norm
        if np.isfinite(norm) and norm <= config.tolerance:
            return x, iteration

    raise NewtonDivergence(config.max_iterations, norm)
