"""Data projection and projected gradient descent for the reconstruction.

The boundary data enter as hard constraints: the time derivatives of the
Dirichlet traces pin (u, m) on the whole lateral boundary, and on the
outflow face x1 = b the Neumann rate additionally ties the first interior
layer to the one below it through a three-point closure,

    u[-2] = (3 D + u[-3] - 2 h N) / 4,

with D the Dirichlet rate and N the Neumann rate on the face: the
one-sided Neumann stencil solved for the first interior layer with the
boundary node pinned to D.  Descent happens in the remaining free nodes;
the objective gradient is reduced onto them by the chain rule of that
affine closure (slope 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forward import DerivativeBundle
from .grid import SpaceTimeGrid
from .objective import (
    Iterate,
    ObjectiveContext,
    curvature_diagonal,
    evaluate,
    gradient,
    recover_coefficient,
)

class StallError(RuntimeError):
    """Raised when backtracking cannot find a descending step."""


@dataclass(frozen=True)
class SolverConfig:
    """Descent controls.

    ``step0`` seeds the backtracking line search; the step shrinks by the
    ``shrink`` factor until the objective decreases and the accepted
    value carries over to the next iteration (it never grows back).
    Iterations stop when the reduced gradient max-norm drops below
    ``grad_tol``; a step below ``min_step`` raises ``StallError``.

    With ``precondition`` on (the default) the step direction is the
    gradient divided node by node by a fixed curvature estimate; the
    stopping test always reads the unscaled gradient.  The weight spans
    many orders of magnitude across the slab, and without this scaling
    the weakly weighted region relaxes so slowly that the stopping test
    is out of reach in any reasonable iteration budget.
    """

    step0: float = 0.1
    grad_tol: float = 1e-2
    max_iter: int = 20000
    shrink: float = 0.5
    min_step: float = 1e-14
    precondition: bool = True

    def __post_init__(self) -> None:
        if self.step0 <= 0:
            raise ValueError(f"step0 must be positive, got {self.step0}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink must lie in (0, 1), got {self.shrink}")
        if self.min_step <= 0:
            raise ValueError(f"min_step must be positive, got {self.min_step}")


def project_data_constraints(
    grid: SpaceTimeGrid, bundle: DerivativeBundle, it: Iterate
) -> Iterate:
    """Scatter the data rates onto an iterate; idempotent.

    The x2 faces land first and the x1 faces overwrite the shared corner
    columns; the first interior layer at the outflow face then follows
    from the closure, across the whole row.
    """
    out = it.copy()
    pairs = (
        (out.u, bundle.dt_g01, bundle.dt_g11),
        (out.m, bundle.dt_g02, bundle.dt_g12),
    )
    for arr, trace, gamma in pairs:
        arr[:, 0, :] = trace.face("x2lo")
        arr[:, -1, :] = trace.face("x2hi")
        arr[0, :, :] = trace.face("x1a")
        arr[-1, :, :] = trace.face("x1b")
        arr[-2, :, :] = 0.25 * (
            3.0 * trace.face("x1b") + arr[-3, :, :] - 2.0 * grid.h1 * gamma.values
        )
    return out


def free_node_mask(grid: SpaceTimeGrid) -> np.ndarray:
    """Nodes the descent may move (True), per field."""
    mask = np.ones(grid.spacetime_shape(), dtype=bool)
    mask[:, 0, :] = False
    mask[:, -1, :] = False
    mask[0, :, :] = False
    mask[-1, :, :] = False
    mask[-2, :, :] = False
    return mask


def reduce_gradient(grid: SpaceTimeGrid, grad: Iterate) -> Iterate:
    """Objective gradient pulled back onto the free nodes.

    The tied layer contributes 1/4 of its gradient to the layer below it
    (the closure slope); constrained slots are zeroed.
    """
    out = grad.copy()
    for arr in (out.u, out.m):
        arr[-3, :, :] += 0.25 * arr[-2, :, :]
        arr[:, 0, :] = 0.0
        arr[:, -1, :] = 0.0
        arr[0, :, :] = 0.0
        arr[-1, :, :] = 0.0
        arr[-2, :, :] = 0.0
    return out


def _face_blend(grid: SpaceTimeGrid, trace) -> np.ndarray:
    """Mean of the two linear interpolations between opposite face traces."""
    n1, n2, nt = grid.spacetime_shape()
    w1 = np.linspace(0.0, 1.0, n1)
    w2 = np.linspace(0.0, 1.0, n2)
    along_x1 = (
        (1.0 - w1)[:, None, None] * trace.face("x1a")[None, :, :]
        + w1[:, None, None] * trace.face("x1b")[None, :, :]
    )
    along_x2 = (
        (1.0 - w2)[None, :, None] * trace.face("x2lo")[:, None, :]
        + w2[None, :, None] * trace.face("x2hi")[:, None, :]
    )
    return 0.5 * (along_x1 + along_x2)


def initial_guess(grid: SpaceTimeGrid, bundle: DerivativeBundle) -> Iterate:
    """Boundary-consistent start: blended face data, then projection."""
    start = Iterate(_face_blend(grid, bundle.dt_g01), _face_blend(grid, bundle.dt_g02))
    return project_data_constraints(grid, bundle, start)


@dataclass
class ReconstructionResult:
    """Converged (or stopped) descent output plus the implied coefficient."""

    iterate: Iterate
    coefficient: np.ndarray
    objective_history: np.ndarray
    gradient_history: np.ndarray
    converged: bool
    iterations: int
    final_step: float


def descend(ctx: ObjectiveContext, start: Iterate, config: SolverConfig) -> ReconstructionResult:
    """Monotone projected gradient descent from ``start``.

    Every accepted iterate strictly decreases the objective; the history
    arrays record the objective per accepted step and the reduced gradient
    max-norm per iteration.  The stopping test and the recorded history
    use the raw reduced gradient even when preconditioning scales the
    step direction.
    """
    g = ctx.grid
    z = project_data_constraints(g, ctx.bundle, start)
    value = evaluate(ctx, z)
    if not np.isfinite(value):
        raise ValueError(f"objective is not finite at the start: {value}")
    if config.precondition:
        curv = curvature_diagonal(ctx)
        floor = 1e-12 * max(float(curv.u.max()), float(curv.m.max()), 1.0)
        scale_u = np.maximum(curv.u, floor)
        scale_m = np.maximum(curv.m, floor)
    else:
        scale_u = scale_m = 1.0
    step = config.step0
    obj_hist = [value]
    grad_hist = []
    converged = False
    for _ in range(config.max_iter):
        red = reduce_gradient(g, gradient(ctx, z))
        gmax = max(float(np.max(np.abs(red.u))), float(np.max(np.abs(red.m))))
        grad_hist.append(gmax)
        if gmax < config.grad_tol:
            converged = True
            break
        du = red.u / scale_u
        dm = red.m / scale_m
        while True:
            trial = project_data_constraints(
                g, ctx.bundle, Iterate(z.u - step * du, z.m - step * dm)
            )
            trial_value = evaluate(ctx, trial)
            if trial_value < value:
                break
            step *= config.shrink
            if step < config.min_step:
                raise StallError(
                    f"line search stalled at step {step:.3e} with reduced gradient "
                    f"max-norm {gmax:.3e}; the objective cannot decrease further"
                )
        z, value = trial, trial_value
        obj_hist.append(value)
    return ReconstructionResult(
        iterate=z,
        coefficient=recover_coefficient(ctx, z),
        objective_history=np.asarray(obj_hist),
        gradient_history=np.asarray(grad_hist),
        converged=converged,
        iterations=len(obj_hist) - 1,
        final_step=step,
    )


def invert(ctx: ObjectiveContext, config: Optional[SolverConfig] = None) -> ReconstructionResult:
    """Full reconstruction: data-blended start, descent, coefficient."""
    if config is None:
        config = SolverConfig()
    start = initial_guess(ctx.grid, ctx.bundle)
    return descend(ctx, start, config)
