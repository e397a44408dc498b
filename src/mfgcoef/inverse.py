"""Data constraints and projected L-BFGS descent for the reconstruction.

The boundary data enter as hard constraints: the time derivatives of the
Dirichlet traces pin (u, m) on the whole lateral boundary, and on the
outflow face x1 = b the Neumann rate additionally ties the first interior
layer to the one below it through a three-point closure,

    u[-2] = (3 D + u[-3] - 2 h N) / 4,

with D the Dirichlet rate and N the Neumann rate on the face: the
one-sided Neumann stencil solved for the first interior layer with the
boundary node pinned to D.  The iterate (u, m) is one (2, n1, n2, nt)
array and descent happens in its remaining free nodes; the objective
gradient is reduced onto them by the chain rule of that affine closure
(slope 1/4).  ``DataConstraints`` reads the traces from the observations
and is the one place their time derivatives (the rates) are formed; the
data-blended start interpolates the same rates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .forward import ObservationData
from .grid import FACES, SpaceTimeGrid, apply_along_axis, first_diff_matrix
from .objective import (
    ObjectiveContext,
    curvature_diagonal,
    recover_coefficient,
    value_and_gradient,
)

# L-BFGS memory: displacement/gradient-change pairs kept for the direction
MEMORY = 10
# the line search shrinks its step by SHRINK until the objective decreases,
# and a step below MIN_STEP means the descent has stalled
SHRINK = 0.5
MIN_STEP = 1e-14


class StallError(RuntimeError):
    """Raised when backtracking cannot find a descending step."""


@dataclass(frozen=True)
class SolverConfig:
    """Descent controls.

    Iterations stop when the reduced gradient max-norm drops below
    ``grad_tol``, or after ``max_iter``; these two are the ``[solver]``
    keys of a config file.  Each line search tries step 1 along the
    L-BFGS direction and shrinks by ``SHRINK`` until the objective
    decreases; a step below ``MIN_STEP`` raises ``StallError``.

    ``step0`` and ``precondition`` are for tests, which use them to
    follow the descent on an exactly solvable quadratic; runs keep the
    defaults.  ``step0`` scales the first direction (and the one after a
    memory reset): the gradient times ``step0``, divided by the
    curvature when preconditioned.  With ``precondition`` on, the initial
    inverse Hessian of the recursion is the reciprocal of
    ``curvature_diagonal`` taken at the start, node by node; otherwise it
    is a multiple of the identity.  The stopping test always reads the
    unscaled gradient.  The weight spans many orders of magnitude across
    the slab, and without this scaling the weakly weighted region relaxes
    slowly: on the reference dataset (lam = 3) the unscaled descent meets
    ``grad_tol`` after 3028 iterations and 3180 objective passes (rel_l2
    0.0105), the scaled one after 156 iterations and 164 passes (rel_l2
    0.0095); with noise (delta 0.03, seed 17) the scaled one takes 134
    iterations and 140 passes.
    """

    grad_tol: float
    max_iter: int
    step0: float = 0.1
    precondition: bool = True

    def __post_init__(self) -> None:
        if self.step0 <= 0:
            raise ValueError(f"step0 must be positive, got {self.step0}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


# free nodes of both fields: off the inflow, outflow and x2 faces and the
# layer the outflow closure ties; the one place these slabs are listed
FREE = (slice(None), slice(1, -2), slice(1, -1))


class DataConstraints:
    """The affine set of iterates that carry the boundary data.

    The descent moves the free-node vector, u's then m's.  ``embed``
    copies a template of the face data (x2 faces first, the x1 faces
    over the shared corners), writes the free values and applies the
    closure across the whole tied row; ``free`` reads the vector back,
    and ``pullback`` is the transpose of ``embed``'s linear part (the
    tied layer passes 1/4 of its gradient to the layer below it).

    ``rates`` maps each stored face to the t-difference of the Dirichlet
    traces there, u's and m's stacked as (2, n, nt).
    """

    def __init__(self, obs: ObservationData) -> None:
        g = obs.grid
        dt = first_diff_matrix(g.nt, g.ht)

        def rate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
            return apply_along_axis(dt, np.stack((u, m)), 2)

        self.rates = {name: rate(obs.g01.face(name), obs.g02.face(name)) for name in FACES}
        self._pinned = np.zeros((2,) + g.spacetime_shape())
        self._pinned[:, :, 0] = self.rates["x2lo"]
        self._pinned[:, :, -1] = self.rates["x2hi"]
        self._pinned[:, 0] = self.rates["x1a"]
        self._pinned[:, -1] = self.rates["x1b"]
        self._dirichlet = 3.0 * self.rates["x1b"]
        self._neumann = 2.0 * g.h1 * rate(obs.g11.values, obs.g12.values)
        self._free_shape = self._pinned[FREE].shape
        self.nfree = self._pinned[FREE][0].size  # per field

    def embed(self, x: np.ndarray) -> np.ndarray:
        """The iterate with free values ``x`` and the data everywhere else."""
        z = self._pinned.copy()
        z[FREE] = x.reshape(self._free_shape)
        z[:, -2] = 0.25 * (self._dirichlet + z[:, -3] - self._neumann)
        return z

    def free(self, z: np.ndarray) -> np.ndarray:
        """Free-node values of an iterate, u's then m's."""
        return z[FREE].ravel()

    def pullback(self, grad: np.ndarray) -> np.ndarray:
        """Objective gradient in the free vector: the chain rule through ``embed``."""
        tied = grad.copy()
        tied[:, -3] += 0.25 * tied[:, -2]
        return tied[FREE].ravel()


def _face_blend(grid: SpaceTimeGrid, rates) -> np.ndarray:
    """Mean of the two linear interpolations between opposite faces, u and m stacked."""
    n1, n2, nt = grid.spacetime_shape()
    w1 = np.linspace(0.0, 1.0, n1)
    w2 = np.linspace(0.0, 1.0, n2)
    along_x1 = (
        (1.0 - w1)[:, None, None] * rates["x1a"][:, None, :, :]
        + w1[:, None, None] * rates["x1b"][:, None, :, :]
    )
    along_x2 = (
        (1.0 - w2)[None, :, None] * rates["x2lo"][:, :, None, :]
        + w2[None, :, None] * rates["x2hi"][:, :, None, :]
    )
    return 0.5 * (along_x1 + along_x2)


def initial_guess(obs: ObservationData) -> np.ndarray:
    """Boundary-consistent start: the blended face rates on the free nodes."""
    constraints = DataConstraints(obs)
    return constraints.embed(constraints.free(_face_blend(obs.grid, constraints.rates)))


@dataclass
class ReconstructionResult:
    """Converged (or stopped) descent output plus the implied coefficient.

    ``stop_reason`` is ``"grad_tol"`` when the reduced gradient met the
    tolerance and ``"max_iter"`` when the budget ran out first (a stall
    raises instead).  ``objective_passes`` counts the fused value and
    gradient passes, one per trial point plus one for the start.
    ``parts_history`` holds the objective's ``ObjectiveParts``, one row
    per accepted iterate; the other histories and counts derive from it
    and ``stop_reason``.
    """

    iterate: np.ndarray
    coefficient: np.ndarray
    parts_history: np.ndarray
    gradient_history: np.ndarray
    final_step: float
    stop_reason: str
    objective_passes: int

    @property
    def objective_history(self) -> np.ndarray:
        """Objective per accepted iterate, summed as ``ObjectiveParts.total`` sums."""
        first, second, smoothness = self.parts_history.T
        return first + second + smoothness

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"

    @property
    def iterations(self) -> int:
        return len(self.parts_history) - 1


def _two_loop(grad: np.ndarray, pairs, h0: np.ndarray) -> np.ndarray:
    """L-BFGS inverse-Hessian product (Liu & Nocedal 1989) with diagonal H0."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    r = h0 * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    return r


def descend(ctx: ObjectiveContext, start: np.ndarray, config: SolverConfig) -> ReconstructionResult:
    """Monotone projected L-BFGS descent from ``start`` on the free nodes.

    The direction is the two-loop recursion over the last ``MEMORY``
    pairs of free-node displacements and reduced-gradient changes, with
    H0 = gamma / curvature (gamma = s.y / y.(y / curvature) of the newest
    pair, ``step0`` while the memory is empty).  The line search tries
    step 1 and shrinks until the objective strictly decreases; before it
    gives up it clears the memory once and retries along the
    preconditioned gradient.  Every accepted iterate strictly decreases
    the objective; the histories record the objective's parts per
    accepted step and the raw reduced gradient max-norm per iteration,
    which is also what the stopping test reads.
    """
    constraints = DataConstraints(ctx.observations)
    x = constraints.free(start)
    z = constraints.embed(x)
    parts, grad = value_and_gradient(ctx, z)
    value = parts.total
    passes = 1
    if not np.isfinite(value):
        raise ValueError(f"objective is not finite at the start: {value}")
    if config.precondition:
        curv = curvature_diagonal(ctx, z)
        floor = 1e-12 * max(float(curv.max()), 1.0)
        inv_curv = 1.0 / np.maximum(constraints.free(curv), floor)
    else:
        inv_curv = np.ones_like(x)
    red = constraints.pullback(grad)
    pairs: deque = deque(maxlen=MEMORY)
    step = 1.0
    parts_hist = [parts]
    grad_hist = []
    stop_reason = "max_iter"
    for _ in range(config.max_iter):
        gmax = float(np.max(np.abs(red)))
        grad_hist.append(gmax)
        if gmax < config.grad_tol:
            stop_reason = "grad_tol"
            break
        if pairs:
            _, y, rho = pairs[-1]
            gamma = 1.0 / (rho * float(y @ (inv_curv * y)))
        else:
            gamma = config.step0
        direction = _two_loop(red, pairs, gamma * inv_curv)
        step = 1.0
        while True:
            trial_x = x - step * direction
            trial = constraints.embed(trial_x)
            trial_parts, trial_grad = value_and_gradient(ctx, trial)
            trial_value = trial_parts.total
            passes += 1
            if trial_value < value:
                break
            step *= SHRINK
            if step < MIN_STEP:
                if not pairs:
                    raise StallError(
                        f"line search stalled at step {step:.3e} with reduced gradient "
                        f"max-norm {gmax:.3e}; the objective cannot decrease further"
                    )
                pairs.clear()
                direction = config.step0 * inv_curv * red
                step = 1.0
        trial_red = constraints.pullback(trial_grad)
        s = trial_x - x
        y = trial_red - red
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
        z, x, value, red = trial, trial_x, trial_value, trial_red
        parts_hist.append(trial_parts)
    return ReconstructionResult(
        iterate=z,
        coefficient=recover_coefficient(ctx, z),
        parts_history=np.asarray(parts_hist),
        gradient_history=np.asarray(grad_hist),
        final_step=step,
        stop_reason=stop_reason,
        objective_passes=passes,
    )

