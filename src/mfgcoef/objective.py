"""Weighted least-squares objective in the differentiated unknowns.

The inversion works in the time derivatives u = dv/dt and m = dp/dt.
Integrating them back from the known midpoint slices (a signed running
integral anchored at t = T/2) turns the coupled system into residual
operators acting on (u, m) alone:

- the value residual, in which the unknown coefficient is eliminated
  through the midpoint identity k = f * u(., T/2) + F, with f the
  reciprocal of the interaction integral of the midpoint density and F
  assembled from the midpoint data;
- the time-differentiated density residual, with its transport fluxes
  rebuilt from the running integrals.

Each residual is squared against an exponential weight that peaks at the
observation corner (x1 = b, t = T/2); the value residual carries an
extra lam^(3/2) factor balancing the running-integral bound.  A small H2
penalty beta * (z . H z) on each of u and m (``grid.H2Form``, built once
per context) makes the functional strictly convex on the affine subspace
of iterates sharing the boundary data; its gradient is 2 beta H z and
its curvature 2 beta diag(H), read off the same form.  The iterate z is
one (2, n1, n2, nt) array, z[0] = u and z[1] = m, and so is its gradient.

The context takes the observations themselves.  It forms the gradient
and Laplacian of the midpoint value slice with the penalty's difference
matrices, the ones the residuals use; the boundary traces enter only
through the descent's data constraints (``inverse.DataConstraints``).

Every operator involved is a dense matrix applied along one axis, so each
term of the gradient is an exact transpose scatter.  ``value_and_gradient``
returns the objective's additive pieces and its gradient from one pass of
the residual operators, which is what the descent calls at every trial
point.  Each operator acts once per pass: dt, Dxx1 and Dxx2 on the
stacked z, the running integral V on (u_x1, u_x2, m), and each transpose
on the stack or the sum of everything it scatters (27 products along an
axis per pass, H2 penalty included).  The gradient is the derivative of
``evaluate`` to rounding, and the tests hold it against central
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .carleman import CarlemanParams
from .grid import H2Form, InteractionOperator, ObservationData, apply_along_axis, volterra_matrix


class ObjectiveParts(NamedTuple):
    """Additive pieces of one objective evaluation."""

    first: float
    second: float
    smoothness: float

    @property
    def total(self) -> float:
        return self.first + self.second + self.smoothness


class ObjectiveContext:
    """Data, weights and discrete operators frozen for one inversion run.

    ``observations`` are the data the inversion sees (the measurement, or
    its regularized fit for noisy data), and the context reads its grid
    from them.  It differentiates the midpoint value slice with the
    penalty's own difference matrices, and the descent's data
    constraints read the traces.  Its one ``InteractionOperator`` (kernel
    width ``sigma``) acts on m in the value residual and on p0 for the
    denominator of the coefficient elimination.  ``cost``/``cost_rate``
    are the local cost s and its time derivative on the same grid.
    ``residual_scale`` multiplies both residual sums; zero isolates the
    H2 penalty, which the solver tests use as an exactly solvable
    quadratic.
    """

    def __init__(
        self,
        observations: ObservationData,
        sigma: float,
        params: CarlemanParams,
        beta: float,
        cost: np.ndarray,
        cost_rate: np.ndarray,
        residual_scale: float = 1.0,
    ) -> None:
        if beta < 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")
        if residual_scale < 0:
            raise ValueError(f"residual_scale must be nonnegative, got {residual_scale}")
        grid = observations.grid
        shape = grid.spacetime_shape()
        cost = np.asarray(cost, dtype=float)
        cost_rate = np.asarray(cost_rate, dtype=float)
        if cost.shape != shape or cost_rate.shape != shape:
            raise ValueError("cost and cost_rate must live on the inversion grid")

        self.grid = grid
        self.params = params
        self.beta = float(beta)
        self.residual_scale = float(residual_scale)
        self.observations = observations
        self.cost = cost
        self.cost_rate = cost_rate
        self.operator = InteractionOperator(grid, sigma)
        self.h2 = H2Form(grid)
        # the residuals' differences are the penalty's: x1, x2 and t firsts,
        # x1 and x2 seconds
        self._d1 = self.h2.first
        self._d2 = self.h2.second[:2]
        self._volt = volterra_matrix(grid.nt, grid.ht, grid.mid_index)

        v0 = observations.v0.values
        dx1, dx2, _ = self._d1
        dxx1, dxx2 = self._d2
        self.v0_x = np.array((apply_along_axis(dx1, v0, 0), apply_along_axis(dx2, v0, 1)))
        v0_lap = apply_along_axis(dxx1, v0, 0) + apply_along_axis(dxx2, v0, 1)
        self.p0 = observations.p0.values

        # coefficient elimination: k = f * u(., T/2) + F
        self.denominator = self.operator.denominator(self.p0)
        self.f = 1.0 / self.denominator
        s_mid = cost[:, :, grid.mid_index]
        self.F = self.f * (v0_lap - 0.5 * np.sum(self.v0_x**2, axis=0) - s_mid * self.p0)

        # residual weights: balanced exponential times the cell volume,
        # lam^(3/2) on the first residual only
        log_w = params.balanced_log_weight(grid)
        core = np.exp(log_w)[:, None, :] * grid.cell_volume
        self.weight_first = params.lam**1.5 * core
        self.weight_second = core

    def _check(self, z: np.ndarray) -> None:
        shape = (2,) + self.grid.spacetime_shape()
        if np.shape(z) != shape:
            raise ValueError(f"iterate shape {np.shape(z)} does not match {shape}")


@dataclass
class _Parts:
    """Intermediates of one pass; ``ux`` and ``vx`` stack the x1 and x2 parts."""

    ux: np.ndarray
    vx: np.ndarray
    ptil: np.ndarray
    ksub: np.ndarray
    inter_m: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _forward_parts(ctx: ObjectiveContext, z: np.ndarray) -> _Parts:
    ctx._check(z)
    g = ctx.grid
    u, m = z
    dx1, dx2, dt = ctx._d1
    dxx1, dxx2 = ctx._d2

    ux = np.stack((apply_along_axis(dx1, u, 0), apply_along_axis(dx2, u, 1)))
    integrals = apply_along_axis(ctx._volt, np.concatenate((ux, m[None])), 3)
    vx = integrals[:2] + ctx.v0_x[..., None]
    ptil = integrals[2] + ctx.p0[:, :, None]
    zt = apply_along_axis(dt, z, 3)
    lap = apply_along_axis(dxx1, z, 1) + apply_along_axis(dxx2, z, 2)

    ksub = ctx.f * u[:, :, g.mid_index] + ctx.F
    inter_m = ctx.operator.apply(m)
    first = (
        zt[0]
        + lap[0]
        - np.sum(ux * vx, axis=0)
        - ksub[:, :, None] * inter_m
        - ctx.cost * m
        - ctx.cost_rate * ptil
    )

    flux = m * vx + ptil * ux
    second = (
        zt[1]
        - lap[1]
        - apply_along_axis(dx1, flux[0], 0)
        - apply_along_axis(dx2, flux[1], 1)
    )
    return _Parts(ux, vx, ptil, ksub, inter_m, first, second)


def residuals(ctx: ObjectiveContext, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two pointwise residual fields at one iterate."""
    p = _forward_parts(ctx, z)
    return p.first, p.second


def _split(ctx: ObjectiveContext, z: np.ndarray, p: _Parts) -> ObjectiveParts:
    first = ctx.residual_scale * float(np.sum(ctx.weight_first * p.first**2))
    second = ctx.residual_scale * float(np.sum(ctx.weight_second * p.second**2))
    smooth = ctx.beta * ctx.h2.norm_sq(z)
    return ObjectiveParts(first=first, second=second, smoothness=smooth)


def evaluate(ctx: ObjectiveContext, z: np.ndarray) -> float:
    """Objective value alone, the reference for the fused pass."""
    return _split(ctx, z, _forward_parts(ctx, z)).total


def value_and_gradient(ctx: ObjectiveContext, z: np.ndarray) -> Tuple[ObjectiveParts, np.ndarray]:
    """The objective's pieces and its exact gradient from one residual pass.

    The split's total equals ``evaluate`` bit for bit.  The adjoint
    mirrors the forward pass: each transpose acts once, on the stack or
    the sum of everything it scatters.
    """
    p = _forward_parts(ctx, z)
    dx1, dx2, dt = ctx._d1
    dxx1, dxx2 = ctx._d2

    scale = 2.0 * ctx.residual_scale
    r = scale * np.stack((ctx.weight_first * p.first, ctx.weight_second * p.second))
    r1, r2 = r
    # the flux adjoints; what V scatters into u_x1, u_x2 and m; and the
    # sum of everything that reaches u through its x1 and x2 derivatives
    s = np.stack((apply_along_axis(dx1.T, r2, 0), apply_along_axis(dx2.T, r2, 1)))
    into_m = ctx.cost_rate * r1 + np.sum(p.ux * s, axis=0)
    into_u = p.ux * r1 + z[1] * s
    scattered = apply_along_axis(ctx._volt.T, np.concatenate((into_u, into_m[None])), 3)
    a = p.vx * r1 + scattered[:2] + p.ptil * s

    zt = apply_along_axis(dt.T, r, 3)
    lap = apply_along_axis(dxx1.T, r, 1) + apply_along_axis(dxx2.T, r, 2)
    gu = zt[0] + lap[0] - apply_along_axis(dx1.T, a[0], 0) - apply_along_axis(dx2.T, a[1], 1)
    gu[:, :, ctx.grid.mid_index] -= ctx.f * np.sum(r1 * p.inter_m, axis=2)
    gm = zt[1] - lap[1] - ctx.operator.apply_transpose(p.ksub[:, :, None] * r1)
    gm -= ctx.cost * r1
    gm -= scattered[2]
    gm -= np.sum(p.vx * s, axis=0)

    grad = np.stack((gu, gm))
    grad += (2.0 * ctx.beta) * ctx.h2.apply(z)
    return _split(ctx, z, p), grad


def curvature_diagonal(ctx: ObjectiveContext, start: np.ndarray) -> np.ndarray:
    """Per-node curvature estimate of ``evaluate`` at ``start``, for step scaling.

    Separate-squares diagonal of the Gauss-Newton Hessian: each linear
    map from a node to the residuals contributes the weighted sum of its
    squared coefficients, and a composition A(c B) is bounded by the
    squares of its factors, (A*A)(c^2 (B*B)), with no cross terms.  The
    terms kept are the stiff ones: the time derivative and Laplacian
    inside each residual, and in the density residual the flux
    -div(p~ grad u) with p~ = V m + p0 taken at ``start``, plus the full
    smoothness penalty.  The advection terms and the remaining couplings
    are dropped; the estimate only shapes descent directions and
    monotonicity comes from the line search, so it need not be exact.
    Probed node by node at the reference start, the exact diagonal is
    0.2-1.9 times this estimate for u and 0.45-1.6 times for m; without
    the flux term u's ratio reached 18.

    The carried Carleman weight spans many orders of magnitude across the
    slab, which makes the raw gradient a badly scaled direction in the
    weakly weighted region; dividing by this diagonal restores a uniform
    per-node step scale (see ``descend`` for the iteration counts).
    """
    ctx._check(start)
    shape = ctx.grid.spacetime_shape()
    dx1, dx2, dt = ctx._d1
    dxx1, dxx2 = ctx._d2
    scale = 2.0 * ctx.residual_scale

    def residual_part(weight: np.ndarray) -> np.ndarray:
        w = weight[:, 0, :]
        along_t = w @ (dt**2)
        along_x1 = (dxx1**2).T @ w
        per_x2 = np.sum(dxx2**2, axis=0)
        out = (
            along_t[:, None, :]
            + along_x1[:, None, :]
            + w[:, None, :] * per_x2[None, :, None]
        )
        return scale * out

    def sq(mat: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
        return apply_along_axis((mat * mat).T, values, axis)

    ptil_sq = (apply_along_axis(ctx._volt, start[1], 2) + ctx.p0[:, :, None]) ** 2
    w2 = np.broadcast_to(ctx.weight_second, shape)
    flux = sq(dx1, sq(dx1, w2, 0) * ptil_sq, 0) + sq(dx2, sq(dx2, w2, 1) * ptil_sq, 1)

    smooth = (2.0 * ctx.beta) * ctx.h2.diagonal()
    return np.stack((
        residual_part(ctx.weight_first) + scale * flux + smooth,
        residual_part(ctx.weight_second) + smooth,
    ))


def recover_coefficient(ctx: ObjectiveContext, z: np.ndarray) -> np.ndarray:
    """The coefficient a converged iterate implies: f * u(., T/2) + F."""
    ctx._check(z)
    return ctx.f * z[0, :, :, ctx.grid.mid_index] + ctx.F


def convexity_gap(ctx: ObjectiveContext, z0: np.ndarray, z1: np.ndarray) -> Tuple[float, float]:
    """Bregman gap J(z1) - J(z0) - <grad J(z0), z1 - z0>.

    Returns the gap together with the squared H2 norm of the difference.
    For iterates sharing the boundary data the gap dominates
    (beta / 2) * ||difference||_H2^2; with a weight strength large enough
    the residual terms only help.
    """
    diff = z1 - z0
    parts, grad = value_and_gradient(ctx, z0)
    gap = value_and_gradient(ctx, z1)[0].total - parts.total - np.vdot(grad, diff)
    return float(gap), ctx.h2.norm_sq(diff)
