"""The interaction kernel and its quadrature operator.

The coupling term of the value equation integrates the density against
``LineGaussianKernel``: concentrated on the line y1 = x1 (the transverse
profile is all that matters), with a Gaussian cross weight in y2.  The
interaction integral collapses to a single quadrature over y2, so the
operator is one dense (n2, n2) matrix applied along the x2 axis.  It is
linear with nonnegative quadrature weights and exposes its exact
transpose; the objective gradient depends on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    SPACE_TIME,
    SPATIAL,
    Field,
    SpaceTimeGrid,
    apply_along_axis,
    trapezoid_weights,
)


# the smallest |interaction integral| of the midpoint density that the
# coefficient elimination may divide by
DENOMINATOR_FLOOR = 1e-8


class DenominatorError(ValueError):
    """The interaction integral of a density slice vanishes at some node."""


@dataclass(frozen=True)
class LineGaussianKernel:
    """Transverse Gaussian weight exp(-(x2 - y2)^2 / sigma^2).

    ``sigma = inf`` degenerates to the flat weight 1, in which case the
    interaction integral reduces to the plain trapezoid integral over y2.
    """

    sigma: float = 0.2

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def cross_weight(self, x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
        d = np.subtract.outer(x2, y2)
        return np.exp(-(d * d) / (self.sigma * self.sigma))


class InteractionOperator:
    """Discrete interaction integral for one kernel on one grid.

    Precomputes the (n2, n2) quadrature matrix once; ``apply`` evaluates
    the integral at every node of a spatial or space-time field by
    applying it along x2 (or only at the x2 nodes ``rows`` selects, with
    those rows of the matrix), and ``apply_transpose`` is its exact
    adjoint in the unweighted node inner product.
    """

    def __init__(self, grid: SpaceTimeGrid, kernel: LineGaussianKernel) -> None:
        w2 = trapezoid_weights(grid.n2, grid.h2)
        self._matrix = kernel.cross_weight(grid.x2, grid.x2) * w2[None, :]

    def apply(self, values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        return apply_along_axis(self._matrix[rows], values, 1)

    def apply_transpose(self, values: np.ndarray) -> np.ndarray:
        return apply_along_axis(self._matrix.T, values, 1)


def interaction_integral(kernel: LineGaussianKernel, f: Field) -> Field:
    """Interaction integral of a spatial or space-time field, node by node."""
    if f.rank not in (SPATIAL, SPACE_TIME):
        raise ValueError(f"interaction integral needs a volumetric field, got {f.rank!r}")
    op = InteractionOperator(f.grid, kernel)
    return Field(f.grid, f.rank, op.apply(f.values))


def denominator_field(kernel: LineGaussianKernel, p0: Field) -> Field:
    """Interaction integral of the midpoint density; used as a reciprocal later.

    Raises ``DenominatorError`` if any node falls below
    ``DENOMINATOR_FLOOR`` in magnitude, naming the worst offender:
    downstream code divides by this field.
    """
    if p0.rank != SPATIAL:
        raise ValueError(f"denominator needs a spatial density slice, got {p0.rank!r}")
    out = interaction_integral(kernel, p0)
    mags = np.abs(out.values)
    if mags.min() < DENOMINATOR_FLOOR:
        i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
        raise DenominatorError(
            f"interaction denominator is {out.values[i, j]:.3e} at node "
            f"(x1={p0.grid.x1[i]:.4f}, x2={p0.grid.x2[j]:.4f}), below the "
            f"{DENOMINATOR_FLOOR:.1e} floor; the density slice is too close to zero"
        )
    return out
