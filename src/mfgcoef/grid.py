"""Uniform tensor grids on the space-time slab and the discrete calculus on them.

The computational domain is the box (a, b) x (-half_width, half_width) in
space crossed with (0, horizon) in time.  Everything downstream (residual
stencils, the objective gradient) is built from the small dense matrices
defined here, so that transposing a matrix is all it takes to get an
exact adjoint.  Two operators that both the forward and the inverse half
use are defined here, once each: ``InteractionOperator``, the interaction
integral of the density as one trapezoid quadrature along x2, with the
guarded midpoint denominator that the coefficient elimination divides
by; and ``H2Form``, the H2 penalty of the objective, the per-axis
difference operators and Gram matrices from which its value, its
gradient and its diagonal are all read.

Array layout is row-major (x1, x2) for spatial fields and (x1, x2, t) for
space-time fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

SPATIAL = "spatial"
SPACE_TIME = "space-time"
BOUNDARY_TRACE = "boundary-trace"
GAMMA_TRACE = "gamma-trace"

RANKS = (SPATIAL, SPACE_TIME, BOUNDARY_TRACE, GAMMA_TRACE)

# Fixed face order for boundary-trace storage.  Corners are stored twice
# (once per adjacent face); consumers that scatter a trace onto the grid
# apply the x2 faces first so the x1 faces win the corners.
FACES = ("x1a", "x1b", "x2lo", "x2hi")


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform node grid on [a, b] x [-half_width, half_width] x [0, horizon].

    Parameters
    ----------
    a, b : float
        Extent of the first spatial axis, a < b.
    half_width : float
        The second spatial axis spans [-half_width, half_width].
    horizon : float
        Final time.
    n1, n2, nt : int
        Node counts per axis, at least 3 each.  (nt - 1) must be even so
        that the temporal midpoint horizon/2 is a grid node; the Volterra
        operator and the coefficient recovery are anchored there.
    """

    a: float
    b: float
    half_width: float
    horizon: float
    n1: int
    n2: int
    nt: int

    def __post_init__(self) -> None:
        if not (self.b > self.a):
            raise ValueError(f"need b > a, got a={self.a}, b={self.b}")
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        for name, n in (("n1", self.n1), ("n2", self.n2), ("nt", self.nt)):
            if n < 3:
                raise ValueError(f"{name} must be at least 3, got {n}")
        if (self.nt - 1) % 2 != 0:
            raise ValueError(
                f"nt - 1 must be even so the temporal midpoint is a node, got nt={self.nt}"
            )

    @property
    def h1(self) -> float:
        return (self.b - self.a) / (self.n1 - 1)

    @property
    def h2(self) -> float:
        return 2.0 * self.half_width / (self.n2 - 1)

    @property
    def ht(self) -> float:
        return self.horizon / (self.nt - 1)

    @property
    def mid_index(self) -> int:
        """Index of the t = horizon/2 slice."""
        return (self.nt - 1) // 2

    @property
    def x1(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n1)

    @property
    def x2(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n2)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.nt)

    @property
    def volume(self) -> float:
        """Measure of the closed space-time slab."""
        return (self.b - self.a) * 2.0 * self.half_width * self.horizon

    @property
    def cell_volume(self) -> float:
        return self.h1 * self.h2 * self.ht

    @property
    def node_weight(self) -> float:
        """Uniform node weight summing to the slab volume (mean cell volume)."""
        return self.volume / (self.n1 * self.n2 * self.nt)

    def spatial_shape(self) -> Tuple[int, int]:
        return (self.n1, self.n2)

    def spacetime_shape(self) -> Tuple[int, int, int]:
        return (self.n1, self.n2, self.nt)

    def meshgrid(self):
        """Node coordinates X1, X2 as (n1, n2) arrays."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def trace_length(self) -> int:
        """Stored sample count of a boundary trace (faces keep their corners)."""
        return 2 * self.n2 * self.nt + 2 * self.n1 * self.nt


def first_diff_matrix(n: int, h: float) -> np.ndarray:
    """Dense first-derivative matrix: centered interior, 3-point one-sided ends.

    Both closures are second order; the whole matrix is exact on quadratics.
    """
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    d = np.zeros((n, n))
    for i in range(1, n - 1):
        d[i, i - 1] = -0.5
        d[i, i + 1] = 0.5
    d[0, 0:3] = (-1.5, 2.0, -0.5)
    d[n - 1, n - 3 : n] = (0.5, -2.0, 1.5)
    return d / h


def second_diff_matrix(n: int, h: float) -> np.ndarray:
    """Dense second-derivative matrix: centered interior, one-sided 3-point ends.

    The end rows reuse the symmetric stencil shifted inward; they are exact
    on quadratics but only first-order accurate in general (low-order
    closure, which is all the boundary rows of the Laplacian promise).
    """
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    d = np.zeros((n, n))
    for i in range(1, n - 1):
        d[i, i - 1 : i + 2] = (1.0, -2.0, 1.0)
    d[0, 0:3] = (1.0, -2.0, 1.0)
    d[n - 1, n - 3 : n] = (1.0, -2.0, 1.0)
    return d / (h * h)


def volterra_matrix(nt: int, ht: float, mid: int) -> np.ndarray:
    """Signed cumulative trapezoid from the midpoint slice.

    Row j holds the weights of the trapezoid rule for the integral from
    t_mid to t_j; rows below the midpoint carry the negative orientation.
    The rows telescope exactly, so differences of the output reproduce the
    plain trapezoid rule over [t_i, t_j] to machine precision.
    """
    if not (0 <= mid < nt):
        raise ValueError(f"mid index {mid} outside 0..{nt - 1}")
    v = np.zeros((nt, nt))
    for j in range(mid + 1, nt):
        v[j] = v[j - 1]
        v[j, j - 1] += 0.5 * ht
        v[j, j] += 0.5 * ht
    for j in range(mid - 1, -1, -1):
        v[j] = v[j + 1]
        v[j, j + 1] -= 0.5 * ht
        v[j, j] -= 0.5 * ht
    return v


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


# the smallest |interaction integral| of the midpoint density that the
# coefficient elimination may divide by
DENOMINATOR_FLOOR = 1e-8


class DenominatorError(ValueError):
    """The interaction integral of a density slice vanishes at some node."""


class InteractionOperator:
    """The interaction integral of the density, node by node, on one grid.

    The coupling term of the value equation integrates the density against
    a kernel concentrated on the line y1 = x1 with the transverse Gaussian
    weight exp(-(x2 - y2)^2 / sigma^2); ``sigma = inf`` is the flat weight
    1, the plain trapezoid integral over y2.  The integral collapses to one
    quadrature over y2, a dense (n2, n2) matrix with nonnegative weights,
    built once.  ``apply`` evaluates it at every node of a spatial or
    space-time array by applying it along x2 (or only at the x2 nodes
    ``rows`` selects, with those rows of the matrix), and
    ``apply_transpose`` is its exact adjoint in the unweighted node inner
    product; the objective gradient depends on that.
    """

    def __init__(self, grid: SpaceTimeGrid, sigma: float) -> None:
        if not sigma > 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.grid = grid
        d = np.subtract.outer(grid.x2, grid.x2)
        w2 = trapezoid_weights(grid.n2, grid.h2)
        self._matrix = np.exp(-(d * d) / (sigma * sigma)) * w2[None, :]

    def apply(self, values: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        return apply_along_axis(self._matrix[rows], values, 1)

    def apply_transpose(self, values: np.ndarray) -> np.ndarray:
        return apply_along_axis(self._matrix.T, values, 1)

    def denominator(self, p0: np.ndarray) -> np.ndarray:
        """The integral of a midpoint density slice; used as a reciprocal later.

        Raises ``DenominatorError`` if any node falls below
        ``DENOMINATOR_FLOOR`` in magnitude, naming the worst offender:
        downstream code divides by this field.
        """
        g = self.grid
        if np.shape(p0) != g.spatial_shape():
            raise ValueError(f"denominator needs a density slice, got shape {np.shape(p0)}")
        out = self.apply(p0)
        mags = np.abs(out)
        if mags.min() < DENOMINATOR_FLOOR:
            i, j = np.unravel_index(int(np.argmin(mags)), mags.shape)
            raise DenominatorError(
                f"interaction denominator is {out[i, j]:.3e} at node "
                f"(x1={g.x1[i]:.4f}, x2={g.x2[j]:.4f}), below the "
                f"{DENOMINATOR_FLOOR:.1e} floor; the density slice is too close to zero"
            )
        return out


def apply_along_axis(mat: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Apply a dense (m, n) matrix along one axis of an nd-array.

    The axis is brought to the front by one transpose, the rest is
    flattened into columns and multiplied as ``mat @ X``, and the result
    is transposed back.  This is the same GEMM, on the same operands, as
    the ``np.moveaxis`` form, and the output has the same strides, so
    results (and reductions over them in memory order) match it bit for
    bit; only the per-call axis bookkeeping is gone.
    """
    ndim = values.ndim
    front = (axis,) + tuple(i for i in range(ndim) if i != axis)
    moved = values.transpose(front)
    out = mat @ moved.reshape(mat.shape[1], -1)
    back = tuple(range(1, axis + 1)) + (0,) + tuple(range(axis + 1, ndim))
    return out.reshape((mat.shape[0],) + moved.shape[1:]).transpose(back)


@dataclass
class Field:
    """Values attached to a grid with a rank tag.

    Ranks and value shapes:

    - spatial:        (n1, n2)
    - space-time:     (n1, n2, nt)
    - boundary-trace: flat, the four faces concatenated in FACES order,
                      x1 faces shaped (n2, nt) and x2 faces (n1, nt)
    - gamma-trace:    (n2, nt), samples on the x1 = b face
    """

    grid: SpaceTimeGrid
    rank: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.rank not in RANKS:
            raise ValueError(f"unknown rank {self.rank!r}, expected one of {RANKS}")
        self.values = np.asarray(self.values, dtype=float)
        expected = self.expected_shape(self.grid, self.rank)
        if self.values.shape != expected:
            raise ValueError(
                f"rank {self.rank!r} expects shape {expected}, got {self.values.shape}"
            )

    @staticmethod
    def expected_shape(grid: SpaceTimeGrid, rank: str) -> Tuple[int, ...]:
        if rank == SPATIAL:
            return grid.spatial_shape()
        if rank == SPACE_TIME:
            return grid.spacetime_shape()
        if rank == GAMMA_TRACE:
            return (grid.n2, grid.nt)
        if rank == BOUNDARY_TRACE:
            return (grid.trace_length(),)
        raise ValueError(f"unknown rank {rank!r}")

    @classmethod
    def from_faces(
        cls,
        grid: SpaceTimeGrid,
        x1a: np.ndarray,
        x1b: np.ndarray,
        x2lo: np.ndarray,
        x2hi: np.ndarray,
    ) -> "Field":
        parts = []
        for name, arr, shape in (
            ("x1a", x1a, (grid.n2, grid.nt)),
            ("x1b", x1b, (grid.n2, grid.nt)),
            ("x2lo", x2lo, (grid.n1, grid.nt)),
            ("x2hi", x2hi, (grid.n1, grid.nt)),
        ):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"face {name} expects shape {shape}, got {arr.shape}")
            parts.append(arr.ravel())
        return cls(grid, BOUNDARY_TRACE, np.concatenate(parts))

    def face(self, name: str) -> np.ndarray:
        """View of one stored face of a boundary trace, shaped (n, nt)."""
        if self.rank != BOUNDARY_TRACE:
            raise ValueError(f"face() needs a boundary-trace field, got {self.rank!r}")
        g = self.grid
        sizes = {
            "x1a": (0, g.n2),
            "x1b": (g.n2 * g.nt, g.n2),
            "x2lo": (2 * g.n2 * g.nt, g.n1),
            "x2hi": (2 * g.n2 * g.nt + g.n1 * g.nt, g.n1),
        }
        if name not in sizes:
            raise ValueError(f"unknown face {name!r}, expected one of {FACES}")
        start, rows = sizes[name]
        return self.values[start : start + rows * g.nt].reshape(rows, g.nt)

    def copy(self) -> "Field":
        return Field(self.grid, self.rank, self.values.copy())


class H2Form:
    """The squared discrete H2 norm over the space-time slab, z . H z.

    The norm sums, over every node and with the uniform node weight, the
    squared value, the three squared first differences and all six
    distinct squared second differences (pure seconds from the symmetric
    stencil, mixed ones as nested first differences).  Each of these ten
    terms is |Op z|^2 for a difference operator acting along one or two
    axes, so H is the node weight times the sum of the tensor products of
    the 1-D Gram matrices.

    The value sums |Op z|^2, which stays accurate for fields close to the
    null space of the difference operators (z . (H z) would lose about
    cond(D)^2 digits there).  Along each axis the first and second
    differences are row-stacked into one operator [D; S], and the mixed
    terms are taken from its first-difference block.  H z sums, per axis,
    the Gram of every term acting along that axis alone (I + D^T D + S^T S
    on x1, D^T D + S^T S on x2 and t), plus the three mixed products of
    the first-difference Grams G; the diagonal of H is read off the same
    factors.  Exact on the closed slab: a constant c gives c^2 * volume.

    ``norm_sq`` and ``apply`` act on the last three axes, so one call
    serves u and m stacked as (2, n1, n2, nt), and a single field works
    too.  ``first`` and ``second`` hold the x1, x2 and t difference
    matrices, which the objective's residuals use as well.
    """

    def __init__(self, grid: SpaceTimeGrid) -> None:
        self.grid = grid
        axes = ((grid.n1, grid.h1), (grid.n2, grid.h2), (grid.nt, grid.ht))
        firsts = [first_diff_matrix(*a) for a in axes]
        seconds = [second_diff_matrix(*a) for a in axes]
        self._sizes = tuple(n for n, _ in axes)
        self.first = tuple(firsts)
        self.second = tuple(seconds)
        self._stacked = tuple(np.vstack((d, s)) for d, s in zip(firsts, seconds))
        self._grams = tuple(d.T @ d for d in firsts)
        summed = [g + s.T @ s for g, s in zip(self._grams, seconds)]
        summed[0] += np.eye(grid.n1)
        self._summed = tuple(summed)
        # H z as four products, with A an axis's summed Gram: [A; G] along
        # x1 and along x2, G along x2 on G_x1 z, and [A, G] along t on the
        # concatenation (z, G_x1 z + G_x2 z)
        self._apply_x1 = np.vstack((summed[0], self._grams[0]))
        self._apply_x2 = np.vstack((summed[1], self._grams[1]))
        self._apply_t = np.hstack((summed[2], self._grams[2]))

    def norm_sq(self, values: np.ndarray) -> float:
        """The squared H2 norm of node values, summed over any leading axes."""
        lead = values.ndim - 3
        total = np.sum(values * values)
        firsts = []
        for ax, (n, op) in enumerate(zip(self._sizes, self._stacked)):
            out = apply_along_axis(op, values, lead + ax)
            total += np.sum(out * out)
            firsts.append(_head(out, lead + ax, n))
        mixed = apply_along_axis(self.first[1], firsts[0], lead + 1)
        total += np.sum(mixed * mixed)
        mixed = apply_along_axis(self.first[2], np.stack(firsts[:2]), lead + 3)
        total += np.sum(mixed * mixed)
        return float(self.grid.node_weight * total)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """H z on the last three axes, so that the gradient of ``norm_sq`` is 2 H z."""
        lead = values.ndim - 3
        n1, n2, _ = self._sizes
        along_x1 = apply_along_axis(self._apply_x1, values, lead)
        along_x2 = apply_along_axis(self._apply_x2, values, lead + 1)
        gram_x1 = _tail(along_x1, lead, n1)
        out = _head(along_x1, lead, n1) + _head(along_x2, lead + 1, n2)
        out += apply_along_axis(self._grams[1], gram_x1, lead + 1)
        joined = np.concatenate((values, gram_x1 + _tail(along_x2, lead + 1, n2)), axis=lead + 2)
        out += apply_along_axis(self._apply_t, joined, lead + 2)
        return self.grid.node_weight * out

    def diagonal(self) -> np.ndarray:
        """diag(H) on the space-time grid: sums and products of the Gram diagonals."""
        shapes = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
        a1, a2, at = (np.diag(m).reshape(s) for m, s in zip(self._summed, shapes))
        g1, g2, gt = (np.diag(m).reshape(s) for m, s in zip(self._grams, shapes))
        out = a1 + a2 + at + g1 * g2 + g1 * gt + g2 * gt
        return self.grid.node_weight * out


def _head(values: np.ndarray, axis: int, n: int) -> np.ndarray:
    """The first ``n`` entries along ``axis``: the top block of a row-stacked operator."""
    return values[(slice(None),) * axis + (slice(None, n),)]


def _tail(values: np.ndarray, axis: int, n: int) -> np.ndarray:
    """The entries past the first ``n`` along ``axis``: the bottom block."""
    return values[(slice(None),) * axis + (slice(n, None),)]


def restriction_strides(fine: SpaceTimeGrid, coarse: SpaceTimeGrid) -> Tuple[int, int, int]:
    """Subsampling strides mapping fine nodes onto coarse nodes exactly.

    The two grids must share extents and the fine node counts must nest the
    coarse ones; otherwise restriction would not land on nodes.
    """
    same_box = (
        fine.a == coarse.a
        and fine.b == coarse.b
        and fine.half_width == coarse.half_width
        and fine.horizon == coarse.horizon
    )
    if not same_box:
        raise ValueError("grids cover different boxes")
    strides = []
    for nf, nc, name in (
        (fine.n1, coarse.n1, "n1"),
        (fine.n2, coarse.n2, "n2"),
        (fine.nt, coarse.nt, "nt"),
    ):
        if (nf - 1) % (nc - 1) != 0:
            raise ValueError(f"fine {name}-1={nf - 1} does not nest coarse {nc - 1}")
        strides.append((nf - 1) // (nc - 1))
    return tuple(strides)
