"""Forward data generation: density solve, coefficient construction, observations.

The pipeline prescribes an analytic value function v, an initial density
and Dirichlet density boundary data, and a target interaction coefficient
k.  The density equation

    dp/dt - lap(p) - div(p grad(v)) = 0

is solved on a fine grid by a backward-Euler scheme, centered in space
with conservative flux differencing of the advection term; each step
solves one sparse system for the interior unknowns only, with the
Dirichlet boundary values moved to its right-hand side.  One LU factor
is kept across steps and each solve is refined with it; a step it cannot
refine is factored afresh.  The local
cost s(x, t) is then constructed so that the value equation holds exactly
for the prescribed v, which requires the computed density to stay away
from zero everywhere.  Observations (midpoint slices, Dirichlet traces,
one-sided Neumann traces at the outflow face) are restricted to the
coarser inversion grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import (
    BOUNDARY_TRACE,
    GAMMA_TRACE,
    SPACE_TIME,
    SPATIAL,
    Field,
    SpaceTimeGrid,
    apply_along_axis,
    ddt,
    ddx1,
    ddx2,
    first_diff_matrix,
    laplacian,
    restriction_strides,
)
from .kernels import InteractionOperator, LineGaussianKernel

DENSITY_FLOOR = 1e-8
# a refined step stops at a residual of a few ulps of its right-hand side
REFINE_RTOL = 1e-14
# a kept factor that needs more solves than this per step no longer
# matches the step's matrix closely enough to be worth keeping
MAX_SWEEPS = 6

SpaceTimeFn = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
SpatialFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ForwardSpec:
    """Everything the generator needs, on the fine grid.

    ``value_fn(x1, x2, t)`` is the prescribed value function; the density
    starts from ``density_init_fn`` and carries Dirichlet data
    ``density_boundary_fn`` on the lateral boundary.  ``coefficient`` is
    the target interaction coefficient k sampled on the grid, and
    ``kernel`` fixes the interaction operator.
    """

    grid: SpaceTimeGrid
    value_fn: SpaceTimeFn
    density_init_fn: SpatialFn
    density_boundary_fn: SpaceTimeFn
    coefficient: np.ndarray
    kernel: LineGaussianKernel

    def __post_init__(self) -> None:
        shape = self.grid.spatial_shape()
        self.coefficient = np.asarray(self.coefficient, dtype=float)
        if self.coefficient.shape != shape:
            raise ValueError(
                f"coefficient must be sampled on the grid {shape}, got {self.coefficient.shape}"
            )

    def value_on_grid(self) -> np.ndarray:
        x1, x2 = self.grid.meshgrid()
        out = np.empty(self.grid.spacetime_shape())
        for n, t in enumerate(self.grid.t):
            out[:, :, n] = self.value_fn(x1, x2, t)
        return out


@dataclass
class ObservationData:
    """Single-measurement data the inversion is allowed to see.

    Midpoint slices of value and density, Dirichlet traces of both on the
    whole lateral boundary, and Neumann traces of both on the outflow face
    x1 = b.  Everything lives on the inversion grid.
    """

    grid: SpaceTimeGrid
    v0: Field
    p0: Field
    g01: Field
    g02: Field
    g11: Field
    g12: Field

    def __post_init__(self) -> None:
        pairs = (
            (self.v0, SPATIAL),
            (self.p0, SPATIAL),
            (self.g01, BOUNDARY_TRACE),
            (self.g02, BOUNDARY_TRACE),
            (self.g11, GAMMA_TRACE),
            (self.g12, GAMMA_TRACE),
        )
        for f, rank in pairs:
            if f.rank != rank:
                raise ValueError(f"expected rank {rank!r}, got {f.rank!r}")
            if f.grid is not self.grid and f.grid != self.grid:
                raise ValueError("all observation fields must share the grid")

    def fields(self):
        return {
            "v0": self.v0,
            "p0": self.p0,
            "g01": self.g01,
            "g02": self.g02,
            "g11": self.g11,
            "g12": self.g12,
        }


@dataclass
class DerivativeBundle:
    """Observation derivatives in the form the objective needs.

    Produced by direct stencils, on the observations themselves (clean
    data) or on their regularized fits (noisy data, see
    ``noise.smooth_observations``, where ``p0`` is the fitted slice);
    downstream code does not care which.
    """

    v0_x1: np.ndarray
    v0_x2: np.ndarray
    v0_lap: np.ndarray
    p0: np.ndarray
    dt_g01: Field
    dt_g02: Field
    dt_g11: Field
    dt_g12: Field


@dataclass
class GeneratedData:
    """Forward run output, restricted to the inversion grid."""

    observations: ObservationData
    cost_coarse: np.ndarray
    cost_rate_coarse: np.ndarray
    min_density: float
    factorizations: int
    refinement_sweeps: int


@dataclass
class DensitySolution:
    """Density on the fine grid, its minimum |p|, and the linear-algebra work.

    ``factorizations`` counts sparse LU factorizations and
    ``refinement_sweeps`` the solves with a kept factor; both depend on
    the data only, so they repeat exactly from run to run.
    """

    density: np.ndarray
    min_density: float
    factorizations: int
    refinement_sweeps: int


def _refined_solve(lu, mat, rhs: np.ndarray) -> Tuple[Optional[np.ndarray], int]:
    """Solve ``mat x = rhs`` by iterative refinement with the factor ``lu``.

    Each sweep solves for the current residual with ``lu`` (the first
    sweep, from x = 0, is the plain solve).  Returns the solution, or None
    when MAX_SWEEPS sweeps do not bring the residual under
    REFINE_RTOL ||rhs||, and the number of sweeps made.
    """
    bound = REFINE_RTOL * np.linalg.norm(rhs)
    sol = np.zeros_like(rhs)
    residual = rhs
    for sweep in range(1, MAX_SWEEPS + 1):
        sol += lu.solve(residual)
        residual = rhs - mat @ sol
        if np.linalg.norm(residual) <= bound:
            return sol, sweep
    return None, MAX_SWEEPS


def solve_density(
    spec: ForwardSpec,
    source: Optional[SpaceTimeFn] = None,
) -> DensitySolution:
    """Backward-Euler solve of the density equation on the fine grid.

    Returns the density on the full space-time grid, its minimum
    absolute value (the caller decides whether that is close enough to
    zero to matter; ``make_s`` enforces the hard floor), and the counts of
    factorizations and refinement sweeps.

    The advection term div(p grad v) is discretized conservatively:
    face fluxes (p_i + p_{i+1})/2 * (v_{i+1} - v_i)/h, then
    differenced.  Coefficients are evaluated at the new time level.
    Each step solves for the interior unknowns only: the five-point
    operator couples an interior node to its interior neighbours, and
    the Dirichlet values of its boundary neighbours move to the
    right-hand side.

    The step matrix changes only through the drift at the new time, so
    one LU factor serves many steps: each step is solved by iterative
    refinement with the kept factor until ||b - Ax|| <= REFINE_RTOL ||b||.
    When MAX_SWEEPS sweeps do not get there, the current step's matrix is
    factored afresh and its direct solve is taken, as at the first step.
    """
    g = spec.grid
    n1, n2 = g.n1, g.n2
    x1, x2 = g.meshgrid()

    p = np.empty(g.spacetime_shape())
    p[:, :, 0] = spec.density_init_fn(x1, x2)

    n_int = (n1 - 2) * (n2 - 2)
    inv_h1sq = 1.0 / (g.h1 * g.h1)
    inv_h2sq = 1.0 / (g.h2 * g.h2)

    # interior numbering, and for east, west, north and south the interior
    # nodes whose neighbour that way is interior too, with its number
    k = np.arange(n_int).reshape(n1 - 2, n2 - 2)
    links = (
        (np.s_[:-1, :], k[1:, :]),
        (np.s_[1:, :], k[:-1, :]),
        (np.s_[:, :-1], k[:, 1:]),
        (np.s_[:, 1:], k[:, :-1]),
    )
    rows = np.concatenate([k.ravel()] + [k[sel].ravel() for sel, _ in links])
    cols = np.concatenate([k.ravel()] + [nbr.ravel() for _, nbr in links])
    # the pattern never changes: build the CSC once and keep where each
    # COO entry lands, so a step only refills the values
    mat = sp.csc_matrix(
        (np.arange(rows.size, dtype=float), (rows, cols)), shape=(n_int, n_int)
    )
    order = mat.data.astype(np.intp)

    lu = None
    factorizations = 0
    sweeps = 0
    for n in range(1, g.nt):
        t = g.t[n]
        v = spec.value_fn(x1, x2, t)

        # advection coefficients from half-node fluxes of dv
        a_e = (v[2:, 1:-1] - v[1:-1, 1:-1]) / g.h1
        a_w = (v[1:-1, 1:-1] - v[:-2, 1:-1]) / g.h1
        a_n = (v[1:-1, 2:] - v[1:-1, 1:-1]) / g.h2
        a_s = (v[1:-1, 1:-1] - v[1:-1, :-2]) / g.h2

        # center: time, diffusion, advection
        center = (
            1.0 / g.ht
            + 2.0 * (inv_h1sq + inv_h2sq)
            - 0.5 * (a_e - a_w) / g.h1
            - 0.5 * (a_n - a_s) / g.h2
        )
        east = -inv_h1sq - 0.5 * a_e / g.h1
        west = -inv_h1sq + 0.5 * a_w / g.h1
        north = -inv_h2sq - 0.5 * a_n / g.h2
        south = -inv_h2sq + 0.5 * a_s / g.h2
        vals = np.concatenate(
            [center.ravel()]
            + [c[sel].ravel() for c, (sel, _) in zip((east, west, north, south), links)]
        )
        np.take(vals, order, out=mat.data)

        # Dirichlet data; the zeroed interior drops interior neighbours
        # from the coupling, summed in the neighbours' node order
        p[:, :, n] = spec.density_boundary_fn(x1, x2, t)
        p[1:-1, 1:-1, n] = 0.0
        b = p[:, :, n]
        coupling = (
            west * b[:-2, 1:-1] + south * b[1:-1, :-2] + north * b[1:-1, 2:] + east * b[2:, 1:-1]
        )
        rhs = p[:, :, n - 1] / g.ht
        if source is not None:
            rhs = rhs + source(x1, x2, t)
        rhs = (rhs[1:-1, 1:-1] - coupling).ravel()

        sol, done = (None, 0) if lu is None else _refined_solve(lu, mat, rhs)
        sweeps += done
        if sol is None:
            lu = splu(mat, permc_spec="MMD_AT_PLUS_A")
            factorizations += 1
            sol = lu.solve(rhs)
        p[1:-1, 1:-1, n] = sol.reshape(n1 - 2, n2 - 2)

    return DensitySolution(p, float(np.min(np.abs(p))), factorizations, sweeps)


def make_s(spec: ForwardSpec, density: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Construct the local cost s so the value equation holds for the data.

        s = [v_t + lap(v) - |grad v|^2 / 2 - k * (interaction of p)] / p

    All derivatives of the sampled value function are taken with the grid
    stencils.  The division requires |p| >= 1e-8 at every node; the error
    message names the first offending node.  The rate s_t comes from
    central time differences of s.
    """
    g = spec.grid
    if density.shape != g.spacetime_shape():
        raise ValueError("density must live on the generation grid")
    mags = np.abs(density)
    if mags.min() < DENSITY_FLOOR:
        i, j, n = np.unravel_index(int(np.argmin(mags)), mags.shape)
        raise ValueError(
            f"density is {density[i, j, n]:.3e} at node (x1={g.x1[i]:.4f}, "
            f"x2={g.x2[j]:.4f}, t={g.t[n]:.4f}), below the {DENSITY_FLOOR:.1e} floor; "
            "the cost construction would blow up"
        )

    v = Field(g, SPACE_TIME, spec.value_on_grid())
    vt = ddt(v).values
    vlap = laplacian(v).values
    vx1 = ddx1(v).values
    vx2 = ddx2(v).values
    op = InteractionOperator(g, spec.kernel)
    inter = op.apply(density)
    num = vt + vlap - 0.5 * (vx1 * vx1 + vx2 * vx2) - spec.coefficient[:, :, None] * inter
    s = num / density
    st = apply_along_axis(first_diff_matrix(g.nt, g.ht), s, 2)
    return s, st


def extract_observations(
    spec: ForwardSpec, density: np.ndarray, coarse: SpaceTimeGrid
) -> ObservationData:
    """Restrict fine-grid fields to the inversion grid's observation set.

    Neumann traces at x1 = b are formed on the fine grid (3-point
    one-sided, second order) before subsampling in (x2, t).
    """
    g = spec.grid
    s1, s2, st_ = restriction_strides(g, coarse)
    x1, x2 = g.meshgrid()

    v = spec.value_on_grid()
    mid = g.mid_index
    v0 = v[::s1, ::s2, mid]
    p0 = density[::s1, ::s2, mid]

    def faces_of(arr: np.ndarray):
        return (
            arr[0, ::s2, ::st_],
            arr[-1, ::s2, ::st_],
            arr[::s1, 0, ::st_],
            arr[::s1, -1, ::st_],
        )

    g01 = Field.from_faces(coarse, *faces_of(v))
    g02 = Field.from_faces(coarse, *faces_of(density))

    def outflow_neumann(arr: np.ndarray) -> np.ndarray:
        d = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * g.h1)
        return d[::s2, ::st_]

    g11 = Field(coarse, GAMMA_TRACE, outflow_neumann(v))
    g12 = Field(coarse, GAMMA_TRACE, outflow_neumann(density))

    return ObservationData(
        grid=coarse,
        v0=Field(coarse, SPATIAL, v0),
        p0=Field(coarse, SPATIAL, p0),
        g01=g01,
        g02=g02,
        g11=g11,
        g12=g12,
    )


def generate(spec: ForwardSpec, coarse: SpaceTimeGrid) -> GeneratedData:
    """Full forward pass: solve, build the cost, restrict everything."""
    solution = solve_density(spec)
    s, st = make_s(spec, solution.density)
    obs = extract_observations(spec, solution.density, coarse)
    s1, s2, st_stride = restriction_strides(spec.grid, coarse)
    return GeneratedData(
        observations=obs,
        cost_coarse=s[::s1, ::s2, ::st_stride],
        cost_rate_coarse=st[::s1, ::s2, ::st_stride],
        min_density=solution.min_density,
        factorizations=solution.factorizations,
        refinement_sweeps=solution.refinement_sweeps,
    )


def stencil_bundle(obs: ObservationData) -> DerivativeBundle:
    """Observation derivatives by direct stencils (the clean-data path)."""
    return DerivativeBundle(
        v0_x1=ddx1(obs.v0).values,
        v0_x2=ddx2(obs.v0).values,
        v0_lap=laplacian(obs.v0).values,
        p0=obs.p0.values.copy(),
        dt_g01=ddt(obs.g01),
        dt_g02=ddt(obs.g02),
        dt_g11=ddt(obs.g11),
        dt_g12=ddt(obs.g12),
    )
