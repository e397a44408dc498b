"""Forward data generation: density solve, coefficient construction, observations.

The pipeline prescribes an analytic value function v, an initial density
and Dirichlet density boundary data, and a target interaction coefficient
k.  The density equation

    dp/dt - lap(p) - div(p grad(v)) = 0

is solved on a fine grid by a backward-Euler scheme, centered in space
with conservative flux differencing of the advection term; each step
solves one five-point system for the interior unknowns only, with the
Dirichlet boundary values moved to its right-hand side.  The solve keeps
its time slabs contiguous, (nt, n1, n2), while it steps, and forms no
matrix.  Each step starts from the density extrapolated from the earlier
steps and sweeps with the exact inverse of its drift-free part, which
the sine bases of the grid lines diagonalize; a step whose drift is too
strong for that is solved by GMRES with the same preconditioner, and a
step neither method solves raises.  The local cost s(x, t) is then
constructed so that the value equation holds exactly for the prescribed
v, which requires the computed density to stay away from zero
everywhere; it and its rate are formed only at the inversion-grid
nodes.  Observations (midpoint slices, Dirichlet traces, one-sided
Neumann traces at the outflow face) are restricted to the coarser
inversion grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .grid import (
    BOUNDARY_TRACE,
    GAMMA_TRACE,
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
    second_diff_matrix,
)
from .kernels import InteractionOperator, LineGaussianKernel

DENSITY_FLOOR = 1e-8
# a step stops at a residual of a few ulps of its right-hand side
REFINE_RTOL = 1e-14
# a step whose drift is weak meets the stop test in a few sweeps from its
# extrapolated start; one that needs more than this goes to GMRES
SWEEP_CAP = 10
# GMRES restart length, and its budget of products with the step matrix
GMRES_RESTART = 30
GMRES_MATVECS = 600

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
        """The value function at every node, indexed (x1, x2, t).

        It is sampled one time slab at a time into a time-major buffer,
        and the result is that buffer's (n1, n2, nt) view.
        """
        x1, x2 = self.grid.meshgrid()
        out = np.empty((self.grid.nt,) + self.grid.spatial_shape())
        for n, t in enumerate(self.grid.t):
            out[n] = self.value_fn(x1, x2, t)
        return out.transpose(1, 2, 0)


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
    preconditioned_sweeps: int
    krylov_steps: int


@dataclass
class DensitySolution:
    """Density on the fine grid, its minimum |p|, and the linear-algebra work.

    ``density`` is indexed (x1, x2, t).  ``preconditioned_sweeps`` counts
    the Richardson sweeps of all steps, those of steps that then needed
    GMRES included, and ``krylov_steps`` the steps that needed GMRES;
    both depend on the data only, so they repeat exactly from run to run.
    With the extrapolated start, a step whose drift changes smoothly
    takes two to five sweeps.
    """

    density: np.ndarray
    min_density: float
    preconditioned_sweeps: int
    krylov_steps: int


def _start(p: np.ndarray, n: int) -> np.ndarray:
    """Interior density at step n extrapolated from the steps before it.

    ``p`` is the time-major density.  Quadratic through the last three
    slabs, linear through two at n = 3, and the last slab at n = 2.
    """
    prev = p[:n, 1:-1, 1:-1]
    if n > 3:
        return 3.0 * prev[-1] - 3.0 * prev[-2] + prev[-3]
    if n == 3:
        return 2.0 * prev[-1] - prev[-2]
    return prev[-1]


def _sine_basis(m: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of the 1D Dirichlet -d2/dx2 stencil.

    The stencil acts on m interior nodes of spacing h.  Its eigenvector
    matrix is the orthonormal, symmetric sine matrix, so it is its own
    inverse.
    """
    j = np.arange(1, m + 1)
    basis = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    return basis, (2.0 / h) ** 2 * np.sin(0.5 * np.pi * j / (m + 1)) ** 2


def _richardson(apply, precondition, rhs: np.ndarray, x: np.ndarray, bound: float):
    """Preconditioned Richardson sweeps ``x += P^-1 (rhs - A x)`` from x.

    Returns the iterate whose residual norm is at most ``bound``, or None
    when SWEEP_CAP sweeps do not get there, and the number of sweeps made.
    ``x`` itself is left as it is, so a step can restart from it.
    """
    residual = rhs - apply(x)
    made = 0
    while np.linalg.norm(residual) > bound:
        if made == SWEEP_CAP:
            return None, made
        x = x + precondition(residual)
        residual = rhs - apply(x)
        made += 1
    return x, made


def _gmres(apply, precondition, rhs: np.ndarray, x: np.ndarray, bound: float):
    """Right-preconditioned restarted GMRES(GMRES_RESTART) from x.

    Each cycle builds an Arnoldi basis of A P^-1 (Gram-Schmidt applied
    twice) and reduces its Hessenberg matrix with Givens rotations; it
    ends early once the rotated residual estimate meets ``bound``.  The
    stop test is on the true residual, formed after every cycle, and at
    most GMRES_MATVECS products with A are spent.  Returns the last
    iterate and its true residual norm.
    """
    shape = x.shape
    residual = rhs - apply(x)
    rnorm = np.linalg.norm(residual)
    used = 0
    while rnorm > bound and used < GMRES_MATVECS:
        m = min(GMRES_RESTART, GMRES_MATVECS - used)
        basis = np.zeros((m + 1, residual.size))
        hess = np.zeros((m + 1, m))
        cos, sin = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = rnorm
        basis[0] = residual.ravel() / rnorm
        for j in range(m):
            w = apply(precondition(basis[j].reshape(shape))).ravel()
            used += 1
            for _ in range(2):
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                hess[: j + 1, j] += h
            hess[j + 1, j] = np.linalg.norm(w)
            if hess[j + 1, j] > 0.0:
                basis[j + 1] = w / hess[j + 1, j]
            for i in range(j):
                upper, lower = hess[i, j], hess[i + 1, j]
                hess[i, j] = cos[i] * upper + sin[i] * lower
                hess[i + 1, j] = cos[i] * lower - sin[i] * upper
            radius = np.hypot(hess[j, j], hess[j + 1, j])
            cos[j], sin[j] = hess[j, j] / radius, hess[j + 1, j] / radius
            hess[j, j], hess[j + 1, j] = radius, 0.0
            g[j + 1] = -sin[j] * g[j]
            g[j] *= cos[j]
            if abs(g[j + 1]) <= bound:
                break
        k = j + 1
        y = np.linalg.solve(hess[:k, :k], g[:k])
        x = x + precondition((y @ basis[:k]).reshape(shape))
        residual = rhs - apply(x)
        rnorm = np.linalg.norm(residual)
    return x, rnorm


def solve_density(
    spec: ForwardSpec,
    value: np.ndarray,
    source: Optional[SpaceTimeFn] = None,
) -> DensitySolution:
    """Backward-Euler solve of the density equation on the fine grid.

    ``value`` is ``spec.value_on_grid()``.  Returns the density on the
    full space-time grid, its minimum absolute value (the caller decides
    whether that is close enough to zero to matter; ``make_s`` enforces
    the hard floor), and the counts of Richardson sweeps and of steps
    that needed GMRES.

    The advection term div(p grad v) is discretized conservatively:
    face fluxes (p_i + p_{i+1})/2 * (v_{i+1} - v_i)/h, then
    differenced.  Coefficients are evaluated at the new time level.
    Each step solves for the interior unknowns only: the five-point
    operator couples an interior node to its interior neighbours, and
    the Dirichlet values of its boundary neighbours move to the
    right-hand side.  The step operator is applied to an interior slab
    by shifted-slice products with its five coefficient arrays; no
    matrix is formed.

    The step matrix is (1/ht) I - lap_h plus the drift part, and the sine
    bases of the x1 and x2 lines diagonalize the first part exactly, so
    its inverse P^-1 costs four small matrix products (the fast
    diagonalization method).  Each step starts from the interior
    extrapolated from the last three steps (two at the third step, one
    at the second) and sweeps x += P^-1 (b - Ax) until
    ||b - Ax|| <= REFINE_RTOL ||b||.  A step whose drift is too strong
    for SWEEP_CAP sweeps restarts from the same start with GMRES,
    preconditioned by the same P^-1, under the same stop test; a step
    that meets it under neither raises RuntimeError.

    Value samples and density are kept time-major, (nt, n1, n2), while
    stepping, so each step reads and writes contiguous slabs; the density
    is returned as its (n1, n2, nt) view.
    """
    g = spec.grid
    n1, n2 = g.n1, g.n2
    x1, x2 = g.meshgrid()

    # a view when ``value`` comes from ``value_on_grid``
    value_t = np.ascontiguousarray(value.transpose(2, 0, 1))
    p = np.empty((g.nt, n1, n2))
    p[0] = spec.density_init_fn(x1, x2)
    # the minimum |p| is taken slab by slab, never over a full-grid |p|
    min_abs = np.abs(p[0]).min()

    inv_h1sq = 1.0 / (g.h1 * g.h1)
    inv_h2sq = 1.0 / (g.h2 * g.h2)

    basis1, eig1 = _sine_basis(n1 - 2, g.h1)
    basis2, eig2 = _sine_basis(n2 - 2, g.h2)
    inv_eig = 1.0 / (1.0 / g.ht + eig1[:, None] + eig2[None, :])

    def precondition(r: np.ndarray) -> np.ndarray:
        return basis1 @ ((basis1 @ r @ basis2) * inv_eig) @ basis2

    # an interior slab inside a zero frame, so the boundary-facing
    # coefficients of the step operator multiply zeros
    framed = np.zeros((n1, n2))
    inner = framed[1:-1, 1:-1]

    sweeps = 0
    krylov_steps = 0
    for n in range(1, g.nt):
        t = g.t[n]
        v = value_t[n]

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

        def neighbours(q: np.ndarray) -> np.ndarray:
            """Off-center part of the step operator on a full (n1, n2) slab."""
            return (
                west * q[:-2, 1:-1] + south * q[1:-1, :-2] + north * q[1:-1, 2:] + east * q[2:, 1:-1]
            )

        def apply(x: np.ndarray) -> np.ndarray:
            inner[...] = x
            return center * x + neighbours(framed)

        # Dirichlet data; the zeroed interior drops interior neighbours
        # from the coupling
        p[n] = spec.density_boundary_fn(x1, x2, t)
        p[n, 1:-1, 1:-1] = 0.0
        coupling = neighbours(p[n])
        rhs = p[n - 1] / g.ht
        if source is not None:
            rhs = rhs + source(x1, x2, t)
        rhs = rhs[1:-1, 1:-1] - coupling

        bound = REFINE_RTOL * np.linalg.norm(rhs)
        start = _start(p, n)
        sol, made = _richardson(apply, precondition, rhs, start, bound)
        sweeps += made
        if sol is None:
            krylov_steps += 1
            sol, reached = _gmres(apply, precondition, rhs, start, bound)
            if reached > bound:
                raise RuntimeError(
                    f"density step {n} (t={t:.6g}) did not converge: residual "
                    f"{reached:.3e} against the bound {bound:.3e} after {SWEEP_CAP} "
                    f"sweeps and {GMRES_MATVECS} GMRES matvecs"
                )
        p[n, 1:-1, 1:-1] = sol
        min_abs = np.minimum(min_abs, np.abs(p[n]).min())

    return DensitySolution(p.transpose(1, 2, 0), float(min_abs), sweeps, krylov_steps)


def make_s(
    spec: ForwardSpec, density: np.ndarray, value: np.ndarray, coarse: SpaceTimeGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Construct the local cost s so the value equation holds for the data.

        s = [v_t + lap(v) - |grad v|^2 / 2 - k * (interaction of p)] / p

    Returns s and its rate s_t at the nodes of ``coarse``, which must nest
    in the generation grid.  All derivatives of the sampled value function
    are taken with the fine-grid stencils and the interaction with the
    fine-grid quadrature, but only their rows at the coarse (x1, x2) nodes
    are formed: s there at every fine time, then s_t by the rows of the
    central time difference at the coarse times.  With ``coarse =
    spec.grid`` every stride is 1 and this is the full-grid construction.
    The division requires |p| >= 1e-8 at every fine node; the error
    message names the first offending node.  ``value`` is
    ``spec.value_on_grid()``.
    """
    g = spec.grid
    if density.shape != g.spacetime_shape():
        raise ValueError("density must live on the generation grid")
    # slab by slab, so no full-grid |p| is formed unless the check fails
    if np.min([np.abs(density[:, :, n]).min() for n in range(g.nt)]) < DENSITY_FLOOR:
        mags = np.abs(density)
        i, j, n = np.unravel_index(int(np.argmin(mags)), mags.shape)
        raise ValueError(
            f"density is {density[i, j, n]:.3e} at node (x1={g.x1[i]:.4f}, "
            f"x2={g.x2[j]:.4f}, t={g.t[n]:.4f}), below the {DENSITY_FLOOR:.1e} floor; "
            "the cost construction would blow up"
        )

    s1, s2, st_ = restriction_strides(g, coarse)
    # the stencil rows at coarse nodes read only the whole x1 lines through
    # the coarse x2 nodes and the x2 lines through the coarse x1 nodes
    lines1, lines2 = value[:, ::s2], value[::s1]
    d_t = first_diff_matrix(g.nt, g.ht)
    vt = apply_along_axis(d_t, value[::s1, ::s2], 2)
    vlap = apply_along_axis(second_diff_matrix(g.n1, g.h1)[::s1], lines1, 0) + apply_along_axis(
        second_diff_matrix(g.n2, g.h2)[::s2], lines2, 1
    )
    vx1 = apply_along_axis(first_diff_matrix(g.n1, g.h1)[::s1], lines1, 0)
    vx2 = apply_along_axis(first_diff_matrix(g.n2, g.h2)[::s2], lines2, 1)
    inter = InteractionOperator(g, spec.kernel).apply(density[::s1], rows=np.s_[::s2])
    k = spec.coefficient[::s1, ::s2, None]
    num = vt + vlap - 0.5 * (vx1 * vx1 + vx2 * vx2) - k * inter
    s = num / density[::s1, ::s2]
    return s[:, :, ::st_], apply_along_axis(d_t[::st_], s, 2)


def extract_observations(
    spec: ForwardSpec,
    density: np.ndarray,
    coarse: SpaceTimeGrid,
    value: np.ndarray,
) -> ObservationData:
    """Restrict fine-grid fields to the inversion grid's observation set.

    Neumann traces at x1 = b are formed on the fine grid (3-point
    one-sided, second order) before subsampling in (x2, t).  ``value`` is
    ``spec.value_on_grid()``.
    """
    g = spec.grid
    s1, s2, st_ = restriction_strides(g, coarse)

    mid = g.mid_index
    v0 = value[::s1, ::s2, mid]
    p0 = density[::s1, ::s2, mid]

    def faces_of(arr: np.ndarray):
        return (
            arr[0, ::s2, ::st_],
            arr[-1, ::s2, ::st_],
            arr[::s1, 0, ::st_],
            arr[::s1, -1, ::st_],
        )

    g01 = Field.from_faces(coarse, *faces_of(value))
    g02 = Field.from_faces(coarse, *faces_of(density))

    def outflow_neumann(arr: np.ndarray) -> np.ndarray:
        d = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * g.h1)
        return d[::s2, ::st_]

    g11 = Field(coarse, GAMMA_TRACE, outflow_neumann(value))
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
    """Full forward pass: solve, build the cost, restrict everything.

    The value function is sampled once and shared by all three stages.
    """
    value = spec.value_on_grid()
    solution = solve_density(spec, value)
    s, st = make_s(spec, solution.density, value, coarse)
    obs = extract_observations(spec, solution.density, coarse, value)
    return GeneratedData(
        observations=obs,
        cost_coarse=s,
        cost_rate_coarse=st,
        min_density=solution.min_density,
        preconditioned_sweeps=solution.preconditioned_sweeps,
        krylov_steps=solution.krylov_steps,
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
