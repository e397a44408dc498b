"""Forward data generation: density solve, coefficient construction, observations.

The pipeline prescribes an analytic value function v, an analytic density
whose samples give the initial density and the Dirichlet boundary data,
and a target interaction coefficient k.  The density equation

    dp/dt - lap(p) - div(p grad(v)) = 0

is solved on a fine grid by a backward-Euler scheme, centered in space
with conservative flux differencing of the advection term; each step
solves one five-point system for the interior unknowns only, with the
Dirichlet boundary values moved to its right-hand side.  Each step starts
from the density extrapolated from the earlier steps and sweeps with the
exact inverse of its drift-free part, which the sine bases of the grid
lines diagonalize; a step whose drift is too strong for that is solved by
GMRES with the same preconditioner, and a step neither method solves
raises, unless it is solved to rounding (see ``solve_density``).  The
local cost s(x, t) is then constructed so that the value equation holds
exactly for the prescribed v, which requires the computed density to stay
away from zero everywhere; it and its rate are formed only at the
inversion-grid nodes.  Observations (midpoint slices, Dirichlet traces,
one-sided Neumann traces at the outflow face) are restricted to the
coarser inversion grid.

The solve streams its time levels and forms no matrix and no fine-grid
space-time array.  It samples v one slab at a time, steps with the last
three density slabs, and keeps v and p only at the fine time levels that
the outputs read (``kept_slabs``): the coarse times, the levels beside
them that the time difference of s reads, and the levels beside those
that v_t reads.  On the default grids (81x81x321 fine, 21x21x11 coarse)
that is 53 of 321 levels, 2.8 MB per field against 16.8 MB, and the
traced allocation peak of ``generate`` is about 12 MB.

The step keeps both solvers because neither covers the other's cases.
Sweeps alone diverge on the drift-jump grids of the tests (50- and
200-fold jumps) and on long horizons.  GMRES alone, started from the
same extrapolated guess on the default 81x81x321 grid, makes 915
Arnoldi products plus one update per step, 1235 preconditioner
applications against the sweeps' 932, and takes 0.57-0.59 s against
0.35-0.38 s (2-core x86-64 host), since each cycle forms extra
residuals and builds an Arnoldi basis; it moves the density, which
peaks at 6, by 7.6e-13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .grid import (
    BOUNDARY_TRACE,
    GAMMA_TRACE,
    SPATIAL,
    Field,
    InteractionOperator,
    SpaceTimeGrid,
    apply_along_axis,
    first_diff_matrix,
    restriction_strides,
    second_diff_matrix,
)

DENSITY_FLOOR = 1e-8
# a step stops at a residual of a few ulps of its right-hand side
REFINE_RTOL = 1e-14
# a step whose drift is weak meets the stop test in a few sweeps from its
# extrapolated start; one that needs more than this goes to GMRES
SWEEP_CAP = 10
# GMRES restart length, and its budget of products with the step matrix
GMRES_RESTART = 30
GMRES_MATVECS = 600
# a GMRES step that misses REFINE_RTOL is solved, and stops, once its
# normwise backward error ||b - Ax|| / || |A| |x| || is at this rounding floor
BACKWARD_ERROR_FLOOR = 64 * np.finfo(float).eps

SpaceTimeFn = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


@dataclass
class ForwardSpec:
    """Everything the generator needs, on the fine grid.

    ``value_fn(x1, x2, t)`` is the prescribed value function.  The
    density starts from ``density_fn(x1, x2, 0)`` and carries the
    Dirichlet data ``density_fn(x1, x2, t)`` on the lateral boundary.
    ``coefficient`` is the target interaction coefficient k sampled on
    the grid, and ``sigma`` is the width of the interaction kernel
    (``grid.InteractionOperator``).  The functions are sampled one time
    level at a time, so no field over the whole grid is formed from them.
    """

    grid: SpaceTimeGrid
    value_fn: SpaceTimeFn
    density_fn: SpaceTimeFn
    coefficient: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        shape = self.grid.spatial_shape()
        self.coefficient = np.asarray(self.coefficient, dtype=float)
        if self.coefficient.shape != shape:
            raise ValueError(
                f"coefficient must be sampled on the grid {shape}, got {self.coefficient.shape}"
            )


# the observation set, in the order that fixes each field's noise stream
OBSERVATION_FIELDS = ("v0", "p0", "g01", "g02", "g11", "g12")


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
        return {name: getattr(self, name) for name in OBSERVATION_FIELDS}


@dataclass
class GeneratedData:
    """Forward run output, restricted to the inversion grid."""

    observations: ObservationData
    cost_coarse: np.ndarray
    cost_rate_coarse: np.ndarray
    min_density: float
    preconditioned_sweeps: int
    krylov_steps: int


def kept_slabs(fine: SpaceTimeGrid, coarse: SpaceTimeGrid) -> Tuple[np.ndarray, np.ndarray]:
    """The fine time levels the outputs read, as sorted index arrays.

    Returns ``(cost, kept)``.  ``cost`` holds the levels where ``make_s``
    forms s: the coarse times and the levels that the rows of the time
    difference at those times read.  ``kept`` adds the levels that the
    rows of v_t at the ``cost`` levels read; the observations read the
    coarse times only.  Both are taken from the nonzero pattern of the
    time-difference matrix.  When ``coarse`` is ``fine`` every level is
    kept.
    """
    st = restriction_strides(fine, coarse)[2]
    reads = first_diff_matrix(fine.nt, fine.ht) != 0
    cost = np.zeros(fine.nt, dtype=bool)
    cost[::st] = True
    cost |= reads[::st].any(axis=0)
    kept = cost | reads[cost].any(axis=0)
    return np.flatnonzero(cost), np.flatnonzero(kept)


@dataclass
class DensitySolution:
    """The value and the density at the kept time levels, and the solve's record.

    ``slabs`` holds the fine time indices kept, ascending, and ``value``
    and ``density`` are indexed (x1, x2, position in ``slabs``).
    ``min_density`` is the signed minimum of p over every fine node,
    kept or not, and ``min_node`` its (x1, x2, t) index, the earliest
    level where it is reached.  ``preconditioned_sweeps`` counts the
    Richardson sweeps of all steps, those of steps that then needed GMRES
    included, and ``krylov_steps`` the steps that needed GMRES; both
    depend on the data only, so they repeat exactly from run to run.  With the
    extrapolated start, a step whose drift changes smoothly takes two to
    five sweeps.  A solve for the generation grid itself keeps every
    level, so its fields are the full (n1, n2, nt) arrays.
    """

    slabs: np.ndarray
    value: np.ndarray
    density: np.ndarray
    min_density: float
    min_node: Tuple[int, int, int]
    preconditioned_sweeps: int
    krylov_steps: int

    def positions(self, levels: np.ndarray) -> np.ndarray:
        """Where the fine time ``levels`` sit in ``slabs``; all must be kept."""
        if not np.isin(levels, self.slabs).all():
            raise ValueError("the density solution does not keep the time levels read here")
        return np.searchsorted(self.slabs, levels)


def _start(recent: List[np.ndarray], n: int) -> np.ndarray:
    """Interior density at step n extrapolated from the steps before it.

    ``recent`` holds the last three density slabs, oldest first (fewer
    before the third step).  Quadratic through the three, linear through
    the last two at n = 3, and the last slab at n = 2.
    """
    prev = [q[1:-1, 1:-1] for q in recent]
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


def _five_point(coeffs, q: np.ndarray) -> np.ndarray:
    """Off-center part of a step operator on a full (n1, n2) slab.

    ``coeffs`` holds the west, south, north and east coefficient arrays.
    """
    west, south, north, east = coeffs
    return west * q[:-2, 1:-1] + south * q[1:-1, :-2] + north * q[1:-1, 2:] + east * q[2:, 1:-1]


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


def _gmres(apply, magnitude, precondition, rhs: np.ndarray, x: np.ndarray, bound: float):
    """Right-preconditioned restarted GMRES(GMRES_RESTART) from x.

    Each cycle builds an Arnoldi basis of A P^-1 (Gram-Schmidt applied
    twice) and reduces its Hessenberg matrix with Givens rotations; it
    ends early once the rotated residual estimate meets ``bound``.  After
    every cycle the iterate's true residual is formed, and the solve
    stops once it meets ``bound`` or once the normwise backward error
    ||b - Ax|| / || |A| |x| || is at most BACKWARD_ERROR_FLOOR;
    ``magnitude`` applies |A|.  At most GMRES_MATVECS products with A are
    spent.  Returns the last iterate, its true residual norm and its
    backward error.
    """
    shape = x.shape

    def backward_error(x: np.ndarray, rnorm: float) -> float:
        return rnorm / np.linalg.norm(magnitude(np.abs(x)))

    residual = rhs - apply(x)
    rnorm = np.linalg.norm(residual)
    backward = backward_error(x, rnorm)
    used = 0
    while rnorm > bound and backward > BACKWARD_ERROR_FLOOR and used < GMRES_MATVECS:
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
        backward = backward_error(x, rnorm)
    return x, rnorm, backward


def solve_density(
    spec: ForwardSpec,
    coarse: SpaceTimeGrid,
    source: Optional[SpaceTimeFn] = None,
) -> DensitySolution:
    """Backward-Euler solve of the density equation on the fine grid.

    Returns the value and the density at the fine time levels that
    ``make_s`` and ``extract_observations`` read for the inversion grid
    ``coarse`` (``kept_slabs``; every level when ``coarse`` is
    ``spec.grid``), the signed minimum of p over every fine node and
    where it sits (the caller decides whether that is far enough above
    zero; ``make_s`` enforces the hard floor), and the counts of
    Richardson sweeps and of steps that needed GMRES.

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
    preconditioned by the same P^-1, under the same stop test or solved
    to rounding.  Rounding alone leaves a residual of a few ulps of
    || |A| |x| ||, which exceeds REFINE_RTOL ||b|| when ||b|| is much
    smaller, so GMRES also stops, after any cycle, once the normwise
    backward error ||b - Ax|| / || |A| |x| || is at most
    BACKWARD_ERROR_FLOOR.  A step that meets neither test within the
    GMRES budget raises RuntimeError.

    The solve streams its levels.  v is sampled one level at a time, by
    the same ``value_fn`` calls in the same order as a sampling of the
    whole grid, and besides the kept levels only the last three density
    slabs and the current one are held.  The kept levels are stored
    time-major, (slab, n1, n2), and returned as their (n1, n2, slab)
    views: on the default grids 53 of 321 levels, 2.8 MB per field
    against 16.8 MB for a field on every fine node.
    """
    g = spec.grid
    n1, n2 = g.n1, g.n2
    x1, x2 = g.meshgrid()
    times = g.t
    slabs = kept_slabs(g, coarse)[1]
    stored = np.full(g.nt, -1)
    stored[slabs] = np.arange(slabs.size)
    value = np.empty((slabs.size, n1, n2))
    density = np.empty((slabs.size, n1, n2))

    def slab(store: np.ndarray, n: int) -> np.ndarray:
        return store[stored[n]] if stored[n] >= 0 else np.empty((n1, n2))

    def sample_value(n: int) -> np.ndarray:
        v = slab(value, n)
        v[...] = spec.value_fn(x1, x2, times[n])
        return v

    # the smallest p of a slab and its node, so no full-grid minimum is formed
    def minimum(p: np.ndarray, n: int):
        k = int(np.argmin(p))
        return p.flat[k], np.unravel_index(k, p.shape) + (n,)

    sample_value(0)
    p = slab(density, 0)
    p[...] = spec.density_fn(x1, x2, times[0])
    smallest = minimum(p, 0)
    recent = [p]

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
        t = times[n]
        v = sample_value(n)

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
        off = (
            -inv_h1sq + 0.5 * a_w / g.h1,
            -inv_h2sq + 0.5 * a_s / g.h2,
            -inv_h2sq - 0.5 * a_n / g.h2,
            -inv_h1sq - 0.5 * a_e / g.h1,
        )

        def apply(x: np.ndarray) -> np.ndarray:
            inner[...] = x
            return center * x + _five_point(off, framed)

        def magnitude(x: np.ndarray) -> np.ndarray:
            inner[...] = x
            return np.abs(center) * x + _five_point([np.abs(c) for c in off], framed)

        # Dirichlet data; the zeroed interior drops interior neighbours
        # from the coupling
        p = slab(density, n)
        p[...] = spec.density_fn(x1, x2, t)
        p[1:-1, 1:-1] = 0.0
        coupling = _five_point(off, p)
        rhs = recent[-1] / g.ht
        if source is not None:
            rhs = rhs + source(x1, x2, t)
        rhs = rhs[1:-1, 1:-1] - coupling

        bound = REFINE_RTOL * np.linalg.norm(rhs)
        start = _start(recent, n)
        sol, made = _richardson(apply, precondition, rhs, start, bound)
        sweeps += made
        if sol is None:
            krylov_steps += 1
            sol, reached, backward = _gmres(apply, magnitude, precondition, rhs, start, bound)
            if reached > bound and backward > BACKWARD_ERROR_FLOOR:
                raise RuntimeError(
                    f"density step {n} (t={t:.6g}) did not converge: residual "
                    f"{reached:.3e} against the bound {bound:.3e} after {SWEEP_CAP} "
                    f"sweeps and {GMRES_MATVECS} GMRES matvecs (backward error "
                    f"{backward:.2e})"
                )
        p[1:-1, 1:-1] = sol
        here = minimum(p, n)
        # the earliest smallest wins; a NaN, once met, stays
        if here[0] < smallest[0] or np.isnan(here[0]):
            smallest = here
        recent = recent[-2:] + [p]

    return DensitySolution(
        slabs,
        value.transpose(1, 2, 0),
        density.transpose(1, 2, 0),
        float(smallest[0]),
        tuple(int(i) for i in smallest[1]),
        sweeps,
        krylov_steps,
    )


def _on_time_axis(
    nt: int, levels: np.ndarray, values: np.ndarray, order: Tuple[int, int, int] = (0, 1, 2)
) -> np.ndarray:
    """``values``, whose last axis runs over ``levels``, on a zero-filled axis of nt levels.

    The result is indexed like ``values`` and stored with its axes in
    ``order``, outermost first.  Every product of ``make_s`` multiplies
    the whole time axis, with zeros at the levels it does not form, and
    reads an operand laid out as the full-grid product's: OpenBLAS tiles
    a product by its shape, and the columns of the last partial tile
    round differently from the others; numpy hands a column-major operand
    to it transposed, which small products round differently again.  With
    shape and layout kept, each level that is formed rounds as in the
    full-grid product, at any thread count.
    """
    out = np.zeros(tuple((values.shape[:-1] + (nt,))[axis] for axis in order))
    view = out.transpose(np.argsort(order))
    view[..., levels] = values
    return view


def make_s(
    spec: ForwardSpec, solution: DensitySolution, coarse: SpaceTimeGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Construct the local cost s so the value equation holds for the data.

        s = [v_t + lap(v) - |grad v|^2 / 2 - k * (interaction of p)] / p

    Returns s and its rate s_t at the nodes of ``coarse``, which must nest
    in the generation grid, from the levels that ``solution`` keeps for
    it.  All derivatives of the sampled value function are taken with the
    fine-grid stencils and the interaction with the fine-grid quadrature,
    but only their rows at the coarse (x1, x2) nodes and at the ``cost``
    levels of ``kept_slabs`` are formed: s there, then s_t by the rows of
    the central time difference at the coarse times.  Every product
    still runs over the whole time axis, with zeros at the levels not
    formed (see ``_on_time_axis``); the rows of the two time differences
    read those levels with zero weights.  So the result is bit for bit
    the one that a solve keeping every level gives.  With
    ``coarse = spec.grid`` every stride is 1 and this is the full-grid
    construction.  The division requires p >= 1e-8 at every fine node (a
    density is positive), which is checked against the solve's signed
    minimum; the error message names the node where it is reached.

    The largest temporaries are the zero-filled line stacks, one at a
    time, (n1, coarse n2, nt) or its x2 counterpart: 4.4 MB each on the
    default grids.
    """
    g = spec.grid
    if solution.min_density < DENSITY_FLOOR:
        i, j, n = solution.min_node
        raise ValueError(
            f"density is {solution.min_density:.3e} at node (x1={g.x1[i]:.4f}, "
            f"x2={g.x2[j]:.4f}, t={g.t[n]:.4f}), below the {DENSITY_FLOOR:.1e} floor; "
            "a density must be positive, and the cost construction divides by it"
        )

    s1, s2, st_ = restriction_strides(g, coarse)
    levels = kept_slabs(g, coarse)[0]
    at = solution.positions(levels)
    value, density = solution.value, solution.density
    d_t = first_diff_matrix(g.nt, g.ht)
    # v_t's samples are stored time-major and each line stack line-major,
    # so the products read them without a copy; the stencil and quadrature
    # rows at coarse nodes read only the whole x1 lines through the coarse
    # x2 nodes and the x2 lines through the coarse x1 nodes
    samples = _on_time_axis(g.nt, solution.slabs, value[::s1, ::s2], (2, 0, 1))
    vt = apply_along_axis(d_t, samples, 2)[:, :, levels]
    del samples
    lines1 = _on_time_axis(g.nt, levels, value[:, ::s2, at])
    vlap = apply_along_axis(second_diff_matrix(g.n1, g.h1)[::s1], lines1, 0)[:, :, levels]
    vx1 = apply_along_axis(first_diff_matrix(g.n1, g.h1)[::s1], lines1, 0)[:, :, levels]
    del lines1
    lines2 = _on_time_axis(g.nt, levels, value[::s1, :, at], (1, 0, 2))
    vlap = vlap + apply_along_axis(second_diff_matrix(g.n2, g.h2)[::s2], lines2, 1)[:, :, levels]
    vx2 = apply_along_axis(first_diff_matrix(g.n2, g.h2)[::s2], lines2, 1)[:, :, levels]
    del lines2
    inter = InteractionOperator(g, spec.sigma).apply(
        _on_time_axis(g.nt, levels, density[::s1, :, at], (1, 0, 2)), rows=np.s_[::s2]
    )[:, :, levels]
    k = spec.coefficient[::s1, ::s2, None]
    num = vt + vlap - 0.5 * (vx1 * vx1 + vx2 * vx2) - k * inter
    s = _on_time_axis(g.nt, levels, num / density[::s1, ::s2, at])
    return s[:, :, ::st_], apply_along_axis(d_t[::st_], s, 2)


def extract_observations(
    spec: ForwardSpec, solution: DensitySolution, coarse: SpaceTimeGrid
) -> ObservationData:
    """Restrict the solution's fields to the inversion grid's observation set.

    Reads the coarse times that ``solution`` keeps.  Neumann traces at
    x1 = b are formed on the fine grid (3-point one-sided, second order)
    before subsampling in (x2, t).
    """
    g = spec.grid
    s1, s2, st_ = restriction_strides(g, coarse)
    at = solution.positions(np.arange(0, g.nt, st_))
    value, density = solution.value, solution.density

    mid = at[coarse.mid_index]
    v0 = value[::s1, ::s2, mid]
    p0 = density[::s1, ::s2, mid]

    def faces_of(arr: np.ndarray):
        return (
            arr[0][::s2, at],
            arr[-1][::s2, at],
            arr[::s1][:, 0, at],
            arr[::s1][:, -1, at],
        )

    g01 = Field.from_faces(coarse, *faces_of(value))
    g02 = Field.from_faces(coarse, *faces_of(density))

    def outflow_neumann(arr: np.ndarray) -> np.ndarray:
        d = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * g.h1)
        return d[::s2, at]

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

    The solve keeps the value and the density at the levels the two
    later stages read, and both read them from its solution.
    """
    solution = solve_density(spec, coarse)
    s, st = make_s(spec, solution, coarse)
    obs = extract_observations(spec, solution, coarse)
    return GeneratedData(
        observations=obs,
        cost_coarse=s,
        cost_rate_coarse=st,
        min_density=solution.min_density,
        preconditioned_sweeps=solution.preconditioned_sweeps,
        krylov_steps=solution.krylov_steps,
    )
