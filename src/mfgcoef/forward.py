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
space-time array.  It samples v one level at a time into one scratch
slab, steps with the last three solved interiors, and keeps p only at
the fine time levels where s is formed (``kept_slabs``): the coarse
times and the levels beside them that the time difference of s reads.
It keeps no v: v is analytic, so the cost and the observations sample it
again where they read it, by the solve's own calls.  On the default
grids (81x81x321 fine, 21x21x11 coarse) that is 33 of 321 levels,
1.7 MB against 16.8 MB for a field on every node, and the traced
allocation peak of ``generate`` is about 8.6 MB.  Everything a
sweep touches is contiguous: the interiors, the coefficient arrays, and
the four neighbour arrays of the step operator, which are shifted views
of one zero-padded flat buffer (``_padded``).

The step keeps both solvers because neither covers the other's cases.
Sweeps alone diverge on the drift-jump grids of the tests (50- and
200-fold jumps) and on long horizons.  GMRES alone, started from the
same extrapolated guess on the default 81x81x321 grid, makes 901
Arnoldi products plus one update per step, 1221 preconditioner
applications against the sweeps' 932, and takes 0.41-0.43 s against
0.23 s (the contiguous step operator; one BLAS thread on a 2-core x86-64
host), since each cycle forms extra residuals and builds an Arnoldi
basis; it moves the density, which peaks at 6, by 7.7e-13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .grid import (
    GAMMA_TRACE,
    SPATIAL,
    Field,
    InteractionOperator,
    ObservationData,
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
    They are called with broadcast coordinates, x1 of shape (n1, 1) and
    x2 of shape (1, n2), and must return arrays that broadcast to
    (n1, n2); so must the ``source`` of ``solve_density``.
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
    difference at those times read.  The density solve keeps p at these;
    the observations read the coarse times among them.  ``kept`` adds the
    levels that the rows of v_t at the ``cost`` levels read, where
    ``make_s`` samples v.  Both are taken from the nonzero pattern of the
    time-difference matrix.  When ``coarse`` is ``fine`` every level is
    in both.
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
    """The density at the kept time levels, and the solve's record.

    ``slabs`` holds the fine time indices kept, ascending (the ``cost``
    levels of ``kept_slabs``), and ``density`` is indexed (x1, x2,
    position in ``slabs``).  The value function is not kept: it is
    analytic, and the outputs sample it from the spec.
    ``min_density`` is the signed minimum of p over every fine node,
    kept or not, and ``min_node`` its (x1, x2, t) index, the earliest
    level where it is reached.  ``preconditioned_sweeps`` counts the
    Richardson sweeps of all steps, those of steps that then needed GMRES
    included, and ``krylov_steps`` the steps that needed GMRES; both
    depend on the data only, so they repeat exactly from run to run.  With the
    extrapolated start, a step whose drift changes smoothly takes two to
    five sweeps.  A solve for the generation grid itself keeps every
    level, so its density is the full (n1, n2, nt) array.
    """

    slabs: np.ndarray
    density: np.ndarray
    min_density: float
    min_node: Tuple[int, int, int]
    preconditioned_sweeps: int
    krylov_steps: int

    def positions(self, levels: np.ndarray) -> np.ndarray:
        """Where the fine time ``levels`` sit in ``slabs``; all must be kept.

        A binary search and an equality check; ``np.isin`` would load
        ``numpy.ma`` on its sort path.
        """
        at = np.searchsorted(self.slabs, levels)
        if (at == self.slabs.size).any() or (self.slabs[at] != levels).any():
            raise ValueError("the density solution does not keep the time levels read here")
        return at


def _start(recent: List[np.ndarray], n: int) -> np.ndarray:
    """Interior density at step n extrapolated from the steps before it.

    ``recent`` holds the last three solved interiors, oldest first (fewer
    before the third step).  Quadratic through the three, linear through
    the last two at n = 3, and the last interior at n = 2.
    """
    if n > 3:
        return 3.0 * recent[-1] - 3.0 * recent[-2] + recent[-3]
    if n == 3:
        return 2.0 * recent[-1] - recent[-2]
    return recent[-1]


def _sine_basis(m: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues of the 1D Dirichlet -d2/dx2 stencil.

    The stencil acts on m interior nodes of spacing h.  Its eigenvector
    matrix is the orthonormal, symmetric sine matrix, so it is its own
    inverse.
    """
    j = np.arange(1, m + 1)
    basis = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(j, j) / (m + 1))
    return basis, (2.0 / h) ** 2 * np.sin(0.5 * np.pi * j / (m + 1)) ** 2


def _five_point(coeffs, near) -> np.ndarray:
    """Off-center part of a step operator, ((w W + s S) + n N) + e E.

    ``coeffs`` holds the west, south, north and east coefficient arrays
    and ``near`` the neighbour values they multiply, in the same order.
    """
    west, south, north, east = coeffs
    q_west, q_south, q_north, q_east = near
    total = west * q_west
    total += south * q_south
    total += north * q_north
    total += east * q_east
    return total


def _framed(q: np.ndarray):
    """The west, south, north and east neighbours of a full slab's interior."""
    return q[:-2, 1:-1], q[1:-1, :-2], q[1:-1, 2:], q[2:, 1:-1]


def _boundary_coupling(coeffs, q: np.ndarray) -> np.ndarray:
    """The terms of ``_five_point(coeffs, _framed(q))`` that read q's boundary.

    Only the ring of interior nodes beside the boundary has such terms, so
    only the ring is formed, each node summing its terms in
    ``_five_point``'s order; q's interior is not read, and the result is
    +0 inside the ring.  ``_five_point`` on q with its interior zeroed
    adds c * 0 for each interior neighbour as well, a zero whose sign may
    differ, and a zero added to a nonzero sum leaves it exact.  So the two
    agree bit for bit wherever the boundary terms are nonzero, and inside
    the ring both are zeros, which subtracted from a nonzero right-hand
    side leave it exact.
    """
    west, south, north, east = coeffs
    out = np.zeros(west.shape)
    out[0] = west[0] * q[0, 1:-1]
    out[:, 0] += south[:, 0] * q[1:-1, 0]
    out[:, -1] += north[:, -1] * q[1:-1, -1]
    out[-1] += east[-1] * q[-1, 1:-1]
    return out


def _padded(m1: int, m2: int):
    """A zero-padded flat buffer for an (m1, m2) interior, as contiguous views.

    Returns the view that holds the interior and the views of its west,
    south, north and east neighbours, each (m1, m2) and contiguous.  A row
    of m2 zeros pads the interior on either side, so the west and east
    shifts (by m2) read zeros beyond the first and last rows.  The south
    and north shifts (by 1) read the last node of the row before from
    the first column and the first node of the row after from the last
    column, so ``_step_operator`` zeroes the coefficients there.
    """
    size = m1 * m2
    pad = np.zeros(size + 2 * m2)
    views = [pad[s : s + size].reshape(m1, m2) for s in (m2, 0, m2 - 1, m2 + 1, 2 * m2)]
    return views[0], tuple(views[1:])


def _step_operator(center: np.ndarray, off, padded):
    """The map x -> center * x + _five_point(off, neighbours of x) on an interior.

    ``padded`` is a buffer of ``_padded``, which each call fills with x.
    The south coefficients of the first column and the north ones of the
    last are set to zero in ``off`` itself, so form anything that reads
    them (the boundary coupling) first.  Wherever center * x is nonzero
    the result has the bits that the interior framed by zeros gives: a
    dropped term is 0 * x where the frame gives c * 0, a zero whose sign
    alone may differ, and a zero added to a nonzero number leaves it
    exact.
    """
    inner, near = padded
    off[1][:, 0] = 0.0
    off[2][:, -1] = 0.0

    def apply(x: np.ndarray) -> np.ndarray:
        inner[...] = x
        # a sum of two terms is the same either way round, so this is
        # center * x + _five_point(off, near) bit for bit
        out = _five_point(off, near)
        out += center * x
        return out

    return apply


def _richardson(apply, precondition, rhs: np.ndarray, x: np.ndarray, bound: float):
    """Preconditioned Richardson sweeps ``x += P^-1 (rhs - A x)`` from x.

    Returns the iterate whose residual norm is at most ``bound``, or None
    when SWEEP_CAP sweeps do not get there, and the number of sweeps made.
    ``x`` itself is left as it is, so a step can restart from it.
    """
    residual = rhs - apply(x)
    made = 0
    # a NaN norm or bound fails this test, so a NaN step is never accepted
    while not np.linalg.norm(residual) <= bound:
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

    Returns the density at the fine time levels that ``make_s`` and
    ``extract_observations`` read for the inversion grid ``coarse`` (the
    ``cost`` levels of ``kept_slabs``; every level when ``coarse`` is
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
    matrix is formed.  The east and west coefficients are read from one
    array of x1 face differences of v, the north and south ones from one
    of x2 face differences.

    Every array a sweep reads is contiguous.  Each product copies the
    interior once into a zero-padded flat buffer, whose shifts by the row
    length give the west and east neighbours and whose shifts by one give
    the south and north ones (``_padded``, ``_step_operator``).  Those
    read across a row end at the first and last columns, so the
    coefficients there are zero.  The framed slab gives c * 0 there and
    the buffer 0 * x, zeros whose signs may differ, in the same place of
    the same sum; a zero added to a nonzero number leaves it exact, so
    every node where center * x is nonzero gets the bits of
    ``center * x + _five_point(off, _framed(framed))``, by the same IEEE
    operations in the same order.  The boundary coupling, which the
    right-hand side subtracts, is formed before the masking and only on
    the ring of interior nodes beside the boundary (``_boundary_coupling``).
    ``_five_point`` on the slab with its interior zeroed adds c * 0 for
    each interior neighbour besides: zeros added to nonzero sums on the
    ring, and zeros subtracted from a nonzero right-hand side inside it,
    so the right-hand side keeps its bits.

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
    GMRES budget raises RuntimeError.  Both tests are written so that a
    NaN residual or bound fails them, so a step that meets a NaN raises
    too rather than passing its start as solved.

    The solve streams its levels.  v is sampled one level at a time into
    one scratch slab, by the same ``value_fn`` calls in the same order as
    a sampling of the whole grid, and besides the kept densities only the
    last three solved interiors and the current slabs are held.  The
    kept levels are stored time-major, (slab, n1, n2), and returned as
    their (n1, n2, slab) view: on the default grids 33 of 321 levels,
    1.7 MB against 16.8 MB for a field on every fine node.
    """
    g = spec.grid
    n1, n2 = g.n1, g.n2
    # broadcast coordinates: the functions evaluate on n1 + n2 points
    # wherever they factor by axis, not on every node
    x1, x2 = g.x1[:, None], g.x2[None, :]
    times = g.t
    slabs = kept_slabs(g, coarse)[0]
    stored = np.full(g.nt, -1)
    stored[slabs] = np.arange(slabs.size)
    density = np.empty((slabs.size, n1, n2))

    def slab(n: int) -> np.ndarray:
        return density[stored[n]] if stored[n] >= 0 else np.empty((n1, n2))

    # the smallest p of a slab and its node, so no full-grid minimum is formed
    def minimum(p: np.ndarray, n: int):
        k = int(np.argmin(p))
        return p.flat[k], np.unravel_index(k, p.shape) + (n,)

    p = slab(0)
    p[...] = spec.density_fn(x1, x2, times[0])
    smallest = minimum(p, 0)
    recent = [p[1:-1, 1:-1].copy()]

    inv_h1sq = 1.0 / (g.h1 * g.h1)
    inv_h2sq = 1.0 / (g.h2 * g.h2)
    # time and diffusion part of the center coefficient
    diagonal = 1.0 / g.ht + 2.0 * (inv_h1sq + inv_h2sq)

    basis1, eig1 = _sine_basis(n1 - 2, g.h1)
    basis2, eig2 = _sine_basis(n2 - 2, g.h2)
    inv_eig = 1.0 / (1.0 / g.ht + eig1[:, None] + eig2[None, :])
    work = np.empty((2, n1 - 2, n2 - 2))

    # P^-1 r, returned in a buffer that the next call overwrites
    def precondition(r: np.ndarray) -> np.ndarray:
        left, right = work
        np.matmul(basis1, r, out=left)
        np.matmul(left, basis2, out=right)
        right *= inv_eig
        np.matmul(basis1, right, out=left)
        return np.matmul(left, basis2, out=right)

    padded = _padded(n1 - 2, n2 - 2)
    v = np.empty((n1, n2))

    sweeps = 0
    krylov_steps = 0
    for n in range(1, g.nt):
        t = times[n]
        v[...] = spec.value_fn(x1, x2, t)

        # advection coefficients from half-node fluxes of dv: the east
        # and west ones are rows of d1, the north and south columns of d2
        d1 = (v[1:, 1:-1] - v[:-1, 1:-1]) / g.h1
        d2 = (v[1:-1, 1:] - v[1:-1, :-1]) / g.h2
        center = (
            diagonal - 0.5 * (d1[1:] - d1[:-1]) / g.h1 - 0.5 * (d2[:, 1:] - d2[:, :-1]) / g.h2
        )
        half1 = 0.5 * d1 / g.h1
        half2 = 0.5 * d2 / g.h2
        off = (
            -inv_h1sq + half1[:-1],
            -inv_h2sq + half2[:, :-1],
            -inv_h2sq - half2[:, 1:],
            -inv_h1sq - half1[1:],
        )

        # Dirichlet data, whose coupling moves to the right-hand side
        p = slab(n)
        p[...] = spec.density_fn(x1, x2, t)
        coupling = _boundary_coupling(off, p)
        # only now: the operator zeroes coefficients the coupling reads
        apply = _step_operator(center, off, padded)
        rhs = recent[-1] / g.ht
        if source is not None:
            rhs = rhs + np.broadcast_to(source(x1, x2, t), (n1, n2))[1:-1, 1:-1]
        rhs -= coupling

        bound = REFINE_RTOL * np.linalg.norm(rhs)
        start = _start(recent, n)
        sol, made = _richardson(apply, precondition, rhs, start, bound)
        sweeps += made
        if sol is None:
            krylov_steps += 1
            magnitude = _step_operator(np.abs(center), [np.abs(c) for c in off], padded)
            sol, reached, backward = _gmres(apply, magnitude, precondition, rhs, start, bound)
            # written so that a NaN residual or bound fails it
            if not (reached <= bound or backward <= BACKWARD_ERROR_FLOOR):
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
        recent = recent[-2:] + [sol]

    return DensitySolution(
        slabs,
        density.transpose(1, 2, 0),
        float(smallest[0]),
        tuple(int(i) for i in smallest[1]),
        sweeps,
        krylov_steps,
    )


def _value_samples(spec: ForwardSpec, levels: np.ndarray, index=np.s_[:, :]) -> np.ndarray:
    """v at the fine time ``levels``, each level's slab cut by ``index``; levels last.

    Each level is sampled as a full (n1, n2) slab and then cut, by the
    call that ``solve_density`` makes at that level, so the samples have
    the bits of the solve's.  Each cut is copied, so no full slab
    outlives its level.
    """
    g = spec.grid
    x1, x2 = g.x1[:, None], g.x2[None, :]
    slabs = [
        np.broadcast_to(spec.value_fn(x1, x2, g.t[n]), g.spatial_shape())[index].copy()
        for n in levels
    ]
    return np.stack(slabs, axis=-1)


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
    in the generation grid, from the density levels that ``solution``
    keeps for it and from v sampled at the levels and nodes read here
    (``_value_samples``: each level is sampled as a full (n1, n2) slab by
    the solve's own call and then cut, so the samples have the solve's
    bits).  All derivatives of the sampled value function are taken with
    the fine-grid stencils and the interaction with the fine-grid
    quadrature, but only their rows at the coarse (x1, x2) nodes and at
    the ``cost`` levels of ``kept_slabs`` are formed: s there, then s_t
    by the rows of the central time difference at the coarse times.
    Every product still runs over the whole time axis, with zeros at the
    levels not formed (see ``_on_time_axis``); the rows of the two time
    differences read those levels with zero weights.  So the result is
    bit for bit the one that a solve keeping every level gives, with v
    on every fine node.  With ``coarse = spec.grid`` every stride is 1
    and this is the full-grid construction.  The division requires p >= 1e-8 at every fine node (a
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
    levels, kept = kept_slabs(g, coarse)
    at = solution.positions(levels)
    density = solution.density
    d_t = first_diff_matrix(g.nt, g.ht)
    # v_t's samples are stored time-major and each line stack line-major,
    # so the products read them without a copy; the stencil and quadrature
    # rows at coarse nodes read only the whole x1 lines through the coarse
    # x2 nodes and the x2 lines through the coarse x1 nodes
    samples = _on_time_axis(g.nt, kept, _value_samples(spec, kept, np.s_[::s1, ::s2]), (2, 0, 1))
    vt = apply_along_axis(d_t, samples, 2)[:, :, levels]
    del samples
    lines1 = _on_time_axis(g.nt, levels, _value_samples(spec, levels, np.s_[:, ::s2]))
    vlap = apply_along_axis(second_diff_matrix(g.n1, g.h1)[::s1], lines1, 0)[:, :, levels]
    vx1 = apply_along_axis(first_diff_matrix(g.n1, g.h1)[::s1], lines1, 0)[:, :, levels]
    del lines1
    lines2 = _on_time_axis(g.nt, levels, _value_samples(spec, levels, np.s_[::s1]), (1, 0, 2))
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
    """Restrict v and the solution's density to the inversion grid's observation set.

    Reads the density at the coarse times that ``solution`` keeps, and v
    sampled at those times (``_value_samples``).  Neumann traces at
    x1 = b are formed on the fine grid (3-point one-sided, second order)
    before subsampling in (x2, t).
    """
    g = spec.grid
    s1, s2, st_ = restriction_strides(g, coarse)
    levels = np.arange(0, g.nt, st_)
    value = _value_samples(spec, levels)
    density = solution.density[:, :, solution.positions(levels)]

    v0 = value[::s1, ::s2, coarse.mid_index]
    p0 = density[::s1, ::s2, coarse.mid_index]

    def faces_of(arr: np.ndarray):
        return arr[0][::s2], arr[-1][::s2], arr[::s1][:, 0], arr[::s1][:, -1]

    g01 = Field.from_faces(coarse, *faces_of(value))
    g02 = Field.from_faces(coarse, *faces_of(density))

    def outflow_neumann(arr: np.ndarray) -> np.ndarray:
        d = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * g.h1)
        return d[::s2]

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

    The solve keeps the density at the levels the two later stages read,
    and both sample v from the spec where they read it.
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
