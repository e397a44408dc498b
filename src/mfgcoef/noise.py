"""Multiplicative observation noise and the regularized fit of noisy data.

Each observation sample is scaled by (1 + level * zeta) with zeta drawn
uniformly from [0, 1), one independent draw per stored sample per field.
The stream is numpy's counter-based Philox stream, reproduced in
``streams``: field i of OBSERVATION_FIELDS draws from child i, keyed by
spawn index i, of ``SeedSequence(seed)``.  So results do not depend on
the order fields are processed in, and a seed reproduces the noisy
dataset bit for bit.

Difference stencils amplify per-point noise by about 1/h^2 for the
Laplacian of a slice and 1/ht for the time derivative of a trace, and so
does any interpolant through the noisy samples.  So each noisy surface
(the midpoint slices on (x1, x2), each boundary-trace face on (face
coordinate, t)) is replaced by a penalized least-squares fit whose
weight follows from the known noise level by Morozov's discrepancy
principle (regularized numerical differentiation, Hanke & Scherzer,
Amer. Math. Monthly 108, 2001).  The fit returns observations, and the
inversion differentiates them with the same stencils whether they were
fitted or not.  The penalty depends only on the surface's shape and
order, so it is diagonalized once per pair, and every trial weight of
the discrepancy rule is a closed-form sum in its eigenbasis.

Reversing either axis leaves the penalty unchanged, so in the basis of
functions even and odd under reversal it falls into four blocks, one per
pair of parities, each about a quarter of the surface's size (121, 110,
110 and 100 on a 21 x 21 slice).  Each block is diagonalized on its own;
no matrix spans the whole surface.  On the default surfaces the fit then
gives the same bits at one and at two OpenBLAS threads, and so does the
noisy inversion that reads it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Tuple

import numpy as np

from .grid import FACES, GAMMA_TRACE, OBSERVATION_FIELDS, SPATIAL, Field, ObservationData

# penalty orders, two above the highest derivative read off each surface:
# the Laplacian of the midpoint slices, the time derivative of the traces
SLICE_ORDER = 4
TRACE_ORDER = 3
# log10(alpha) search interval and bisection steps of the discrepancy rule;
# at the top, alpha times the smallest nonzero eigenvalue exceeds 5e4 on
# the default surfaces, so the fit there is the projection onto the
# penalty's null space to within 2e-5
_LOG_ALPHA_RANGE = (-6.0, 9.0)
_BISECTIONS = 32


def inject(obs: ObservationData, level: float, seed: int) -> ObservationData:
    """A copy of the observations with noise of relative ``level`` from ``seed``.

    Level 0 is the exact identity.  Corner samples of a boundary trace are stored once per adjacent face
    and noised independently; the projection's fixed face order decides
    which copy wins on the grid, keeping the pipeline deterministic.
    """
    fields = obs.fields()
    if level == 0.0:
        return ObservationData(grid=obs.grid, **{n: f.copy() for n, f in fields.items()})
    # the streams are loaded only where numbers are drawn
    from .streams import SeedSequence, philox_random

    children = SeedSequence(seed).spawn(len(OBSERVATION_FIELDS))
    noisy = {}
    for name, child in zip(OBSERVATION_FIELDS, children):
        f = fields[name]
        zeta = philox_random(child, f.values.shape)
        noisy[name] = Field(f.grid, f.rank, f.values * (1.0 + level * zeta))
    return ObservationData(grid=obs.grid, **noisy)


def _gram(n: int, order: int) -> np.ndarray:
    """(D^order)^T D^order for the order-th forward difference on n nodes."""
    d = np.diff(np.eye(n), n=order, axis=0)
    return d.T @ d


@lru_cache(maxsize=None)
def _parity_basis(n: int) -> np.ndarray:
    """Orthogonal Q splitting n nodes into vectors even and odd under reversal.

    Its first (n + 1) // 2 rows are the even vectors (e_i + e_(n-1-i)) / sqrt 2,
    and e_(n // 2) itself when n is odd; the last n // 2 rows are the odd
    vectors (e_i - e_(n-1-i)) / sqrt 2.
    """
    half, even = n // 2, n - n // 2
    q = np.zeros((n, n))
    root = np.sqrt(0.5)
    for i in range(half):
        q[i, i] = q[i, n - 1 - i] = q[even + i, i] = root
        q[even + i, n - 1 - i] = -root
    if n % 2:
        q[half, half] = 1.0
    q.flags.writeable = False
    return q


def _parity_slices(n: int) -> Tuple[slice, slice]:
    """Rows of the even and of the odd vectors in ``_parity_basis(n)``."""
    return slice(None, n - n // 2), slice(n - n // 2, None)


# the (axis-1, axis-2) parities of the four penalty blocks, 0 even and 1
# odd, in the order _penalty_spectrum returns them
_PARITIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _block_nullity(shape: Tuple[int, int], order: int, parity: Tuple[int, int]) -> int:
    """Monomials x1^i x2^j, i + j < order, i < n1, j < n2, of the block's parities.

    Centred on the surface, x^i is even under reversal for even i and odd
    for odd i, so each penalty block's null space is spanned by the
    monomials whose exponents have that block's parities.
    """
    n1, n2 = shape
    return sum(
        1
        for i in range(parity[0], min(order, n1), 2)
        for j in range(parity[1], min(order - i, n2), 2)
    )


@lru_cache(maxsize=None)
def _penalty_spectrum(
    shape: Tuple[int, int], order: int
) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Eigenvalues and eigenvectors of the order-``order`` difference penalty, by parity block.

    The penalty is sum_a C(order, a) |D1^a D2^(order-a) w|^2, D^j the j-th
    forward difference along one axis: the squared norm of the stacked
    partial differences of total order ``order``, each ordering of the
    axes counted once, as in the squared norm of the derivative tensor.
    On the flattened (row-major) surface its matrix is the sum of the
    Kronecker products C(order, a) G1_a x G2_(order-a) of the per-axis
    Gram matrices.

    Reversing an axis maps D^j to +-D^j, so each Gram matrix commutes with
    the reversal and Q G Q^T is block-diagonal, Q = _parity_basis(n), with
    an even and an odd block (Cantoni & Butler, Linear Algebra Appl. 13,
    1976).  In the basis Q1 x Q2 the penalty is then block-diagonal with
    one block per pair of parities, each the same Kronecker sum over the
    1-d blocks.  Returns one (eigenvalues, eigenvectors) pair per block,
    in the order of _PARITIES; a block's eigenvectors act on its part of
    Q1 W Q2^T, flattened row-major.

    Each block's null space is spanned by its parity's monomials (see
    _block_nullity).  eigh returns their eigenvalues as rounding noise, so
    exactly that many of the block's smallest are set to 0.  A cut by
    magnitude would not do: on a 41 x 41 slice of order 4 the smallest
    genuine eigenvalue is 7e-11 of the largest.
    """
    # per axis and parity, that block of Q G_k Q^T for k = 0 .. order
    halves = []
    for n in shape:
        q = _parity_basis(n)
        grams = [q @ _gram(n, k) @ q.T for k in range(order + 1)]
        halves.append([[g[p, p] for g in grams] for p in _parity_slices(n)])
    spectrum = []
    for p1, p2 in _PARITIES:
        block = sum(
            comb(order, a) * np.kron(halves[0][p1][a], halves[1][p2][order - a])
            for a in range(order + 1)
        )
        eigenvalues, eigenvectors = np.linalg.eigh(block)
        eigenvalues[: _block_nullity(shape, order, (p1, p2))] = 0.0
        eigenvalues.flags.writeable = False
        eigenvectors.flags.writeable = False
        spectrum.append((eigenvalues, eigenvectors))
    return tuple(spectrum)


def regularized_fit(values: np.ndarray, level: float, order: int) -> np.ndarray:
    """Penalized least-squares fit of one noisy surface sampled on a 2-d grid.

    Minimizes |w - y|^2 + alpha |D^order w|^2 over w, where D^order stacks
    all partial differences of total order ``order``.  alpha follows
    Morozov's discrepancy principle: the fit's residual |w - y|^2 equals
    (level^2 / 12) |y|^2, the expected squared deviation of samples scaled
    by (1 + level * zeta), zeta uniform on [0, 1), from their mean scaling.
    Only the data and the noise level enter; level 0 returns the data.

    With Z = Q1 Y Q2^T split into its parity blocks, each block's penalty
    V diag(e) V^T and c = V^T z the block's coefficients, the fit's
    coefficients are c / (1 + alpha e) and its residual
    |(alpha e / (1 + alpha e)) c| over all four blocks, so each trial
    alpha costs O(n1 n2) and the fit is formed once.
    """
    values = np.asarray(values, dtype=float)
    if level == 0.0:
        return values.copy()
    n1, n2 = values.shape
    q1, q2 = _parity_basis(n1), _parity_basis(n2)
    rows, cols = _parity_slices(n1), _parity_slices(n2)
    blocks = [(rows[p1], cols[p2]) for p1, p2 in _PARITIES]
    spectrum = _penalty_spectrum(values.shape, order)
    z = q1 @ values @ q2.T
    eigenvalues = np.concatenate([e for e, _ in spectrum])
    c = np.concatenate([v.T @ z[b].ravel() for b, (_, v) in zip(blocks, spectrum)])
    y = values.ravel()
    target = level * level / 12.0 * float(y @ y)

    # the residual grows monotonically in alpha, so bisect on log10(alpha);
    # a target above the rough part of the data ends at the largest alpha
    lo, hi = _LOG_ALPHA_RANGE
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        damped = 10.0**mid * eigenvalues
        r = damped / (1.0 + damped) * c
        if r @ r < target:
            lo = mid
        else:
            hi = mid
    shrunk = c / (1.0 + 10.0 ** (0.5 * (lo + hi)) * eigenvalues)
    fit = np.empty_like(z)
    start = 0
    for b, (_, v) in zip(blocks, spectrum):
        stop = start + v.shape[1]
        fit[b] = (v @ shrunk[start:stop]).reshape(fit[b].shape)
        start = stop
    return q1.T @ fit @ q2


def _fit_trace(f: Field, level: float) -> Field:
    """Fit each stored face of a trace as a surface over (face coordinate, t)."""
    if f.rank == GAMMA_TRACE:
        return Field(f.grid, GAMMA_TRACE, regularized_fit(f.values, level, TRACE_ORDER))
    return Field.from_faces(
        f.grid, *(regularized_fit(f.face(name), level, TRACE_ORDER) for name in FACES)
    )


def smooth_observations(obs: ObservationData, level: float) -> ObservationData:
    """Observations carrying noise of the given level, each surface fitted.

    Every noisy surface is replaced by its regularized fit: the midpoint
    slices on (x1, x2) with penalty order SLICE_ORDER, each face of every
    boundary trace on (face coordinate, t) with TRACE_ORDER.  Level 0
    returns a copy of the data, bit for bit.
    """
    g = obs.grid
    return ObservationData(
        grid=g,
        v0=Field(g, SPATIAL, regularized_fit(obs.v0.values, level, SLICE_ORDER)),
        p0=Field(g, SPATIAL, regularized_fit(obs.p0.values, level, SLICE_ORDER)),
        g01=_fit_trace(obs.g01, level),
        g02=_fit_trace(obs.g02, level),
        g11=_fit_trace(obs.g11, level),
        g12=_fit_trace(obs.g12, level),
    )
