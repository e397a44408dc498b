"""Multiplicative observation noise and the regularized fit of noisy data.

Each observation sample is scaled by (1 + level * zeta) with zeta drawn
uniformly from [0, 1), one independent draw per stored sample per field.
The stream is counter-based (Philox) and keyed per field in a fixed
order, so results do not depend on the order fields are processed in and
a seed reproduces the noisy dataset bit for bit.

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
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Tuple

import numpy as np

from .forward import OBSERVATION_FIELDS, ObservationData
from .grid import FACES, GAMMA_TRACE, SPATIAL, Field

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


def _field_generator(seed: int, name: str) -> np.random.Generator:
    children = np.random.SeedSequence(seed).spawn(len(OBSERVATION_FIELDS))
    return np.random.Generator(np.random.Philox(children[OBSERVATION_FIELDS.index(name)]))


def inject(obs: ObservationData, level: float, seed: int) -> ObservationData:
    """A copy of the observations with noise of relative ``level`` from ``seed``.

    Level 0 is the exact identity.  Corner samples of a boundary trace are stored once per adjacent face
    and noised independently; the projection's fixed face order decides
    which copy wins on the grid, keeping the pipeline deterministic.
    """
    fields = obs.fields()
    noisy = {}
    for name in OBSERVATION_FIELDS:
        f = fields[name]
        if level == 0.0:
            noisy[name] = f.copy()
            continue
        zeta = _field_generator(seed, name).random(size=f.values.shape)
        noisy[name] = Field(f.grid, f.rank, f.values * (1.0 + level * zeta))
    return ObservationData(grid=obs.grid, **noisy)


def _gram(n: int, order: int) -> np.ndarray:
    """(D^order)^T D^order for the order-th forward difference on n nodes."""
    d = np.diff(np.eye(n), n=order, axis=0)
    return d.T @ d


@lru_cache(maxsize=None)
def _penalty_spectrum(shape: Tuple[int, int], order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the order-``order`` difference penalty.

    The penalty is sum_a C(order, a) |D1^a D2^(order-a) w|^2, D^j the j-th
    forward difference along one axis: the squared norm of the stacked
    partial differences of total order ``order``, each ordering of the
    axes counted once, as in the squared norm of the derivative tensor.
    On the flattened (row-major) surface its matrix is the sum of the
    Kronecker products C(order, a) G1_a x G2_(order-a) of the per-axis
    Gram matrices.

    Its null space is spanned by the monomials x1^i x2^j with
    i + j < order, i < n1, j < n2.  eigh returns their eigenvalues as
    rounding noise, so exactly that many of the smallest are set to 0.  A
    cut by magnitude would not do: on a 41 x 41 slice of order 4 the
    smallest genuine eigenvalue is 7e-11 of the largest.
    """
    n1, n2 = shape
    penalty = sum(
        comb(order, a) * np.kron(_gram(n1, a), _gram(n2, order - a)) for a in range(order + 1)
    )
    eigenvalues, eigenvectors = np.linalg.eigh(penalty)
    nullity = sum(min(order - i, n2) for i in range(min(order, n1)))
    eigenvalues[:nullity] = 0.0
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return eigenvalues, eigenvectors


def regularized_fit(values: np.ndarray, level: float, order: int) -> np.ndarray:
    """Penalized least-squares fit of one noisy surface sampled on a 2-d grid.

    Minimizes |w - y|^2 + alpha |D^order w|^2 over w, where D^order stacks
    all partial differences of total order ``order``.  alpha follows
    Morozov's discrepancy principle: the fit's residual |w - y|^2 equals
    (level^2 / 12) |y|^2, the expected squared deviation of samples scaled
    by (1 + level * zeta), zeta uniform on [0, 1), from their mean scaling.
    Only the data and the noise level enter; level 0 returns the data.

    With the penalty P = V diag(e) V^T and c = V^T y, the fit is
    V (c / (1 + alpha e)) and its residual |(alpha e / (1 + alpha e)) c|,
    so each trial alpha costs O(n1 n2) and the fit is formed once.
    """
    values = np.asarray(values, dtype=float)
    if level == 0.0:
        return values.copy()
    eigenvalues, eigenvectors = _penalty_spectrum(values.shape, order)
    y = values.ravel()
    target = level * level / 12.0 * float(y @ y)
    c = eigenvectors.T @ y

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
    fit = eigenvectors @ (c / (1.0 + 10.0 ** (0.5 * (lo + hi)) * eigenvalues))
    return fit.reshape(values.shape)


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
