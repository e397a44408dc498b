"""Multiplicative observation noise and regularized derivative recovery.

Each observation sample is scaled by (1 + level * zeta) with zeta drawn
uniformly from [0, 1), one independent draw per stored sample per field.
The stream is counter-based (Philox) and keyed per field in a fixed
order, so results do not depend on the order fields are processed in and
a seed reproduces the noisy dataset bit for bit.

Difference stencils amplify per-point noise by about 1/h^2 for the
Laplacian of a slice and 1/ht for the time derivative of a trace, and so
does any interpolant through the noisy samples.  So each noisy surface
(the midpoint slices on (x1, x2), each boundary-trace face on (face
coordinate, t)) is first replaced by a penalized least-squares fit whose
weight follows from the known noise level by Morozov's discrepancy
principle (regularized numerical differentiation, Hanke & Scherzer,
Amer. Math. Monthly 108, 2001); the clean-path stencils then
differentiate the fitted data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Tuple

import numpy as np

from .forward import DerivativeBundle, ObservationData, stencil_bundle
from .grid import FACES, GAMMA_TRACE, SPATIAL, Field

FIELD_ORDER = ("v0", "p0", "g01", "g02", "g11", "g12")

# penalty orders, two above the highest derivative read off each surface:
# the Laplacian of the midpoint slices, the time derivative of the traces
SLICE_ORDER = 4
TRACE_ORDER = 3
# log10(alpha) search interval and bisection steps of the discrepancy rule;
# at the top, I + alpha * penalty stays far from singular in floating point
_LOG_ALPHA_RANGE = (-6.0, 9.0)
_BISECTIONS = 32


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and stream seed."""

    level: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.level}")


def _field_generator(seed: int, name: str) -> np.random.Generator:
    children = np.random.SeedSequence(seed).spawn(len(FIELD_ORDER))
    return np.random.Generator(np.random.Philox(children[FIELD_ORDER.index(name)]))


def inject(obs: ObservationData, spec: NoiseSpec) -> ObservationData:
    """Return a noisy copy of the observations; level 0 is the exact identity.

    Corner samples of a boundary trace are stored once per adjacent face
    and noised independently; the projection's fixed face order decides
    which copy wins on the grid, keeping the pipeline deterministic.
    """
    fields = obs.fields()
    noisy = {}
    for name in FIELD_ORDER:
        f = fields[name]
        if spec.level == 0.0:
            noisy[name] = f.copy()
            continue
        zeta = _field_generator(spec.seed, name).random(size=f.values.shape)
        noisy[name] = Field(f.grid, f.rank, f.values * (1.0 + spec.level * zeta))
    return ObservationData(grid=obs.grid, **noisy)


def _gram(n: int, order: int) -> np.ndarray:
    """(D^order)^T D^order for the order-th forward difference on n nodes."""
    d = np.diff(np.eye(n), n=order, axis=0)
    return d.T @ d


@lru_cache(maxsize=None)
def _penalty_band(shape: Tuple[int, int], order: int) -> np.ndarray:
    """Upper band storage of the order-``order`` difference penalty on one shape.

    The penalty is sum_a C(order, a) |D1^a D2^(order-a) w|^2, D^j the j-th
    forward difference along one axis: the squared norm of the stacked
    partial differences of total order ``order``, each ordering of the
    axes counted once, as in the squared norm of the derivative tensor.
    Its null space is the polynomials of total degree below ``order``.

    On the flattened (row-major) surface the matrix is the sum of the
    Kronecker products C(order, a) G1_a x G2_(order-a) of the per-axis
    Gram matrices, banded with half-width order * n2; it is assembled
    diagonal by diagonal, never as a dense (n1 n2)^2 array.
    """
    n1, n2 = shape
    width = order * n2
    band = np.zeros((width + 1, n1, n2))
    for a in range(min(order, n1 - 1) + 1):
        b = order - a
        if b >= n2:
            continue
        g1 = comb(order, a) * _gram(n1, a)
        g2 = _gram(n2, b)
        for di in range(a + 1):
            for dj in range(-b, b + 1):
                offset = di * n2 + dj
                if offset < 0:
                    continue
                # entry ((i, j), (i + di, j + dj)); upper band storage
                # files it in the column of (i + di, j + dj)
                cols = slice(dj, None) if dj >= 0 else slice(None, n2 + dj)
                band[width - offset, di:, cols] += np.outer(
                    np.diagonal(g1, di), np.diagonal(g2, dj)
                )
    band = band.reshape(width + 1, n1 * n2)
    band.flags.writeable = False
    return band


def regularized_fit(values: np.ndarray, level: float, order: int) -> np.ndarray:
    """Penalized least-squares fit of one noisy surface sampled on a 2-d grid.

    Minimizes |w - y|^2 + alpha |D^order w|^2 over w, where D^order stacks
    all partial differences of total order ``order``.  alpha follows
    Morozov's discrepancy principle: the fit's residual |w - y|^2 equals
    (level^2 / 12) |y|^2, the expected squared deviation of samples scaled
    by (1 + level * zeta), zeta uniform on [0, 1), from their mean scaling.
    Only the data and the noise level enter; level 0 returns the data.
    """
    values = np.asarray(values, dtype=float)
    if level == 0.0:
        return values.copy()
    # imported here so that commands which never fit noisy data start
    # without scipy's linear-algebra modules
    from scipy.linalg import solveh_banded

    band = _penalty_band(values.shape, order)
    y = values.ravel()
    target = level * level / 12.0 * float(y @ y)

    def fit(log_alpha: float) -> np.ndarray:
        system = 10.0**log_alpha * band
        system[-1] += 1.0
        return solveh_banded(system, y)

    # the residual grows monotonically in alpha, so bisect on log10(alpha);
    # a target above the rough part of the data ends at the largest alpha
    lo, hi = _LOG_ALPHA_RANGE
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        r = fit(mid) - y
        if r @ r < target:
            lo = mid
        else:
            hi = mid
    return fit(0.5 * (lo + hi)).reshape(values.shape)


def _fit_trace(f: Field, level: float) -> Field:
    """Fit each stored face of a trace as a surface over (face coordinate, t)."""
    if f.rank == GAMMA_TRACE:
        return Field(f.grid, GAMMA_TRACE, regularized_fit(f.values, level, TRACE_ORDER))
    return Field.from_faces(
        f.grid, *(regularized_fit(f.face(name), level, TRACE_ORDER) for name in FACES)
    )


def smooth_observations(obs: ObservationData, level: float) -> DerivativeBundle:
    """Derivative bundle of observations carrying noise of the given level.

    Every noisy surface is replaced by its regularized fit: the midpoint
    slices on (x1, x2) with penalty order SLICE_ORDER, each face of every
    boundary trace on (face coordinate, t) with TRACE_ORDER.  Derivatives
    of the fitted data then come from the same stencils as the clean path,
    so level 0 gives ``stencil_bundle(obs)`` bit for bit.
    """
    g = obs.grid
    fitted = ObservationData(
        grid=g,
        v0=Field(g, SPATIAL, regularized_fit(obs.v0.values, level, SLICE_ORDER)),
        p0=Field(g, SPATIAL, regularized_fit(obs.p0.values, level, SLICE_ORDER)),
        g01=_fit_trace(obs.g01, level),
        g02=_fit_trace(obs.g02, level),
        g11=_fit_trace(obs.g11, level),
        g12=_fit_trace(obs.g12, level),
    )
    return stencil_bundle(fitted)
