"""Letter-shaped inclusion coefficients and reconstruction quality metrics.

The test coefficients are piecewise constant: value ``c_a`` inside a
letter-shaped inclusion, 1 outside.  The glyphs are shipped as small
bitmap stencils (drawn below as text, one character per cell) and scaled
into the domain by bilinear interpolation with a 0.5 threshold, so any
sufficiently fine grid gets the same shapes.  "A" and the ring glyph
each enclose a hole; "SZ" is two disjoint letters, which makes it the
topology stress case.

Quality of a reconstruction is summarized by the relative L2 error
against the true coefficient, the same error restricted to the
inclusion, and the recovered contrast.  Contrast compares the median
inside the inclusion to the median outside; medians shrug off the edge
ringing that reconstructions produce at the inclusion boundary, where a
max would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SPATIAL, Field, SpaceTimeGrid

_LETTER_ROWS = {
    "A": (
        "........................",
        "........................",
        "........................",
        "......############......",
        "......############......",
        "......############......",
        "......###......###......",
        "......###......###......",
        "......###......###......",
        "......###......###......",
        "......###......###......",
        "......###......###......",
        "......############......",
        "......############......",
        "......############......",
        "......###......###......",
        "......###......###......",
        "......###......###......",
        "......###......###......",
        "......###......###......",
        "........................",
        "........................",
        "........................",
        "........................",
    ),
    "Omega": (
        "........................",
        "........................",
        "........................",
        ".....##############.....",
        ".....##############.....",
        ".....##############.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....###........###.....",
        ".....##############.....",
        ".....##############.....",
        ".....##############.....",
        "...######......######...",
        "...######......######...",
        "...######......######...",
        "........................",
        "........................",
        "........................",
    ),
    "SZ": (
        "........................",
        "........................",
        "........................",
        "........................",
        "..########....########..",
        "..########....########..",
        "..########....########..",
        "..###.............###...",
        "..###.............###...",
        "..###...........#####...",
        "..########......###.....",
        "..########......###.....",
        "..########....#####.....",
        ".......###....###.......",
        ".......###....###.......",
        ".......###....###.......",
        "..########....########..",
        "..########....########..",
        "..########....########..",
        "........................",
        "........................",
        "........................",
        "........................",
        "........................",
    ),
}

LETTERS = tuple(sorted(_LETTER_ROWS))

MIN_RESOLUTION = 20


def _stencil(which: str) -> np.ndarray:
    rows = _LETTER_ROWS[which]
    return np.array([[ch == "#" for ch in row] for row in rows])


def raster_letter(which: str, grid: SpaceTimeGrid) -> np.ndarray:
    """Boolean inclusion mask for a letter on the grid's spatial nodes.

    The stencil is stretched over the domain (stencil rows run from high
    x2 down, columns from low x1 up), sampled bilinearly at every node
    and thresholded at 0.5.
    """
    if which not in _LETTER_ROWS:
        raise ValueError(f"unknown letter {which!r}, expected one of {LETTERS}")
    if grid.n1 < MIN_RESOLUTION or grid.n2 < MIN_RESOLUTION:
        raise ValueError(
            f"grid {grid.n1}x{grid.n2} too coarse for letter strokes, "
            f"need at least {MIN_RESOLUTION}x{MIN_RESOLUTION}"
        )
    stencil = _stencil(which).astype(float)
    rows, cols = stencil.shape
    # fractional stencil coordinates of each node
    cc = (grid.x1 - grid.a) / (grid.b - grid.a) * (cols - 1)
    rr = (grid.half_width - grid.x2) / (2.0 * grid.half_width) * (rows - 1)
    c0 = np.clip(np.floor(cc).astype(int), 0, cols - 2)
    r0 = np.clip(np.floor(rr).astype(int), 0, rows - 2)
    sc = cc - c0
    sr = rr - r0
    top = (1.0 - sc)[:, None] * stencil[r0, :][:, c0].T + sc[:, None] * stencil[r0, :][:, c0 + 1].T
    bottom = (
        (1.0 - sc)[:, None] * stencil[r0 + 1, :][:, c0].T
        + sc[:, None] * stencil[r0 + 1, :][:, c0 + 1].T
    )
    sampled = (1.0 - sr)[None, :] * top + sr[None, :] * bottom
    return sampled >= 0.5


@dataclass(frozen=True)
class Phantom:
    """Inclusion mask with its inside value; the value outside is 1."""

    grid: SpaceTimeGrid
    mask: np.ndarray
    c_a: float

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "mask", mask)
        if mask.shape != self.grid.spatial_shape():
            raise ValueError(
                f"mask shape {mask.shape} does not match the grid {self.grid.spatial_shape()}"
            )
        # one count, not any() and all(): config validation builds a phantom
        # before every run, and the first boolean reduction in a process
        # maps about 0.2 MiB more of numpy, which would count toward the
        # descent's peak resident memory
        if np.count_nonzero(mask) in (0, mask.size):
            raise ValueError("mask must be nonempty and must not cover the whole domain")
        if self.c_a <= 0:
            raise ValueError(f"inside value must be positive, got {self.c_a}")


def letter_phantom(which: str, grid: SpaceTimeGrid, c_a: float) -> Phantom:
    return Phantom(grid=grid, mask=raster_letter(which, grid), c_a=c_a)


def make_k(phantom: Phantom) -> Field:
    """The coefficient a phantom encodes: c_a on the mask, 1 off it."""
    values = np.where(phantom.mask, phantom.c_a, 1.0)
    return Field(phantom.grid, SPATIAL, values)


@dataclass(frozen=True)
class Metrics:
    """Scalar reconstruction scores; all nonnegative, smaller is better
    except contrast, which targets the phantom's c_a."""

    rel_l2: float
    mask_rel_l2: float
    contrast: float


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-d array, bit for bit, without its import of
    ``numpy.ma`` (about 8 ms of every inversion's start); NaN in, NaN out."""
    ordered = np.sort(values)
    if ordered.size == 0 or np.isnan(ordered[-1]):
        return np.nan
    mid = ordered.size // 2
    if ordered.size % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def score(k_comp, k_true, mask: np.ndarray) -> Metrics:
    """Compare a reconstructed coefficient against the truth.

    Accepts spatial fields or bare arrays.  The contrast is
    median(inside) / median(outside) of the reconstruction alone.
    """
    comp = np.asarray(getattr(k_comp, "values", k_comp), dtype=float)
    true = np.asarray(getattr(k_true, "values", k_true), dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if comp.shape != true.shape or comp.shape != mask.shape:
        raise ValueError(
            f"shapes disagree: reconstruction {comp.shape}, truth {true.shape}, "
            f"mask {mask.shape}"
        )
    diff = comp - true
    rel = float(np.sqrt(np.sum(diff**2) / np.sum(true**2)))
    mask_rel = float(np.sqrt(np.sum(diff[mask] ** 2) / np.sum(true[mask] ** 2)))
    contrast = float(_median(comp[mask]) / _median(comp[~mask]))
    return Metrics(rel_l2=rel, mask_rel_l2=mask_rel, contrast=contrast)
