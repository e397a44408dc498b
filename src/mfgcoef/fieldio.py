"""On-disk formats for grid fields: binary containers, CSV, PGM heatmaps.

A field file is a short ASCII header followed by the raw values as
row-major little-endian float64, so write -> read returns bit-identical
arrays.  The header names the rank, the axes with their node counts and
extents, the full grid geometry, and the payload length; a reader can
validate every line against the others.

CSV carries one node per row with its coordinates, printed at 17
significant digits (enough to round-trip a double exactly).  PGM output
is 8-bit grayscale with the min/max scaling recorded in a JSON sidecar,
since the image alone cannot be inverted back to values.
"""

from __future__ import annotations

import json

import numpy as np

from .grid import BOUNDARY_TRACE, GAMMA_TRACE, SPACE_TIME, SPATIAL, Field, SpaceTimeGrid

MAGIC = "mfgcoef-field"
VERSION = 1

RANK_AXES = {
    SPATIAL: ("x1", "x2"),
    SPACE_TIME: ("x1", "x2", "t"),
    GAMMA_TRACE: ("x2", "t"),
    BOUNDARY_TRACE: ("s",),
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _axis_extents(grid: SpaceTimeGrid, axis: str):
    return {
        "x1": (grid.a, grid.b),
        "x2": (-grid.half_width, grid.half_width),
        "t": (0.0, grid.horizon),
    }.get(axis)


def _header(field: Field) -> str:
    g = field.grid
    axes = RANK_AXES[field.rank]
    extents = []
    for ax in axes:
        span = _axis_extents(g, ax)
        if span is not None:
            extents.extend(span)
    lines = [
        f"{MAGIC} {VERSION}",
        f"rank {field.rank}",
        "axes " + " ".join(axes),
        "counts " + " ".join(str(n) for n in field.values.shape),
        ("extents " + " ".join(_fmt(x) for x in extents)) if extents else "extents none",
        _grid_line(g),
        f"payload {field.values.size * 8}",
        "end",
    ]
    return "\n".join(lines) + "\n"


def _grid_line(g: SpaceTimeGrid) -> str:
    """The grid geometry as one header line, the inverse of ``_parse_grid``."""
    numbers = [_fmt(g.a), _fmt(g.b), _fmt(g.half_width), _fmt(g.horizon)]
    return "grid " + " ".join(numbers + [str(n) for n in (g.n1, g.n2, g.nt)])


def _parse_grid(tokens) -> SpaceTimeGrid:
    a, b, hw, horizon = (float(s) for s in tokens[:4])
    n1, n2, nt = (int(s) for s in tokens[4:])
    return SpaceTimeGrid(a=a, b=b, half_width=hw, horizon=horizon, n1=n1, n2=n2, nt=nt)


def write_field(path, field: Field) -> None:
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_header(field).encode("ascii"))
        fh.write(payload.tobytes())


def read_field(path) -> Field:
    """The field stored at ``path``; every malformed-input error names the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_container(raw)
    except ValueError as exc:
        raise ValueError(f"malformed field file {path}: {exc}") from None


def _parse_container(raw: bytes) -> Field:
    head_end = raw.find(b"\nend\n")
    if head_end < 0:
        raise ValueError("field header has no 'end' line")
    head_end += len(b"\nend\n")
    entries = {}
    for line in raw[:head_end].decode("ascii").splitlines():
        key, _, rest = line.partition(" ")
        entries[key] = rest
    if MAGIC not in entries or int(entries[MAGIC]) != VERSION:
        raise ValueError(f"not a version-{VERSION} field container")
    for key in ("rank", "counts", "grid", "payload"):
        if key not in entries:
            raise ValueError(f"field header has no {key!r} line")
    counts = tuple(int(s) for s in entries["counts"].split())
    grid = _parse_grid(entries["grid"].split())
    payload = raw[head_end:]
    declared = int(entries["payload"])
    if len(payload) != declared:
        raise ValueError(f"payload length {len(payload)} does not match declared {declared}")
    values = np.frombuffer(payload, dtype="<f8").reshape(counts)
    # the rank fixes the shape, so counts that disagree with it are refused here
    return Field(grid, entries["rank"], values.copy())


def write_csv(path, field: Field) -> None:
    g = field.grid
    axes = RANK_AXES[field.rank]
    coords = {"x1": g.x1, "x2": g.x2, "t": g.t}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {MAGIC} {VERSION}\n")
        fh.write(f"# rank {field.rank}\n")
        fh.write(f"# {_grid_line(g)}\n")
        fh.write(",".join(axes) + ",value\n")
        vals = field.values
        for index in np.ndindex(vals.shape):
            row = []
            for ax, i in zip(axes, index):
                row.append(_fmt(coords[ax][i]) if ax in coords else str(i))
            row.append(_fmt(vals[index]))
            fh.write(",".join(row) + "\n")


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit grayscale heatmap of a spatial array, plus a JSON sidecar.

    Image rows run from high x2 down and columns from low x1 up.  The
    sidecar records the value range used for scaling; a constant field is
    rendered mid-gray and flagged.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"heatmap needs a 2-d array, got shape {values.shape}")
    lo = float(values.min())
    hi = float(values.max())
    constant = hi == lo
    if constant:
        levels = np.full(values.shape, 128, dtype=int)
    else:
        levels = np.rint((values - lo) / (hi - lo) * 255.0).astype(int)
    image = levels.T[::-1]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("P2\n")
        fh.write(f"{image.shape[1]} {image.shape[0]}\n")
        fh.write("255\n")
        for row in image:
            fh.write(" ".join(str(v) for v in row) + "\n")
    sidecar = {
        "min": lo,
        "max": hi,
        "constant": constant,
        "rows": int(image.shape[0]),
        "cols": int(image.shape[1]),
        "row_axis": "x2 descending",
        "col_axis": "x1 ascending",
    }
    with open(str(path) + ".json", "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_pgm(path) -> np.ndarray:
    """Parse a P2 file back to the grayscale level array (rows x cols)."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if tokens[0] != "P2":
        raise ValueError(f"not an ASCII PGM: {path}")
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"expected 8-bit levels, got max {maxval}: {path}")
    data = np.array([int(t) for t in tokens[4:]]).reshape(rows, cols)
    return data
