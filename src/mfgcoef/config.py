"""Experiment configuration: defaults, INI files, and builder helpers.

A run is described by a flat dataclass mirroring a small INI file with
one section per concern.  Every field has a working default (the
benchmark setup), so an empty config is runnable; a file only lists what
it changes.  `validate` constructs every downstream object once and
checks the descent's two settings, so a bad combination fails before any
compute starts rather than mid-run.

The default output root comes from the MFGCOEF_OUTPUT_ROOT environment
variable when set; a config file or a command-line flag overrides it.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Tuple

from .carleman import CarlemanParams
from .grid import InteractionOperator, SpaceTimeGrid, restriction_strides
from .phantoms import letter_phantom

ENV_OUTPUT_ROOT = "MFGCOEF_OUTPUT_ROOT"


@dataclass(frozen=True)
class ExperimentConfig:
    # geometry
    a: float = 1.0
    b: float = 2.0
    half_width: float = 0.5
    horizon: float = 1.0
    # grids, (n1, n2, nt)
    fine: Tuple[int, int, int] = (81, 81, 321)
    coarse: Tuple[int, int, int] = (21, 21, 11)
    # weight
    lam: float = 3.0
    alpha: float = 0.2
    # objective
    beta: float = 1e-3
    # kernel
    sigma: float = 0.2
    # phantom
    letter: str = "A"
    contrast: float = 2.0
    # noise
    delta: float = 0.0
    seed: int = 0
    # solver
    grad_tol: float = 1e-2
    max_iter: int = 20000
    # output
    output_root: str = ""

    def __post_init__(self) -> None:
        if not self.output_root:
            object.__setattr__(
                self, "output_root", os.environ.get(ENV_OUTPUT_ROOT, "runs")
            )

    # builders; each delegates validation to the object it constructs

    def _grid(self, nodes: Tuple[int, int, int]) -> SpaceTimeGrid:
        n1, n2, nt = nodes
        return SpaceTimeGrid(
            a=self.a, b=self.b, half_width=self.half_width, horizon=self.horizon,
            n1=n1, n2=n2, nt=nt,
        )

    def fine_grid(self) -> SpaceTimeGrid:
        return self._grid(self.fine)

    def coarse_grid(self) -> SpaceTimeGrid:
        return self._grid(self.coarse)

    def carleman_params(self) -> CarlemanParams:
        return CarlemanParams(lam=self.lam, alpha=self.alpha)

    def validate(self) -> None:
        """Construct everything cheap once; raises on any bad combination.

        The coarse grid must nest in the fine one and resolve the letter's
        strokes, and the weight sampled on it needs b > 0 and a >= -b, so
        that it peaks at the outflow face, or generation would fail after
        the forward solve and inversion after the dataset is written.
        Every float must be finite: a NaN slips past every ordered
        comparison below, and a manifest cannot store either.
        """
        for name, value in dataclasses.asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        coarse = self.coarse_grid()
        restriction_strides(self.fine_grid(), coarse)
        self.carleman_params().balanced_log_weight(coarse)
        InteractionOperator(coarse, self.sigma)
        letter_phantom(self.letter, coarse, self.contrast)
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.delta < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.delta}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["fine"] = list(self.fine)
        out["coarse"] = list(self.coarse)
        return out


_SCHEMA = {
    "geometry": {"a": float, "b": float, "half_width": float, "horizon": float},
    "grid": {"fine": "triple", "coarse": "triple"},
    "weight": {"lam": float, "alpha": float},
    "objective": {"beta": float},
    "kernel": {"sigma": float},
    "phantom": {"letter": str, "contrast": float},
    "noise": {"delta": float, "seed": int},
    "solver": {"grad_tol": float, "max_iter": int},
    "output": {"root": str},
}

_FIELD_NAMES = {("output", "root"): "output_root"}
# each field's kind, by the name the dataclass gives it
_KINDS = {
    _FIELD_NAMES.get((section, key), key): kind
    for section, keys in _SCHEMA.items()
    for key, kind in keys.items()
}
# an inversion takes the settings of the sections generation reads from
# its dataset, so the two halves of a run cannot silently disagree
DATASET_BOUND_FIELDS = tuple(
    _FIELD_NAMES.get((section, key), key)
    for section in ("geometry", "grid", "kernel", "phantom")
    for key in _SCHEMA[section]
)


def _parse_value(kind, raw: str):
    if kind == "triple":
        parts = raw.replace(",", " ").split()
        if len(parts) != 3:
            raise ValueError(f"expected three node counts, got {raw!r}")
        return tuple(int(p) for p in parts)
    return kind(raw)


def stored_setting(name: str, value):
    """A setting read back from a JSON manifest, checked against its kind.

    The tests are exact, since JSON true and false load as bools, which
    pass for numbers everywhere downstream.
    """
    kind = _KINDS[name]
    if kind == "triple":
        ok = type(value) is list and len(value) == 3 and all(type(n) is int for n in value)
        expected = "a list of three integers"
    elif kind is float:
        ok, expected = type(value) in (int, float), "a number"
    else:
        ok, expected = type(value) is kind, f"of type {kind.__name__}"
    if not ok:
        raise ValueError(f"stored {name!r} must be {expected}, got {value!r}")
    return tuple(value) if kind == "triple" else value


def read_settings(path) -> dict:
    """The settings an INI file states, by field name; unknown keys and malformed files are errors."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {name: parser.items(name) for name in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from None
    changes = {}
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}] in {path}")
        for key, raw in items:
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in section [{section}] of {path}")
            name = _FIELD_NAMES.get((section, key), key)
            try:
                changes[name] = _parse_value(_SCHEMA[section][key], raw)
            except ValueError as exc:
                raise ValueError(f"bad value for [{section}] {key} in {path}: {exc}")
    return changes
