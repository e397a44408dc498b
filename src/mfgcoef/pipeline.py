"""Benchmark definitions and the generation/inversion plumbing.

The forward benchmark prescribes the value function and the density
data analytically, places a letter phantom in the coefficient, solves
the density on the fine grid and restricts everything to the inversion
grid.  Inversion consumes only the restricted observations: it injects
the multiplicative noise and fits every noisy surface with a penalty set
by the noise level; at noise level 0 the fits are the observations
themselves.  The fitted observations are the one record the objective
and the descent's data constraints read, each differentiating them with
direct stencils.  Both halves run purely in memory; persistence is the
command layer's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import ExperimentConfig
from .grid import Field, ObservationData
from .phantoms import Metrics, letter_phantom, make_k, score

# each half imports its solvers where it runs them, so generation does not
# load the inverse layers and an inversion does not load the forward one
if TYPE_CHECKING:
    from .forward import ForwardSpec, GeneratedData
    from .inverse import ReconstructionResult
    from .objective import ObjectiveContext


def benchmark_value_fn(x1, x2, t):
    return 0.1 * np.cos(np.pi * x1) * np.sin(np.pi * x2) * (t * t + 1.0)


def benchmark_density_fn(x1, x2, t):
    return (t + 1.0) * (x1 * x2 + 2.0)


def forward_spec(cfg: ExperimentConfig) -> ForwardSpec:
    from .forward import ForwardSpec

    fine = cfg.fine_grid()
    k_fine = make_k(letter_phantom(cfg.letter, fine, cfg.contrast))
    return ForwardSpec(
        grid=fine,
        value_fn=benchmark_value_fn,
        density_fn=benchmark_density_fn,
        coefficient=k_fine.values,
        sigma=cfg.sigma,
    )


def run_generation(cfg: ExperimentConfig) -> GeneratedData:
    """Forward solve on the fine grid, observations on the inversion grid."""
    from .forward import generate

    return generate(forward_spec(cfg), cfg.coarse_grid())


def build_context(
    cfg: ExperimentConfig,
    obs: ObservationData,
    cost: np.ndarray,
    cost_rate: np.ndarray,
) -> ObjectiveContext:
    """The objective of one inversion, on the noised and fitted observations."""
    from .noise import inject, smooth_observations
    from .objective import ObjectiveContext

    return ObjectiveContext(
        observations=smooth_observations(inject(obs, cfg.delta, cfg.seed), cfg.delta),
        sigma=cfg.sigma,
        params=cfg.carleman_params(),
        beta=cfg.beta,
        cost=cost,
        cost_rate=cost_rate,
    )


@dataclass
class InversionOutcome:
    """Everything an inversion run reports.

    ``start_rel_l2`` scores the coefficient that the descent's start
    iterate implies, so a run says what the descent added.
    """

    result: ReconstructionResult
    k_true: Field
    metrics: Metrics
    start_rel_l2: float
    denominator_min: float


def run_inversion(
    cfg: ExperimentConfig,
    obs: ObservationData,
    cost: np.ndarray,
    cost_rate: np.ndarray,
) -> InversionOutcome:
    """Noise (if configured), context build, descent from the data-blended start, scoring."""
    from .inverse import descend, initial_guess
    from .objective import recover_coefficient

    ctx = build_context(cfg, obs, cost, cost_rate)
    start = initial_guess(ctx.observations)
    result = descend(ctx, start, cfg.grad_tol, cfg.max_iter)
    phantom = letter_phantom(cfg.letter, obs.grid, cfg.contrast)
    k_true = make_k(phantom)
    metrics = score(result.coefficient, k_true, phantom.mask)
    return InversionOutcome(
        result=result,
        k_true=k_true,
        metrics=metrics,
        start_rel_l2=score(recover_coefficient(ctx, start), k_true, phantom.mask).rel_l2,
        denominator_min=float(np.abs(ctx.denominator).min()),
    )
