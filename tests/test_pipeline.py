from pathlib import Path

import numpy as np
import pytest

from mfgcoef.cli import _read_dataset
from mfgcoef.config import ExperimentConfig
from mfgcoef.noise import inject, smooth_observations
from mfgcoef.pipeline import build_context, run_generation, run_inversion

REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "reference"
DESK = dict(fine=(41, 41, 43), coarse=(21, 21, 7), max_iter=4000)


@pytest.fixture(scope="module")
def desk_data():
    cfg = ExperimentConfig(**DESK)
    return cfg, run_generation(cfg)


def test_generation_restricts_to_the_inversion_grid(desk_data):
    cfg, data = desk_data
    g = data.observations.grid
    assert (g.n1, g.n2, g.nt) == cfg.coarse
    assert data.cost_coarse.shape == (21, 21, 7)
    assert data.min_density > 0


def test_clean_context_sees_the_data(desk_data):
    cfg, data = desk_data
    # at delta 0 the seed draws nothing
    clean = cfg.replace(seed=5)
    ctx = build_context(clean, data.observations, data.cost_coarse, data.cost_rate_coarse)
    for name, field in data.observations.fields().items():
        assert np.array_equal(ctx.observations.fields()[name].values, field.values), name


def test_noisy_observations_perturb_data_and_reseed_identically(desk_data):
    cfg, data = desk_data
    obs = data.observations
    first_obs = inject(obs, 0.03, seed=5)
    assert not np.array_equal(first_obs.v0.values, obs.v0.values)
    assert np.array_equal(first_obs.v0.values, inject(obs, 0.03, seed=5).v0.values)
    assert not np.array_equal(first_obs.v0.values, inject(obs, 0.03, seed=6).v0.values)
    noisy = cfg.replace(delta=0.03, seed=5)
    first = build_context(noisy, obs, data.cost_coarse, data.cost_rate_coarse)
    again = build_context(noisy, obs, data.cost_coarse, data.cost_rate_coarse)
    fitted = smooth_observations(first_obs, 0.03)
    for name, field in fitted.fields().items():
        assert np.array_equal(first.observations.fields()[name].values, field.values), name
        assert np.array_equal(again.observations.fields()[name].values, field.values), name
    assert np.array_equal(first.F, again.F)


def test_context_carries_the_configured_weight(desk_data):
    cfg, data = desk_data
    ctx = build_context(cfg, data.observations, data.cost_coarse, data.cost_rate_coarse)
    assert ctx.params.lam == cfg.lam
    assert ctx.beta == cfg.beta
    assert ctx.grid == data.observations.grid


def test_inversion_outcome_scores_against_the_configured_phantom(desk_data):
    cfg, data = desk_data
    out = run_inversion(cfg, data.observations, data.cost_coarse, data.cost_rate_coarse)
    assert out.result.converged
    assert out.k_true.values.max() == cfg.contrast
    assert out.metrics.rel_l2 < 0.05
    assert abs(out.metrics.contrast - cfg.contrast) < 0.1
    assert out.denominator_min > 0


@pytest.mark.parametrize("delta,budget", [(0.0, 200), (0.03, 180)])
def test_reference_descent_stops_on_grad_tol_within_budget(delta, budget):
    # the committed reference dataset at lam = 3; the noisy case is the
    # benchmark's invert-noisy run (noise seed 17).  Without the density
    # flux in the curvature estimate these took 276 and 273 iterations
    cfg, obs, cost, cost_rate, _ = _read_dataset(
        str(REFERENCE), ExperimentConfig(delta=delta, seed=17), {}
    )
    assert cfg.lam == 3.0
    result = run_inversion(cfg, obs, cost, cost_rate).result
    assert result.stop_reason == "grad_tol"
    assert result.iterations <= budget


@pytest.mark.parametrize("delta,expected", [(0.0, 0.0113), (0.03, 0.0685)])
def test_outcome_scores_the_start_iterate(delta, expected):
    # the coefficient the data-blended start implies, before any descent;
    # the full descent takes the clean score to 0.0095 and the noisy one
    # (seed 17) to 0.0692, so only the clean descent improves on it
    cfg, obs, cost, cost_rate, _ = _read_dataset(
        str(REFERENCE), ExperimentConfig(delta=delta, seed=17, max_iter=1), {}
    )
    out = run_inversion(cfg, obs, cost, cost_rate)
    assert out.result.iterations == 1
    assert out.start_rel_l2 == pytest.approx(expected, abs=1e-4)
