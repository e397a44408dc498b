import re
from pathlib import Path

import pytest

from mfgcoef.config import _SCHEMA, ENV_OUTPUT_ROOT, ExperimentConfig, read_settings
from mfgcoef.grid import InteractionOperator


def test_defaults_are_the_benchmark_setup():
    cfg = ExperimentConfig()
    cfg.validate()
    assert (cfg.a, cfg.b, cfg.half_width, cfg.horizon) == (1.0, 2.0, 0.5, 1.0)
    assert cfg.fine == (81, 81, 321)
    assert cfg.coarse == (21, 21, 11)
    assert cfg.lam == 3.0 and cfg.alpha == 0.2 and cfg.beta == 1e-3
    assert cfg.letter == "A" and cfg.contrast == 2.0
    assert cfg.delta == 0.0
    assert cfg.grad_tol == 1e-2 and cfg.max_iter == 20000


def test_builders_construct_consistent_objects():
    cfg = ExperimentConfig()
    fine, coarse = cfg.fine_grid(), cfg.coarse_grid()
    assert (fine.n1, fine.n2, fine.nt) == (81, 81, 321)
    assert (coarse.n1, coarse.n2, coarse.nt) == (21, 21, 11)
    assert fine.a == coarse.a and fine.horizon == coarse.horizon
    assert InteractionOperator(coarse, cfg.sigma).grid == coarse
    params = cfg.carleman_params()
    assert params.lam == 3.0 and params.alpha == 0.2


def test_output_root_falls_back_to_env(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path / "elsewhere"))
    assert ExperimentConfig().output_root == str(tmp_path / "elsewhere")
    monkeypatch.delenv(ENV_OUTPUT_ROOT)
    assert ExperimentConfig().output_root == "runs"
    assert ExperimentConfig(output_root="here").output_root == "here"


def test_ini_overrides_only_what_it_lists(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[grid]\n"
        "fine = 41 41 81\n"
        "[weight]\n"
        "lam = 4\n"
        "[kernel]\n"
        "sigma = 0.3\n"
        "[solver]\n"
        "grad_tol = 0.5\n"
        "[output]\n"
        "root = out\n"
    )
    settings = read_settings(path)
    assert set(settings) == {"fine", "lam", "sigma", "grad_tol", "output_root"}
    cfg = ExperimentConfig(**settings)
    assert cfg.fine == (41, 41, 81)
    assert cfg.coarse == (21, 21, 11)
    assert cfg.lam == 4.0
    assert cfg.sigma == 0.3
    assert cfg.grad_tol == 0.5
    assert cfg.output_root == "out"


@pytest.mark.parametrize(
    "body,match",
    [
        ("[nope]\nx = 1\n", "unknown config section"),
        ("[weight]\nmu = 1\n", "unknown key"),
        ("[grid]\nfine = 41 41\n", "three node counts"),
        ("[kernel]\nvariant = downstream\n", "unknown key"),
        ("[solver]\noutflow_closure = dirichlet_scaled\n", "unknown key"),
    ],
)
def test_ini_rejects_unknown_or_malformed_entries(tmp_path, body, match):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        read_settings(path)


@pytest.mark.parametrize(
    "changes",
    [
        {"letter": "B"},
        {"contrast": 0.0},
        {"delta": -0.01},
        {"seed": -1},
        {"sigma": 0.0},
        {"lam": -1.0},
        {"alpha": 0.5},
        {"max_iter": 0},
        {"grad_tol": -1.0},
        {"coarse": (21, 21, 13)},
        {"fine": (41, 41, 9), "coarse": (11, 11, 5)},
        {"delta": float("nan")},
        {"contrast": float("inf")},
        {"lam": float("nan")},
        {"beta": float("inf")},
        {"beta": -1.0},
        {"horizon": float("-inf")},
        {"grad_tol": float("nan")},
        {"sigma": float("nan")},
        {"sigma": float("-inf")},
        {"sigma": float("inf")},
        {"a": -3.0, "b": 1.0},
    ],
    ids=[
        "unknown-letter", "zero-contrast", "negative-delta", "negative-seed",
        "zero-sigma", "negative-lam", "even-alpha-denominator", "zero-max-iter",
        "negative-grad-tol",
        "coarse-nt-does-not-nest", "coarse-too-coarse-for-letter", "nan-delta",
        "infinite-contrast", "nan-lam", "infinite-beta", "negative-beta",
        "minus-infinite-horizon", "nan-grad-tol", "nan-sigma", "minus-infinite-sigma",
        "infinite-sigma",
        "weight-peaks-off-the-outflow-face",
    ],
)
def test_validate_rejects_bad_combinations(changes):
    cfg = ExperimentConfig(**changes)
    with pytest.raises(ValueError):
        cfg.validate()


def test_to_dict_round_trips_through_constructor():
    cfg = ExperimentConfig(lam=4.0, letter="SZ", fine=(41, 41, 81))
    data = cfg.to_dict()
    assert data["fine"] == [41, 41, 81]
    rebuilt = ExperimentConfig(
        **{**data, "fine": tuple(data["fine"]), "coarse": tuple(data["coarse"])}
    )
    assert rebuilt == cfg


def test_readme_lists_every_config_key():
    # the README's "Sections and keys" sentence names each section with its
    # keys as "`[section] key key`"; it must list the schema, in its order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme[readme.index("Sections and keys"):]
    sentence = " ".join(sentence[: sentence.index(".\n")].split())
    listed = {
        section: keys.split() for section, keys in re.findall(r"`\[(\w+)\] ([^`]*)`", sentence)
    }
    assert list(listed.items()) == [(section, list(keys)) for section, keys in _SCHEMA.items()]
