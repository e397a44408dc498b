import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mfgcoef
from mfgcoef import carleman
from mfgcoef.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    _sha256,
    _write_manifest,
    main,
)
from mfgcoef.fieldio import read_field, read_pgm, write_field
from mfgcoef.grid import OBSERVATION_FIELDS, SPATIAL, Field, SpaceTimeGrid

SMALL_INI = """\
[grid]
fine = 41 41 41
coarse = 21 21 5

[solver]
max_iter = 2500
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "small.ini"
    config.write_text(SMALL_INI)
    dataset = root / "ds"
    code = main(["generate", "--config", str(config), "--out", str(dataset)])
    assert code == EXIT_OK
    return root, config, dataset


def test_generate_writes_dataset_and_manifest(workspace):
    root, config, dataset = workspace
    names = {p.name for p in dataset.iterdir()}
    assert names == {
        "v0.field", "p0.field", "g01.field", "g02.field",
        "g11.field", "g12.field", "cost.field", "cost_rate.field",
        "manifest.json",
    }
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["coarse"] == [21, 21, 5]
    assert manifest["measurements"]["min_density"] > 0
    assert manifest["measurements"]["preconditioned_sweeps"] >= 1
    assert manifest["measurements"]["krylov_steps"] == 0
    assert set(manifest["outputs"]) == {
        "v0", "p0", "g01", "g02", "g11", "g12", "cost", "cost_rate",
    }
    grid = read_field(dataset / "v0.field").grid
    assert (grid.n1, grid.n2, grid.nt) == (21, 21, 5)


def test_generate_rerun_is_bit_identical(workspace):
    root, config, dataset = workspace
    manifests = []
    for name in ("ga", "gb"):
        out = root / name
        assert main(["generate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        manifests.append(json.loads((out / "manifest.json").read_text()))
    a, b = manifests
    hashes = [{k: v["sha256"] for k, v in m["outputs"].items()} for m in manifests]
    assert len(hashes[0]) == 8
    assert hashes[0] == hashes[1]
    # the sweep counts and fallback decisions repeat too, not just the
    # bytes they produce
    assert a["measurements"] == b["measurements"]


def test_generate_rejects_grids_that_do_not_nest_before_solving(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[grid]\ncoarse = 21,21,13\n")
    code = main(["generate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION
    assert "does not nest" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_generate_step_that_does_not_converge_writes_no_dataset(tmp_path, capsys):
    # the value function grows like t^2, so over a long horizon the drift
    # dwarfs 1/ht - lap_h: the sweeps diverge, and restarted GMRES stalls
    # about 100-fold above the residual bound within its budget
    config = tmp_path / "long.ini"
    config.write_text("[geometry]\nhorizon = 100\n\n[grid]\nfine = 41,41,9\ncoarse = 21,21,5\n")
    out = tmp_path / "ds"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == EXIT_NUMERICAL
    assert "density step 3 (t=37.5) did not converge" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_generate_step_solved_to_rounding_writes_the_dataset(tmp_path):
    # at t = 40 the last step's GMRES iterate misses the 1e-14 relative
    # residual bound (1.98e-8 against 1.83e-8) because ||b|| is far below
    # || |A| |x| ||; its backward error is about 1e-15, so it is solved
    config = tmp_path / "h40.ini"
    config.write_text("[geometry]\nhorizon = 40\n\n[grid]\nfine = 41,41,41\n")
    out = tmp_path / "ds"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    measured = json.loads((out / "manifest.json").read_text())["measurements"]
    assert measured["krylov_steps"] >= 1
    assert len(list(out.glob("*.field"))) == 8


def test_generate_refuses_nonempty_dir_without_force(workspace):
    root, config, dataset = workspace
    assert main(["generate", "--config", str(config), "--out", str(dataset)]) == EXIT_PRECONDITION
    assert main([
        "generate", "--config", str(config), "--out", str(dataset), "--force",
    ]) == EXIT_OK


@pytest.fixture(scope="module")
def inverted(workspace):
    """One clean ``invert`` of the workspace dataset: its exit code and output."""
    root, config, dataset = workspace
    out = root / "inv"
    code = main(["invert", "--config", str(config), str(dataset), "--out", str(out)])
    return code, out


def test_invert_reconstructs_and_reports(inverted):
    code, out = inverted
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "invert"
    assert manifest["metrics"]["rel_l2"] < 0.10
    assert manifest["unweighted"] is False
    assert "inputs" in manifest
    assert manifest["stop_reason"] == "grad_tol"
    assert manifest["objective_passes"] > manifest["iterations"]
    # the score of the start iterate, beside the final one
    assert 0.0 < manifest["start_rel_l2"] < 0.10
    k = read_field(out / "k_comp.field")
    assert k.values.shape == (21, 21)
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "rel_l2,mask_rel_l2,contrast,converged,iterations"
    # the objective's split at every accepted iterate, a hashed output
    assert "objective_parts" in manifest["outputs"]
    parts = np.loadtxt(out / "objective_parts.csv", delimiter=",", skiprows=1, ndmin=2)
    totals = np.loadtxt(out / "objective_history.csv", delimiter=",", skiprows=1, ndmin=2)
    assert (out / "objective_parts.csv").read_text().startswith("step,first,second,smoothness\n")
    assert parts.shape == (manifest["iterations"] + 1, 4)
    assert np.array_equal(parts[:, 0], totals[:, 0])
    assert np.allclose(parts[:, 1:].sum(axis=1), totals[:, 1], rtol=1e-15, atol=0.0)
    assert np.all(parts[:, 1:] >= 0.0)
    levels = read_pgm(out / "k_comp.pgm")
    assert levels.shape == (21, 21)


def test_invert_rerun_with_same_seed_is_bit_identical(workspace):
    root, config, dataset = workspace
    outs = []
    for name in ("na", "nb"):
        out = root / name
        code = main([
            "invert", "--config", str(config), str(dataset),
            "--out", str(out), "--delta", "0.03", "--seed", "11",
        ])
        assert code == EXIT_OK
        outs.append(out)
    a = json.loads((outs[0] / "manifest.json").read_text())
    b = json.loads((outs[1] / "manifest.json").read_text())
    assert a["outputs"]["k_comp"]["sha256"] == b["outputs"]["k_comp"]["sha256"]
    assert a["metrics"] == b["metrics"]
    assert (a["stop_reason"], a["objective_passes"]) == (b["stop_reason"], b["objective_passes"])


def test_invert_vanishing_denominator_is_a_numerical_failure(workspace, tmp_path):
    root, config, dataset = workspace
    broken = tmp_path / "zero_density"
    shutil.copytree(dataset, broken)
    p0 = read_field(broken / "p0.field")
    write_field(broken / "p0.field", Field(p0.grid, p0.rank, np.zeros_like(p0.values)))
    # with noise the objective divides by the interaction of the fitted slice
    code = main([
        "invert", "--config", str(config), str(broken),
        "--out", str(tmp_path / "o"), "--delta", "0.03", "--seed", "1",
    ])
    assert code == EXIT_NUMERICAL


def test_invert_adopts_generation_identity_from_dataset(workspace):
    root, config, dataset = workspace
    out = root / "adopt"
    # config omitted entirely: geometry and phantom still come from the dataset
    code = main(["invert", str(dataset), "--out", str(out), "--seed", "0"])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["coarse"] == [21, 21, 5]
    assert manifest["config"]["letter"] == "A"


@pytest.mark.parametrize("command", ["invert", "sweep-lambda"])
def test_a_config_that_contradicts_the_dataset_is_refused(workspace, tmp_path, capsys, command):
    # the dataset's settings are adopted, so a file that states others
    # would run on the dataset's and report nothing of the file's
    root, config, dataset = workspace
    path = tmp_path / "c.ini"
    path.write_text(SMALL_INI + "[kernel]\nsigma = 0.3\n[phantom]\nletter = SZ\n")
    argv = [command, "--config", str(path), str(dataset), "--out", str(tmp_path / "o")]
    if command == "sweep-lambda":
        argv += ["--lambda", "3"]
    assert main(argv) == EXIT_PRECONDITION
    assert capsys.readouterr().err == (
        f"error: sigma = 0.3 contradicts dataset {str(dataset)!r}, generated with sigma = 0.2\n"
    )
    assert not (tmp_path / "o").exists()


def test_a_config_that_restates_the_dataset_is_accepted(workspace, tmp_path):
    root, config, dataset = workspace
    path = tmp_path / "c.ini"
    path.write_text(SMALL_INI.replace("max_iter = 2500", "max_iter = 5") + (
        "[geometry]\na = 1\nb = 2.0\nhalf_width = 0.5\nhorizon = 1\n"
        "[kernel]\nsigma = 0.2\n[phantom]\nletter = A\ncontrast = 2\n"
    ))
    out = tmp_path / "o"
    assert main(["invert", "--config", str(path), str(dataset), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sigma"] == 0.2 and manifest["config"]["letter"] == "A"


def _with_stored_config(dataset, dest, **stored):
    shutil.copytree(dataset, dest)
    manifest = json.loads((dest / "manifest.json").read_text())
    manifest["config"].update(stored)
    (dest / "manifest.json").write_text(json.dumps(manifest))
    return dest


def test_invert_rejects_a_dataset_of_another_kernel(workspace, tmp_path):
    root, config, dataset = workspace
    other = _with_stored_config(dataset, tmp_path / "downstream", kernel_variant="downstream")
    code = main(["invert", "--config", str(config), str(other), "--out", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION
    assert not (tmp_path / "o").exists()


def test_invert_accepts_manifests_with_retired_keys(workspace, tmp_path):
    root, config, dataset = workspace
    # datasets written before the kernel, closure and density offset
    # options were removed
    old = _with_stored_config(
        dataset, tmp_path / "old", kernel_variant="line_gaussian",
        outflow_closure="neumann_scaled", density_offset=2.0,
    )
    out = tmp_path / "o"
    assert main(["invert", "--config", str(config), str(old), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metrics"]["rel_l2"] < 0.10
    assert not {"kernel_variant", "outflow_closure", "density_offset"} & set(manifest["config"])


def _field_on_another_grid(path):
    # same node counts, so the values have the observations' shape; only
    # the grid line of the container says they belong to another slab
    f = read_field(path)
    g = f.grid
    return Field(SpaceTimeGrid(a=-3.0, b=g.b, half_width=g.half_width, horizon=5.0,
                               n1=g.n1, n2=g.n2, nt=g.nt), f.rank, f.values)


@pytest.mark.parametrize("name", ["cost", "cost_rate"])
def test_invert_rejects_cost_fields_on_another_grid(workspace, tmp_path, name):
    root, config, dataset = workspace
    moved = tmp_path / "moved"
    shutil.copytree(dataset, moved)
    write_field(moved / f"{name}.field", _field_on_another_grid(moved / f"{name}.field"))
    code = main(["invert", "--config", str(config), str(moved), "--out", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stored", [
    {"coarse": [41, 41, 9]}, {"b": 2.5}, {"coarse": [41, 41, 9], "b": 2.5},
], ids=["node-counts", "extent", "both"])
def test_invert_rejects_a_manifest_whose_grid_is_not_the_fields(
    workspace, tmp_path, capsys, stored
):
    # the manifest's settings are adopted, so a grid that disagrees with
    # the fields would invert on one grid and report the other
    root, config, dataset = workspace
    bad = _with_stored_config(dataset, tmp_path / "bad", **stored)
    argv = ["invert", "--config", str(config), str(bad), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset manifest {bad / 'manifest.json'}: ")
    fields_grid = read_field(bad / "v0.field").grid
    n1, n2, nt = stored.get("coarse", (fields_grid.n1, fields_grid.n2, fields_grid.nt))
    stored_grid = SpaceTimeGrid(a=1.0, b=stored.get("b", 2.0), half_width=0.5, horizon=1.0,
                                n1=n1, n2=n2, nt=nt)
    assert str(stored_grid) in err and str(fields_grid) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, replace", [
    ("v0", lambda ds: read_field(ds / "cost.field")),
    ("g11", lambda ds: _field_on_another_grid(ds / "g11.field")),
], ids=["space-time-v0", "g11-on-another-grid"])
def test_invert_names_the_dataset_field_that_does_not_fit(
    workspace, tmp_path, capsys, name, replace
):
    root, config, dataset = workspace
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    write_field(bad / f"{name}.field", replace(bad))
    argv = ["invert", "--config", str(config), str(bad), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset {str(bad)!r}: observation {name}: ")
    assert not (tmp_path / "o").exists()


def test_invert_requires_dataset_manifest(workspace, tmp_path):
    root, config, dataset = workspace
    empty = tmp_path / "not_a_dataset"
    empty.mkdir()
    code = main(["invert", "--config", str(config), str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION


def test_sweep_lambda_writes_summary_and_continues_on_failure(workspace, tmp_path):
    root, config, dataset = workspace
    short = tmp_path / "short.ini"
    short.write_text(SMALL_INI.replace("max_iter = 2500", "max_iter = 20"))
    out = root / "sweep"
    # lam = 1e100 weights the residuals far past what the line search can
    # resolve in double precision, so its descent stalls
    code = main([
        "sweep-lambda", "--config", str(short), str(dataset),
        "--out", str(out), "--lambda", "3,1e100",
    ])
    assert code == EXIT_OK
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "lambda,status,rel_l2,contrast,converged"
    # max_iter = 20 stops lam=3 short of grad_tol on this grid
    assert rows[1].startswith("3,unconverged,")
    assert rows[1].endswith(",0")
    assert rows[2].startswith("1e+100,failed,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"]["3"]["status"] == "unconverged"
    assert manifest["runs"]["3"]["converged"] is False
    assert manifest["runs"]["3"]["stop_reason"] == "max_iter"
    assert manifest["runs"]["3"]["iterations"] == 20
    assert manifest["runs"]["3"]["objective_passes"] > 20
    assert manifest["runs"]["3"]["start_rel_l2"] > 0.0
    assert manifest["runs"]["1e+100"]["status"] == "failed"
    assert "stalled" in manifest["runs"]["1e+100"]["error"]
    assert (out / "lam_3" / "k_comp.field").exists()
    assert "objective_parts" in manifest["runs"]["3"]["outputs"]
    rows = (out / "lam_3" / "objective_parts.csv").read_text().splitlines()
    assert len(rows) == 1 + 21


def test_sweep_lambda_rejects_empty_list(workspace):
    root, config, dataset = workspace
    code = main([
        "sweep-lambda", "--config", str(config), str(dataset),
        "--out", str(root / "sweep2"), "--lambda", "",
    ])
    assert code == EXIT_PRECONDITION


def test_sweep_lambda_rejects_lambdas_with_one_run_name(workspace, tmp_path):
    root, config, dataset = workspace
    for raw in ("3,3", "3,3.0000001"):
        out = tmp_path / f"sweep_{raw}"
        code = main([
            "sweep-lambda", "--config", str(config), str(dataset),
            "--out", str(out), "--lambda", raw,
        ])
        assert code == EXIT_PRECONDITION
        assert not out.exists()


@pytest.mark.parametrize("raw", ["-1", "3,-0.5", "3,1e250"])
def test_sweep_lambda_rejects_negative_lambda_before_any_output(workspace, tmp_path, raw):
    root, config, dataset = workspace
    out = tmp_path / "sweep"
    code = main([
        "sweep-lambda", "--config", str(config), str(dataset), "--out", str(out), "--lambda", raw,
    ])
    assert code == EXIT_PRECONDITION
    assert not out.exists()


def test_verify_carleman_passes_and_reports(workspace, tmp_path):
    out = tmp_path / "carl"
    code = main(["verify-carleman", "--out", str(out), "--trials", "2"])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"]["violated"] == 0
    assert manifest["counts"]["holds"] > 0
    report = (out / "report.txt").read_text()
    assert "log-log slope" in report
    rows = [line.split() for line in report.splitlines()[1:] if not line.startswith("#")]
    # one profile's lambda rows share its trial number
    assert [(row[0], row[1]) for row in rows] == [
        (str(trial), lam) for trial in range(2) for lam in ("1", "2", "4", "8")
    ]
    # the finer rule's 32 nodes on each piece: 8 knot pieces a side, and
    # the grading toward t = 0 adds 8, 9, 10 and 11 pieces a side for
    # lam = 1, 2, 4 and 8
    assert manifest["quadrature"] == {"nodes": [1024, 1088, 1152, 1216]}
    # the counts stay out of the hashed report, which keeps its two summary lines
    assert len([line for line in report.splitlines() if line.startswith("#")]) == 2


def test_verify_carleman_repeated_lambda_reports_no_slope(tmp_path):
    out = tmp_path / "carl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify-carleman", "--out", str(out), "--trials", "2", "--lambda", "2,2"])
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["slope"] is None
    assert "slope" not in (out / "report.txt").read_text()


def _report_rows(report: str):
    return [line for line in report.splitlines()[1:] if not line.startswith("#")]


def test_verify_carleman_decides_a_large_lambda(tmp_path):
    # the grading follows the weight's width, which shrinks like
    # lam^(-1/(1+alpha)) around t = 0
    out = tmp_path / "carl"
    code = main(["verify-carleman", "--out", str(out), "--lambda", "1e5", "--trials", "3"])
    assert code == EXIT_OK
    rows = _report_rows((out / "report.txt").read_text())
    assert len(rows) == 3
    assert all(row.endswith(" holds") for row in rows)


def test_verify_carleman_names_inconclusive_pairs(monkeypatch, tmp_path, capsys):
    # a one-point rule against a two-point rule never agrees
    monkeypatch.setattr(carleman, "GAUSS_POINTS", 1)
    out = tmp_path / "carl"
    code = main(["verify-carleman", "--out", str(out), "--lambda", "8", "--trials", "2"])
    assert code == EXIT_NUMERICAL
    rows = _report_rows((out / "report.txt").read_text())
    assert len(rows) == 2
    assert all(row.endswith(" inconclusive") for row in rows)
    captured = capsys.readouterr()
    assert captured.out.startswith("0 hold, 2 failures -> ")
    assert "0 certification trials violated the inequality and 2 were inconclusive" in captured.err


def test_verify_carleman_names_violated_pairs(monkeypatch, tmp_path, capsys):
    # no slack at all below the bound: every settled pair is violated
    monkeypatch.setattr(carleman, "HOLDS_REL_SLACK", -1.0)
    out = tmp_path / "carl"
    code = main(["verify-carleman", "--out", str(out), "--lambda", "2", "--trials", "2"])
    assert code == EXIT_NUMERICAL
    rows = _report_rows((out / "report.txt").read_text())
    assert len(rows) == 2
    assert all(row.endswith(" violated") for row in rows)
    assert "2 certification trials violated the inequality and 0 were inconclusive" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("raw", ["", " , "])
def test_verify_carleman_rejects_an_empty_lambda_list(tmp_path, capsys, raw):
    # an empty list used to certify the default lambdas and exit 0
    out = tmp_path / "carl"
    assert main(["verify-carleman", "--out", str(out), "--lambda", raw]) == EXIT_PRECONDITION
    assert "--lambda needs at least one value" in capsys.readouterr().err
    assert not out.exists()


def test_verify_carleman_rejects_nonpositive_trials(tmp_path):
    for trials in ("0", "-3"):
        out = tmp_path / f"t{trials}"
        assert main(["verify-carleman", "--out", str(out), "--trials", trials]) == EXIT_PRECONDITION
        assert not (out / "report.txt").exists()


def test_verify_carleman_rejects_bad_weight_parameters(tmp_path):
    assert main([
        "verify-carleman", "--out", str(tmp_path / "c1"), "--lambda", "0,1",
    ]) == EXIT_PRECONDITION
    bad = tmp_path / "alpha.ini"
    bad.write_text("[weight]\nalpha = 0.5\n")
    assert main([
        "verify-carleman", "--config", str(bad), "--out", str(tmp_path / "c2"),
    ]) == EXIT_PRECONDITION


def test_render_spatial_and_time_slice(workspace, inverted, tmp_path):
    root, config, dataset = workspace
    _, inv = inverted
    out = tmp_path / "render"
    assert main(["render", str(inv / "k_comp.field"), "--out", str(out)]) == EXIT_OK
    assert (out / "k_comp.pgm").exists() and (out / "k_comp.csv").exists()
    assert main(["render", str(inv / "u.field"), "--out", str(out)]) == EXIT_PRECONDITION
    assert main([
        "render", str(inv / "u.field"), "--out", str(out), "--slice", "t=0.5",
    ]) == EXIT_OK
    assert (out / "u_t0.5.pgm").exists()
    # trace ranks have no heatmap rendering
    assert main([
        "render", str(dataset / "g11.field"), "--out", str(out),
    ]) == EXIT_PRECONDITION


@pytest.mark.parametrize("field,raw", [
    ("u.field", "t=7"),
    ("u.field", "t=-0.1"),
    ("u.field", "t=nan"),
    ("k_comp.field", "t=0.5"),
])
def test_render_rejects_a_slice_it_cannot_honour(inverted, tmp_path, field, raw):
    # a time outside [0, horizon] used to render the nearest end slice, and
    # a spatial field used to ignore --slice
    _, inv = inverted
    out = tmp_path / "render"
    assert main(["render", str(inv / field), "--out", str(out), "--slice", raw]) == EXIT_PRECONDITION
    assert not out.exists()


def test_render_rejects_malformed_slice(inverted):
    _, inv = inverted
    with pytest.raises(SystemExit):
        main(["render", str(inv / "u.field"), "--slice", "0.5"])


def test_render_rejects_field_without_rank_and_grid_lines(tmp_path, capsys):
    path = tmp_path / "bad.field"
    grid = SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=5, n2=5, nt=5)
    write_field(path, Field(grid, SPATIAL, np.ones((5, 5))))
    raw = path.read_bytes()
    head, sep, payload = raw.partition(b"\nend\n")
    kept = [line for line in head.split(b"\n") if not line.startswith((b"rank ", b"grid "))]
    path.write_bytes(b"\n".join(kept) + sep + payload)
    assert main(["render", str(path), "--out", str(tmp_path / "r")]) == EXIT_PRECONDITION
    assert "'rank'" in capsys.readouterr().err


def test_render_rejects_field_without_end_line(tmp_path, capsys):
    path = tmp_path / "bad.field"
    path.write_bytes(b"mfgcoef-field 1\nrank spatial\n")
    assert main(["render", str(path), "--out", str(tmp_path / "r")]) == EXIT_PRECONDITION
    assert "'end'" in capsys.readouterr().err


@pytest.mark.parametrize("line, edited", [
    (b"counts ", b"counts 5 4"),
    (b"counts ", b"counts 5 x"),
    (b"mfgcoef-field ", b"mfgcoef-field one"),
    (b"grid ", b"grid 1 2 0.5"),
    (b"rank ", b"rank volume"),
    (b"grid ", b"grid 1 inf 0.5 nan 5 5 5"),
], ids=["counts-disagree-with-payload", "non-numeric-counts", "non-numeric-version",
        "short-grid-line", "unknown-rank", "non-finite-grid"])
def test_render_names_a_malformed_field_file(tmp_path, capsys, line, edited):
    path = tmp_path / "bad.field"
    grid = SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=5, n2=5, nt=5)
    write_field(path, Field(grid, SPATIAL, np.ones((5, 5))))
    head, sep, payload = path.read_bytes().partition(b"\nend\n")
    lines = [edited if row.startswith(line) else row for row in head.split(b"\n")]
    path.write_bytes(b"\n".join(lines) + sep + payload)
    assert main(["render", str(path), "--out", str(tmp_path / "r")]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: malformed field file ") and str(path) in err


@pytest.mark.parametrize("values", [
    np.where(np.arange(25).reshape(5, 5) == 7, np.nan, 1.0), np.full((5, 5), np.inf),
], ids=["one-nan", "all-infinite"])
def test_render_refuses_non_finite_values_and_writes_nothing(tmp_path, capsys, values):
    # a NaN has no gray level, and strict JSON holds neither it nor an
    # infinity, so the heatmap and its sidecar are refused up front, before
    # a new output directory is made, and the message names the field file
    path = tmp_path / "bad.field"
    grid = SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=5, n2=5, nt=5)
    write_field(path, Field(grid, SPATIAL, values))
    for out in ([], ["--out", str(tmp_path / "new")]):
        assert main(["render", str(path), *out]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith(f"error: field file {path}: heatmap needs finite values"), err
        assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("text", [
    '{"config": {"a": 1.0,}}', "[]", '{"config": {"fine": 5}}', '{"config": {"sigma": "wide"}}',
], ids=["not-json", "not-an-object", "non-list-grid", "string-sigma"])
def test_invert_names_a_malformed_dataset_manifest(workspace, tmp_path, capsys, text):
    root, config, dataset = workspace
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    (bad / "manifest.json").write_text(text)
    argv = ["invert", "--config", str(config), str(bad), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: dataset manifest ") and str(bad / "manifest.json") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("sigma", True), ("a", True), ("contrast", False),
    ("fine", [41.0, 41, 41]), ("coarse", [21, 21, True]), ("letter", 1),
], ids=["bool-sigma", "bool-a", "bool-contrast", "float-in-fine", "bool-in-coarse", "int-letter"])
def test_invert_rejects_a_stored_setting_of_the_wrong_type(
    workspace, tmp_path, capsys, key, value
):
    # a JSON bool passes for a number downstream ("sigma": true inverts at
    # sigma = 1), so each stored value is checked against its field's type
    root, config, dataset = workspace
    bad = _with_stored_config(dataset, tmp_path / "bad", **{key: value})
    argv = ["invert", "--config", str(config), str(bad), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset manifest {bad / 'manifest.json'}: stored {key!r} ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--delta", "0.03"],
    ["generate", "--seed", "3"],
    ["invert", "DATASET", "--letter", "Omega"],
    ["invert", "DATASET", "--contrast", "8"],
    ["sweep-lambda", "DATASET", "--lambda", "1", "--letter", "Omega"],
    ["sweep-lambda", "DATASET", "--lambda", "1", "--contrast", "8"],
    ["verify-carleman", "--delta", "0.03"],
    ["verify-carleman", "--letter", "Omega"],
    ["verify-carleman", "--contrast", "8"],
])
def test_override_flags_a_command_would_ignore_are_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["invert", "DATASET", "--delta", "nan"],
    ["generate", "--contrast", "nan"],
    ["generate", "--contrast", "inf"],
    ["verify-carleman", "--lambda", "nan"],
    ["verify-carleman", "--lambda", "1,inf"],
    ["verify-carleman", "--lambda", "1,1e-300"],
    ["sweep-lambda", "DATASET", "--lambda", "3,nan"],
])
def test_non_finite_values_are_rejected_before_any_output(argv, tmp_path, capsys):
    # a NaN passes every ordered comparison, so each of these used to run
    # (and write NaN into a dataset or a manifest) or fail late with exit 3
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_PRECONDITION
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["generate", "invert"])
@pytest.mark.parametrize("text, named", [
    ("[weight]\nlam = 1\nlam = 2\n", "bad.ini"),
    ("lam = 1\n", "bad.ini"),
    ("[objective]\nbeta = -1\n", "beta"),
    ("[weight]\nlam = 1e250\n", "lam"),
    ("[solver]\nstep0 = 0.2\n", "unknown key 'step0'"),
    ("[solver]\nshrink = 0.25\n", "unknown key 'shrink'"),
    ("[solver]\nprecondition = no\n", "unknown key 'precondition'"),
    ("[geometry]\na = -1\nb = 0\n", "b must be positive"),
    ("[geometry]\na = -3\nb = 1\n", "a must be at least -b"),
    ("[benchmark]\ndensity_offset = 2\n", "unknown config section [benchmark]"),
    ("[kernel]\nsigma = inf\n", "sigma must be finite"),
], ids=[
    "duplicate-key", "no-section-header", "negative-beta", "overflowing-lambda",
    "step0", "shrink", "precondition", "nonpositive-b", "weight-peaks-at-a",
    "density-offset", "flat-kernel",
])
def test_bad_config_file_is_rejected_before_any_output(
    workspace, tmp_path, capsys, command, text, named
):
    # each is a precondition error found while the config is read and
    # validated, before any output directory exists
    root, config, dataset = workspace
    path = tmp_path / "bad.ini"
    path.write_text(text)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
    if command == "invert":
        argv.append(str(dataset))
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_manifest_refuses_non_finite_numbers(tmp_path):
    # NaN and Infinity are not JSON; a manifest must stay parseable
    with pytest.raises(ValueError):
        _write_manifest(str(tmp_path), {"delta": float("nan")})
    # serialized before the file is opened, so no truncated manifest is left
    assert not (tmp_path / "manifest.json").exists()


def _run_child(code: str, cwd: Path, **env_vars: str) -> subprocess.CompletedProcess:
    src = str(Path(mfgcoef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


# output hashes of the committed reference dataset's inversions, clean and
# with noise 0.03 from seed 17, at one and two OpenBLAS threads alike
INVERT_HASHES = {
    "clean": {
        "gradient_history": "37f1d9ae177a1f9c749e38ec822a0bda475a30f387f663faeaaa3d32720b90a5",
        "k_comp": "7d92bd35395caaa5be0bc4ded4a5a587e4142c590abb76c3a67dbf2629db8b47",
        "k_comp_csv": "658a37dba700b07778e65c19f797763ab0b7f5eadaf6437832726ccc6ad4a3d4",
        "k_comp_pgm": "934d94dc3fe8e9f67dd6736473f64e6fca4a794644c1229f857c11e356b6bdac",
        "k_comp_pgm_sidecar": "7ffa5c54accf02b54991a6a358975c3f9d6cc4d9b113741847ac5b8c6e93bbf0",
        "k_true": "55a79076b25cce5b06f8731b6176ab50ed1b1f1871613724b103f0b70a646966",
        "m": "de9a52bccf373d16096736a2b2cbf18964060f9118a24d3b2c2cbc2716da4afb",
        "metrics": "3b5a78d81af159dabd9b4b6dbe4042e8b144af8c46cea4f1c85a18807e742816",
        "objective_history": "00abd9e311d67eb8663bb6223556f2783c9c3cbaa4ccd81df1ab12a6366db064",
        "objective_parts": "55f8c908614e88ed9e3c411b967266aff20e4bed6b35f62be0ae4b07cf35981d",
        "u": "e5ce5024edc6d9905369166db9f099b93ecafc45e8f1779646211c1b280ebfe0",
    },
    "noisy": {
        "gradient_history": "9e9145faab656065de02d732b7696446223831d3ca730eee26a95fe8dc58df2c",
        "k_comp": "026432dda3e21722509927eff40945a9e19f5c895182648b70456ea1711d2a8c",
        "k_comp_csv": "44d8d644bcb8d7c28caac8e9f31e2f8fbe775a42b20543b26e86ca1f060c9be3",
        "k_comp_pgm": "681dc2ac6f49ba613ea8e3b1496a77987253eba58ef48b9798975b6bcf42b22c",
        "k_comp_pgm_sidecar": "d5eea0d1f371f532dfab1e5766c11538103491dc13d44c6d15c47627933e6ffc",
        "k_true": "55a79076b25cce5b06f8731b6176ab50ed1b1f1871613724b103f0b70a646966",
        "m": "d5ef6c055353fb4d6483e981f3d7c6da268a97a5a54c99c0bd6779c64b306f7f",
        "metrics": "7b503d62248815b3ea60c7c3a915fbe808e85f945cb92ac96c7d6d38548e97bd",
        "objective_history": "275b08b37d299d8cc81dbe8175a25db31bd2c3ec9dcca6dce1eba72d859a3ca8",
        "objective_parts": "fb46c7c7f06a49e88471ebeaff0e016c5376187c3baf84ea512fed0acbd26fda",
        "u": "f07a60d2a43fc24fdc3989f46c993219c3a7649b35f619cb2d5c89ac4b2667a6",
    },
}
INVERT_ITERATIONS = {"clean": 156, "noisy": 134}


@pytest.mark.parametrize("case, noise", [
    pytest.param("clean", [], id="clean"),
    pytest.param("noisy", ["--delta", "0.03", "--seed", "17"], id="noisy"),
])
def test_invert_does_not_depend_on_the_blas_thread_count(tmp_path, case, noise):
    # the noise fit and the descent give the same bits at one and two
    # OpenBLAS threads, so the reconstruction files hash alike, and as
    # pinned in INVERT_HASHES
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "reference"

    def run(threads):
        out = tmp_path / f"threads{threads}"
        argv = ["invert", str(reference), *noise, "--out", str(out)]
        child = _run_child(
            f"import mfgcoef.cli as cli\nassert cli.main({argv!r}) == 0\n",
            tmp_path, OPENBLAS_NUM_THREADS=str(threads),
        )
        assert child.returncode == 0, child.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        hashes = {name: entry["sha256"] for name, entry in manifest["outputs"].items()}
        return hashes, manifest["iterations"]

    one, two = run(1), run(2)
    assert one[1] == two[1] == INVERT_ITERATIONS[case]
    assert one[0] == two[0] == INVERT_HASHES[case]


def test_generate_observations_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the forward solve gives the same observation bits at one and two
    # OpenBLAS threads, and the pinned ones.  cost and cost_rate are left
    # out: the products of make_s round by the GEMM tiling, so they still
    # differ (ROADMAP item 13's open half)
    def run(threads):
        out = tmp_path / f"threads{threads}"
        argv = ["generate", "--out", str(out)]
        child = _run_child(
            f"import mfgcoef.cli as cli\nassert cli.main({argv!r}) == 0\n",
            tmp_path, OPENBLAS_NUM_THREADS=str(threads),
        )
        assert child.returncode == 0, child.stderr
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        return {name: outputs[name]["sha256"] for name in OBSERVATION_FIELDS}

    assert run(1) == run(2) == {
        "v0": "827baea83d91496511bd3e2834b3eeda1d395b745888722639bfdf8873c86cbd",
        "p0": "73c413b9c366e1b74cce80c6463aa507172d91986d59cdbf13111a9c346ce05a",
        "g01": "f159395bf4b2fdc3e9c7976c44d4d879b0921b2a2afcee72d639b3a088f631ae",
        "g02": "d184e4ef64b20bad4dafadd74468aa7c80d1969af371d97ccac088a1db519f4f",
        "g11": "2295564cc76ea664b93e3f74ab750d2dc9e7d599d310fe0d7edfde28d47c96d8",
        "g12": "c6dabf7440cd652b96e37deefff965aa49680c678c0e4c907978d37814652bac",
    }


def test_verify_carleman_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the forms are summed piece by piece in a fixed order, so the report
    # hashes alike at one and two OpenBLAS threads, and as pinned
    def run(threads):
        out = tmp_path / f"threads{threads}"
        argv = ["verify-carleman", "--seed", "7", "--out", str(out)]
        child = _run_child(
            f"import mfgcoef.cli as cli\nassert cli.main({argv!r}) == 0\n",
            tmp_path, OPENBLAS_NUM_THREADS=str(threads),
        )
        assert child.returncode == 0, child.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        return {name: entry["sha256"] for name, entry in manifest["outputs"].items()}

    assert run(1) == run(2) == {
        "report": "54afa1a99374ecb642c8d506bb8f9de6cc07d17d0a3a47f8fb39056088f47b3c",
    }


# the layers that solve and descend; the commands that run neither load none
SOLVER_MODULES = ("forward", "objective", "inverse", "noise", "pipeline")


@pytest.fixture(scope="module")
def commands_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("commands")


@pytest.fixture(scope="module")
def command_modules(commands_dir):
    """Each command run once in a fresh child, with every module it loaded.

    ``generate`` runs the default config, the grids the benchmark times:
    some numpy functions take another path on larger inputs, and the
    smoke grids would not reach it.  Its dataset is left in ``ds``.
    """
    data = Path(__file__).resolve().parents[1] / "benchmarks" / "data"
    smoke = str(data / "smoke.ini")
    commands = {
        "verify-carleman": ["verify-carleman", "--trials", "2", "--seed", "1", "--out", "carl"],
        "invert": ["invert", str(data / "smoke"), "--delta", "0.03", "--config", smoke,
                   "--out", "inv"],
        "clean invert": ["invert", str(data / "reference"), "--out", "clean"],
        "generate": ["generate", "--out", "ds"],
    }
    loaded = {}
    for command, argv in commands.items():
        child = _run_child(
            "import sys\n"
            "import mfgcoef.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n",
            commands_dir,
        )
        assert child.returncode == 0, child.stderr
        loaded[command] = child.stdout.splitlines()[-1].split()
    return loaded


def test_imports_load_only_the_layers_they_need(tmp_path, command_modules):
    # the package root re-exports nothing, the certification stands on the
    # grid alone, the inverse half reads the observation record from the
    # grid and not from the forward solver, and the command layer and the
    # pipeline load each solver only in the commands that run it
    def loaded(module):
        child = _run_child(
            "import sys\n"
            f"import {module}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mfgcoef'))\n",
            tmp_path,
        )
        assert child.returncode == 0, child.stderr
        return child.stdout.splitlines()[-1]

    assert loaded("mfgcoef") == "['mfgcoef']"
    assert loaded("mfgcoef.carleman") == "['mfgcoef', 'mfgcoef.carleman', 'mfgcoef.grid']"
    assert loaded("mfgcoef.cli") == str(["mfgcoef"] + [
        f"mfgcoef.{name}" for name in ("carleman", "cli", "config", "fieldio", "grid", "phantoms")
    ])
    config = loaded("mfgcoef.config")
    assert not [name for name in SOLVER_MODULES if f"'mfgcoef.{name}'" in config], config
    for module in ("noise", "objective", "inverse"):
        assert "'mfgcoef.forward'" not in loaded(f"mfgcoef.{module}"), module
    solvers = {
        command: {name for name in SOLVER_MODULES if f"mfgcoef.{name}" in modules}
        for command, modules in command_modules.items()
    }
    assert solvers == {
        "verify-carleman": set(),
        "invert": {"objective", "inverse", "noise", "pipeline"},
        "clean invert": {"objective", "inverse", "noise", "pipeline"},
        "generate": {"forward", "pipeline"},
    }
    # only the commands that draw random numbers load the streams
    drawing = {command for command, modules in command_modules.items()
               if "mfgcoef.streams" in modules}
    assert drawing == {"verify-carleman", "invert"}


# scipy is a test-only dependency; numpy.polynomial costs about 0.9 MiB of
# resident memory, and the Gauss rule of the certification is built
# without it; numpy.ma, which np.median, np.unique and the sort path of
# np.isin load, costs about 1 MiB and 16 ms of start-up; _hashlib maps
# OpenSSL's libcrypto, about 3.6 MiB, and the output hashes use the
# interpreter's own SHA-256; numpy.random, with secrets -> hmac ->
# _hashlib, costs about 6 MiB and 12 ms, and the noise and the
# certification draw from mfgcoef.streams; fractions, with decimal,
# costs about 0.44 MiB
@pytest.mark.parametrize(
    "package", ["scipy", "numpy.polynomial", "numpy.ma", "numpy.random", "secrets", "fractions",
                "_hashlib"],
)
def test_no_command_loads(command_modules, package):
    for command, modules in command_modules.items():
        assert not [m for m in modules if (m + ".").startswith(package + ".")], command


def test_output_hash_is_hashlibs_sha256(tmp_path):
    # an empty file, and files on either side of the 1 MiB read chunk
    rng = np.random.default_rng(0)
    for size in (0, 1 << 20, (1 << 20) + 1):
        data = rng.bytes(size)
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data)
        assert _sha256(str(path)) == hashlib.sha256(data).hexdigest(), size


def test_default_generate_manifest_hashes_are_hashlibs(commands_dir, command_modules):
    # command_modules has run the default generate into commands_dir / "ds"
    outputs = json.loads((commands_dir / "ds" / "manifest.json").read_text())["outputs"]
    assert len(outputs) == 8
    for name, entry in outputs.items():
        data = (commands_dir / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest(), name


@pytest.mark.skipif(
    os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="no mallopt in the C library",
)
def test_invert_does_not_fault_its_pass_temporaries_back_in(tmp_path):
    # at glibc's default thresholds the heap that each objective pass frees
    # goes back to the kernel and is faulted in again at the next pass:
    # about 44k minor faults for this inversion, against 1.8k with the
    # allocator policy that the commands that descend set
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "reference"
    argv = ["invert", str(reference), "--delta", "0.03", "--seed", "17", "--out", "inv"]
    child = _run_child(
        "import resource\n"
        "import mfgcoef.cli as cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n",
        tmp_path,
    )
    assert child.returncode == 0, child.stderr
    assert int(child.stdout.splitlines()[-1]) < 10_000
