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
from mfgcoef.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PRECONDITION, _write_manifest, main
from mfgcoef.fieldio import read_field, read_pgm, write_field
from mfgcoef.grid import SPATIAL, Field, SpaceTimeGrid

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


@pytest.mark.parametrize("name", ["cost", "cost_rate"])
def test_invert_rejects_cost_fields_on_another_grid(workspace, tmp_path, name):
    # same node counts, so the values have the observations' shape; only
    # the grid line of the container says they belong to another slab
    root, config, dataset = workspace
    moved = tmp_path / "moved"
    shutil.copytree(dataset, moved)
    f = read_field(moved / f"{name}.field")
    g = f.grid
    other = SpaceTimeGrid(a=-3.0, b=g.b, half_width=g.half_width, horizon=5.0,
                          n1=g.n1, n2=g.n2, nt=g.nt)
    write_field(moved / f"{name}.field", Field(other, f.rank, f.values))
    code = main(["invert", "--config", str(config), str(moved), "--out", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION
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
], ids=["counts-disagree-with-payload", "non-numeric-counts", "non-numeric-version",
        "short-grid-line", "unknown-rank"])
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
], ids=[
    "duplicate-key", "no-section-header", "negative-beta", "overflowing-lambda",
    "step0", "shrink", "precondition", "nonpositive-b", "weight-peaks-at-a",
    "density-offset",
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


def _run_child(code: str, cwd: Path, **env_vars: str) -> subprocess.CompletedProcess:
    src = str(Path(mfgcoef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env_vars)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_noisy_invert_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the noise fit and the descent give the same bits at one and two
    # OpenBLAS threads, so the reconstruction files hash alike
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "reference"

    def run(threads):
        out = tmp_path / f"threads{threads}"
        argv = ["invert", str(reference), "--delta", "0.03", "--seed", "17", "--out", str(out)]
        child = _run_child(
            f"import mfgcoef.cli as cli\nassert cli.main({argv!r}) == 0\n",
            tmp_path, OPENBLAS_NUM_THREADS=str(threads),
        )
        assert child.returncode == 0, child.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        hashes = {name: entry["sha256"] for name, entry in manifest["outputs"].items()}
        return hashes, manifest["iterations"]

    one, two = run(1), run(2)
    assert one[1] == two[1]
    assert one[0] == two[0]


def test_verify_carleman_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the forms are summed piece by piece in a fixed order, so the report
    # hashes alike at one and two OpenBLAS threads
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

    assert run(1) == run(2)


def test_imports_load_only_the_layers_they_need(tmp_path):
    # the package root re-exports nothing, and the certification stands on
    # the grid alone
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


def _commands_and_what_they_load(tmp_path, package):
    """Each command run in a fresh child, with the modules of package it loaded."""
    data = Path(__file__).resolve().parents[1] / "benchmarks" / "data"
    smoke = str(data / "smoke.ini")
    commands = [
        ["verify-carleman", "--trials", "2", "--seed", "1", "--out", "carl"],
        ["invert", str(data / "smoke"), "--delta", "0.03", "--config", smoke, "--out", "inv"],
        ["generate", "--config", smoke, "--out", "ds"],
    ]
    for argv in commands:
        child = _run_child(
            "import sys\n"
            "import mfgcoef.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))\n",
            tmp_path,
        )
        assert child.returncode == 0, child.stderr
        yield argv[0], child.stdout.splitlines()[-1]


def test_no_command_loads_scipy(tmp_path):
    # every solver is numpy-only, so a fresh interpreter running any
    # command, generation included, must not pay for importing scipy
    for command, loaded in _commands_and_what_they_load(tmp_path, "scipy"):
        assert loaded == "[]", command


def test_no_command_loads_numpy_polynomial(tmp_path):
    # importing numpy.polynomial costs about 0.9 MiB of resident memory;
    # the Gauss rule of the certification is built without it
    for command, loaded in _commands_and_what_they_load(tmp_path, "numpy.polynomial"):
        assert loaded == "[]", command
