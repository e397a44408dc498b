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
from mfgcoef.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PRECONDITION, main
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
    k = read_field(out / "k_comp.field")
    assert k.values.shape == (21, 21)
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "rel_l2,mask_rel_l2,contrast,converged,iterations"
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
    # datasets written before the kernel and closure options were removed
    old = _with_stored_config(
        dataset, tmp_path / "old", kernel_variant="line_gaussian", outflow_closure="neumann_scaled"
    )
    out = tmp_path / "o"
    assert main(["invert", "--config", str(config), str(old), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metrics"]["rel_l2"] < 0.10
    assert not {"kernel_variant", "outflow_closure"} & set(manifest["config"])


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
    code = main([
        "sweep-lambda", "--config", str(short), str(dataset),
        "--out", str(out), "--lambda", "3,-1",
    ])
    assert code == EXIT_OK
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "lambda,status,rel_l2,contrast,converged"
    # max_iter = 20 stops lam=3 short of grad_tol on this grid
    assert rows[1].startswith("3,unconverged,")
    assert rows[1].endswith(",0")
    assert rows[2].startswith("-1,failed,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"]["3"]["status"] == "unconverged"
    assert manifest["runs"]["3"]["converged"] is False
    assert manifest["runs"]["3"]["stop_reason"] == "max_iter"
    assert manifest["runs"]["3"]["iterations"] == 20
    assert manifest["runs"]["3"]["objective_passes"] > 20
    assert manifest["runs"]["-1"]["status"] == "failed"
    assert (out / "lam_3" / "k_comp.field").exists()


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


def test_verify_carleman_repeated_lambda_reports_no_slope(tmp_path):
    out = tmp_path / "carl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify-carleman", "--out", str(out), "--trials", "2", "--lambda", "2,2"])
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["slope"] is None
    assert "slope" not in (out / "report.txt").read_text()


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


def _run_child(code: str, cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(mfgcoef.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_no_command_loads_scipy(tmp_path):
    # every solver is numpy-only, so a fresh interpreter running any
    # command, generation included, must not pay for importing scipy
    data = Path(__file__).resolve().parents[1] / "benchmarks" / "data"
    smoke = str(data / "smoke.ini")

    def scipy_loaded(argv):
        child = _run_child(
            "import sys\n"
            "import mfgcoef.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n",
            tmp_path,
        )
        assert child.returncode == 0, child.stderr
        return child.stdout.splitlines()[-1]

    certify = ["verify-carleman", "--trials", "2", "--seed", "1", "--out", "carl"]
    assert scipy_loaded(certify) == "[]"
    noisy = ["invert", str(data / "smoke"), "--delta", "0.03", "--config", smoke, "--out", "inv"]
    assert scipy_loaded(noisy) == "[]"
    assert scipy_loaded(["generate", "--config", smoke, "--out", "ds"]) == "[]"
