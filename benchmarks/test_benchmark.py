"""Tests of the benchmark itself: span arithmetic, checks, output schema.

Run from the root of the checkout:  python3 -m pytest benchmarks -q
The workload tests use ``--smoke`` (small grid, two certification
trials), so the whole module takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import run

HERE = Path(__file__).resolve().parent
# the output checks read fields with the program's own reader
sys.path.insert(0, str(run.SRC))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a: counted once
        ["a.child", 2.0, 3.0, 1, None],
        ["late", 9.0, 12.0, 0, None],  # clipped to the parent's end
    ]
    assert layers.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_counts_and_ratios():
    descent = {"iterations": 2, "final_grad_max": 0.5, "converged": True}
    spans = [
        ["pipeline.run_inversion", 0.0, 10.0, -1, None],
        ["inverse.descend", 1.0, 9.0, 0, descent],
        ["objective.evaluate", 1.0, 2.0, 1, None],
        ["objective.gradient", 2.0, 4.0, 1, None],
        ["grid.h2_norm_sq_gradient", 2.5, 3.0, 3, None],
        ["objective.evaluate", 4.0, 5.0, 1, None],
        ["objective.gradient", 5.0, 7.0, 1, None],
        ["objective.evaluate", 7.0, 8.0, 1, None],
        ["carleman.check", 10.0, 10.5, -1, {"levels": 7, "start_level": 6, "holds": True}],
        ["carleman.check", 10.5, 11.0, -1, {"levels": 6, "start_level": 6, "holds": False}],
    ]
    m = layers.layer_metrics(spans, traced_wall_s=12.0, untraced_wall_s=11.5)
    assert set(m) == set(layers.PER_LAYER)
    assert m["objective.evaluate.calls"] == 3
    assert m["objective.passes"] == 5
    assert m["objective.gradient.ms_per_call"] == pytest.approx(2000.0)
    assert m["objective.self_s"] == pytest.approx(6.5)
    assert m["objective.share"] == pytest.approx(0.7)
    assert m["grid.h2.share"] == pytest.approx(0.05)
    assert m["inverse.accept_ratio"] == pytest.approx(1.0)
    assert m["inverse.descend.self_s"] == pytest.approx(1.0)
    assert m["carleman.levels_mean"] == pytest.approx(6.5)
    assert m["carleman.quad_points"] == pytest.approx(((65 + 129) + 65) / 2)
    assert m["carleman.not_holding"] == 1
    assert m["cli.other_s"] == pytest.approx(1.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [
        w for w in run.WORKLOADS if w != "invert-clean"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_differing_outputs_fail_the_determinism_check():
    def command(digest):
        return run.Command(args=[], traced=False, wall_s=1.0, cpu_s=1.0, peak_rss_mib=1.0,
                           exit_code=0, hashes={"k_comp": digest, "m": "same"})

    commands = [command("aa"), command("aa"), command("bb")]
    run.check_determinism(commands)
    assert [c.failed for c in commands] == [False, False, True]
    assert "k_comp" in commands[2].problems[0]


def test_unconverged_inversion_is_a_failed_op(tmp_path):
    config = tmp_path / "short.ini"
    config.write_text("[solver]\nmax_iter = 3\n")
    scale = run.Scale(run.SMOKE.dataset, config, trials=2, setup_reps=1)
    cmd = run.run_command("invert-clean", 0, scale, tmp_path, 0,
                          deadline=time.monotonic() + 120)
    assert cmd.exit_code == 0
    assert cmd.failed
    assert cmd.quality["converged"] is False
    assert any("unconverged" in p for p in cmd.problems)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_the_contract_line(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (1 + trace) * (9 if workload == "certify" else 1)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "generate", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_all_workloads_report_from_one_command():
    proc = _bench("--workload", "all", "--seed", "2", "--seconds", "1", "--trace", "0",
                  "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in run.WORKLOADS for m in SPEC["end_to_end"]}
    for workload in run.WORKLOADS:
        assert f"== {workload} " in proc.stdout
