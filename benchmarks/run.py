#!/usr/bin/env python3
"""Benchmark of the mfgcoef command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload invert-noisy --seed 1 --seconds 40 --trace 0

Each timed command is a fresh ``python -m mfgcoef.cli`` child run against
the checkout's own ``src``, one at a time, so nothing cached in a process
carries over between commands.  Every command's outputs are checked; a
failed check is a failed op.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the command once untraced and once under
``trace_child.py`` and reports the per-layer metrics of ``layers.py``.
``--workload all`` runs the four workloads in turn.  ``--smoke`` runs
every path on a small grid in seconds, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a table for people and one JSON line with the machine, every
command's times and the quality of its result.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
WORK = ROOT / ".bench_work"

# Every workload this script runs.  BENCHMARK.json times all but
# invert-clean: invert-noisy runs the same layers but the noiseless-data
# stencil, and on a host whose speed drifts, longer runs of fewer
# workloads hold wall_s steadier (see README.md).
WORKLOADS = ("generate", "invert-clean", "invert-noisy", "certify")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

NOISE_DELTA = "0.03"
# The noise realisation sets the iteration count: over seeds 0-9 the
# quartiles of the iteration count lie 17% of the median apart, which
# would bury any change in wall time.  So every invert-noisy run inverts
# the same realisation, the one the criterion-8 baseline uses.
NOISE_SEED = "17"
CERTIFY_LAMBDAS = "1,2,4,8"
N_LAMBDAS = len(CERTIFY_LAMBDAS.split(","))
# generated fields must match the committed reference to this share of the
# reference's max-norm, field by field
GENERATE_RTOL = 1e-8
# acceptance criterion 5 on the noiseless benchmark
CLEAN_MAX_REL_L2 = 0.30
CLEAN_CONTRAST_RTOL = 0.25
# a run, set-up included, must end within 180 s
RUN_DEADLINE_S = 170.0
SETUP_CODE = "import mfgcoef.cli as cli; cli.build_parser()"
# rounds of a --trace 0 run, even past --seconds: the median of two
# commands is their mean, where one command is one draw of the host's speed
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Scale:
    """Problem size: the dataset inverted and checked against, and counts."""

    dataset: Path
    config: Path | None
    trials: int
    setup_reps: int


FULL = Scale(DATA / "reference", None, trials=100, setup_reps=3)
SMOKE = Scale(DATA / "smoke", DATA / "smoke.ini", trials=2, setup_reps=1)


@dataclass
class Command:
    """One CLI child: its cost, its checked outputs and its op counts."""

    args: list
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    quality: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    trial_ops: int = 0
    trial_failed: int = 0

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def cli_args(workload: str, seed: int, scale: Scale, out: Path) -> list:
    if workload == "generate":
        args = ["generate"]
    elif workload == "invert-clean":
        args = ["invert", str(scale.dataset)]
    elif workload == "invert-noisy":
        args = ["invert", str(scale.dataset), "--delta", NOISE_DELTA, "--seed", NOISE_SEED]
    else:
        args = ["verify-carleman", "--lambda", CERTIFY_LAMBDAS,
                "--trials", str(scale.trials), "--seed", str(seed)]
    if scale.config is not None:
        args += ["--config", str(scale.config)]
    return args + ["--out", str(out)]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv, cwd: Path, log: Path, deadline: float):
    """Run a child to completion; return (wall s, exit code, its rusage)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=sink,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            # set before the timer is cancelled, so a late kill is a no-op
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return wall, proc.returncode, usage


def measure_setup(reps: int, work: Path, deadline: float, warm: bool = False) -> list:
    """Wall times of fresh children that import the CLI and build its parser.

    With ``warm``, one more child runs first, untimed: it only fills the
    bytecode cache.
    """
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(reps + warm):
        wall, code, _ = spawn(argv, work, work / "setup.log", deadline)
        if code != 0:
            raise RuntimeError(f"importing mfgcoef.cli failed with exit code {code}: "
                               + (work / "setup.log").read_text(errors="replace")[-400:])
        if i or not warm:
            times.append(wall)
    return times


def _read_json(path: Path) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _output_hashes(manifest: dict) -> dict:
    # paths differ from run to run; the bytes must not
    return {name: entry["sha256"] for name, entry in manifest["outputs"].items()}


def check_generate(cmd: Command, out: Path, scale: Scale) -> None:
    from mfgcoef.fieldio import read_field
    import numpy as np

    manifest = _read_json(out / "manifest.json")
    cmd.hashes = _output_hashes(manifest)
    worst = 0.0
    for name in _read_json(scale.dataset / "manifest.json")["outputs"]:
        got = read_field(out / f"{name}.field").values
        ref = read_field(scale.dataset / f"{name}.field").values
        if got.shape != ref.shape:
            cmd.problems.append(f"{name}: shape {got.shape}, reference {ref.shape}")
            continue
        worst = max(worst, float(np.abs(got - ref).max() / np.abs(ref).max()))
    cmd.quality = {
        "dataset_max_rel_diff": worst,
        "min_density": manifest["measurements"]["min_density"],
    }
    if not worst <= GENERATE_RTOL:
        cmd.problems.append(
            f"dataset differs from the reference by {worst:.3e} > {GENERATE_RTOL:g}")


def check_invert(cmd: Command, out: Path, scale: Scale, clean: bool) -> None:
    from mfgcoef.fieldio import read_field
    import numpy as np

    manifest = _read_json(out / "manifest.json")
    cmd.hashes = _output_hashes(manifest)
    with open(out / "metrics.csv", encoding="ascii") as fh:
        header, row = (line.strip().split(",") for line in fh.readlines()[:2])
    metrics = dict(zip(header, row))
    history = np.loadtxt(out / "objective_history.csv", delimiter=",", skiprows=1, ndmin=2)
    cmd.quality = {
        "rel_l2": float(metrics["rel_l2"]),
        "mask_rel_l2": float(metrics["mask_rel_l2"]),
        "contrast": float(metrics["contrast"]),
        "iterations": int(metrics["iterations"]),
        "converged": metrics["converged"] == "1",
        "final_gradient_max": manifest["final_gradient_max"],
    }
    if not cmd.quality["converged"]:
        cmd.problems.append(f"descent stopped unconverged after "
                            f"{cmd.quality['iterations']} iterations")
    if not np.isfinite(read_field(out / "k_comp.field").values).all():
        cmd.problems.append("k_comp has non-finite values")
    if not (np.diff(history[:, 1]) < 0).all():
        cmd.problems.append("objective history is not strictly decreasing")
    if clean:
        truth = _read_json(scale.dataset / "manifest.json")["config"]["contrast"]
        if not cmd.quality["rel_l2"] <= CLEAN_MAX_REL_L2:
            cmd.problems.append(f"rel_l2 {cmd.quality['rel_l2']:.4f} > {CLEAN_MAX_REL_L2}")
        if not abs(cmd.quality["contrast"] - truth) <= CLEAN_CONTRAST_RTOL * truth:
            cmd.problems.append(f"contrast {cmd.quality['contrast']:.4f} is more than "
                                f"{CLEAN_CONTRAST_RTOL:.0%} from {truth}")


def check_certify(cmd: Command, out: Path, scale: Scale) -> None:
    manifest = _read_json(out / "manifest.json")
    cmd.hashes = _output_hashes(manifest)
    with open(out / "report.txt", encoding="ascii") as fh:
        statuses = [line.split()[-1] for line in fh.readlines()[1:] if not line.startswith("#")]
    expected = scale.trials * N_LAMBDAS
    cmd.trial_ops = max(len(statuses), expected)
    cmd.trial_failed = cmd.trial_ops - statuses.count("holds")
    cmd.quality = {"trials": len(statuses), "holds": statuses.count("holds"),
                   "slope": manifest["slope"]}
    if cmd.trial_failed:
        cmd.problems.append(f"{cmd.trial_failed} of {expected} trials did not hold")


def check(workload: str, cmd: Command, out: Path, scale: Scale) -> None:
    """Fill the command's quality, output hashes and problems."""
    try:
        if workload == "generate":
            check_generate(cmd, out, scale)
        elif workload == "certify":
            check_certify(cmd, out, scale)
        else:
            check_invert(cmd, out, scale, clean=workload == "invert-clean")
    except (OSError, KeyError, IndexError, ValueError) as exc:
        cmd.problems.append(f"outputs unreadable: {exc!r}")


def run_command(workload: str, seed: int, scale: Scale, work: Path, index: int,
                deadline: float, spans: Path | None = None) -> Command:
    out = work / f"out{index}"
    args = cli_args(workload, seed, scale, out)
    if spans is None:
        argv = [sys.executable, "-m", "mfgcoef.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "trace_child.py"), str(spans), *args]
    log = work / f"out{index}.log"
    wall, code, usage = spawn(argv, work, log, deadline)
    cmd = Command(args=args[:-2], traced=spans is not None, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mib=usage.ru_maxrss / 1024.0, exit_code=code)
    if code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        cmd.problems.append(f"exit code {code}: " + " | ".join(tail))
    if (out / "manifest.json").exists():
        check(workload, cmd, out, scale)
    elif workload == "certify":
        cmd.trial_ops = cmd.trial_failed = scale.trials * N_LAMBDAS
    return cmd


def check_determinism(commands) -> None:
    """Same arguments and seed must give byte-identical outputs."""
    first = commands[0]
    for cmd in commands[1:]:
        if cmd.hashes and first.hashes and cmd.hashes != first.hashes:
            differ = sorted(k for k in set(cmd.hashes) | set(first.hashes)
                            if cmd.hashes.get(k) != first.hashes.get(k))
            cmd.problems.append("outputs differ from the first run with the same seed: "
                                + ", ".join(differ))


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    commands: list
    setup_s: list
    metrics: dict

    @property
    def attempted(self) -> int:
        return sum(1 + c.trial_ops for c in self.commands)

    @property
    def failed(self) -> int:
        return sum(int(c.failed) + c.trial_failed for c in self.commands)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: Scale) -> Result:
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        setup = measure_setup(0, work, deadline, warm=True)
        commands = []
        if trace:
            setup += measure_setup(scale.setup_reps, work, deadline)
            commands.append(run_command(workload, seed, scale, work, 0, deadline))
            spans_path = work / "spans.json"
            commands.append(run_command(workload, seed, scale, work, 1, deadline, spans_path))
            spans = _read_json(spans_path) if spans_path.exists() else []
            metrics = layers.layer_metrics(spans, commands[1].wall_s, commands[0].wall_s)
            units = layers.PER_LAYER
        else:
            # Rounds of set-up children and one command, so that both sample
            # the whole run, not one stretch of it: the host's speed drifts
            # by tens of percent over tens of seconds.  After MIN_ROUNDS,
            # repeat while one more round, as long as the last, fits the
            # budget; always stop if it would not fit the deadline.
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                setup += measure_setup(scale.setup_reps, work, deadline)
                commands.append(run_command(workload, seed, scale, work,
                                            len(commands), deadline))
                now = time.perf_counter()
                last = now - round_start
                if time.monotonic() + last > deadline or (
                        len(commands) >= MIN_ROUNDS and now - start + last > seconds):
                    break
            metrics = {
                "wall_s": statistics.median(c.wall_s for c in commands),
                "setup_s": statistics.median(setup),
                "peak_rss_mib": statistics.median(c.peak_rss_mib for c in commands),
            }
            units = END_TO_END
        check_determinism(commands)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return Result(workload, seed, trace, commands, setup,
                  {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()})


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process."""
    import numpy  # noqa: F401  (loads the BLAS libraries)
    import scipy.linalg  # noqa: F401

    threads = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return threads
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[os.path.basename(lib)] = getattr(handle, symbol)()
                break
    return threads


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(result: Result) -> None:
    cmds = result.commands
    print(f"== {result.workload}  seed {result.seed}  trace {int(result.trace)}  "
          f"commands {len(cmds)}  ops attempted {result.attempted}  failed {result.failed}")
    for name, metric in result.metrics.items():
        samples = len(result.setup_s) if name == "setup_s" else len(cmds)
        note = f"  median of {samples}" if not result.trace else ""
        print(f"  {name:38s} {_fmt(metric['value']):>14s} {metric['unit']}{note}")
    for c in cmds:
        quality = " ".join(f"{k}={_fmt(v)}" for k, v in c.quality.items())
        status = "FAILED " + "; ".join(c.problems) if c.failed else "ok"
        print(f"  {'traced' if c.traced else 'command'} {c.wall_s:.3f} s "
              f"{c.peak_rss_mib:.1f} MiB  {quality}  {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for timed commands; at least one runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small grid and few trials, for the benchmark's own tests")
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    if not (SRC / "mfgcoef" / "cli.py").is_file():
        print(f"error: no mfgcoef sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), scale)
        print_table(result)
        results.append(result)
    print(json.dumps({
        "machine": machine_info(),
        "runs": [{
            "workload": r.workload, "seed": r.seed, "trace": r.trace,
            "setup_s": r.setup_s, "metrics": r.metrics,
            "commands": [{
                "args": c.args, "traced": c.traced, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                "peak_rss_mib": c.peak_rss_mib, "exit_code": c.exit_code,
                "quality": c.quality, "problems": c.problems,
            } for c in r.commands],
        } for r in results],
    }))
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}.{name}": m for r in results for name, m in r.metrics.items()}
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
