"""Command-line experiment runner.

Five subcommands cover the benchmark workflow: ``generate`` produces a
dataset directory, ``invert`` reconstructs a coefficient from one,
``sweep-lambda`` repeats the inversion across weight strengths,
``verify-carleman`` certifies the weighted integral inequality, and
``render`` turns stored fields into heatmaps.  Every command writes a
JSON manifest with the full configuration echo, library versions, input
hashes and output hashes, so a run can be reproduced from the manifest
alone.

Exit codes: 0 on success, 2 for configuration and precondition errors,
3 for numerical failures (stalled descent, violated certification,
denominator bound, a density step that does not converge).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .carleman import ratio_log_slope, run_certification, validate_lambdas
from .config import ExperimentConfig, load_config, stored_setting
from .fieldio import read_field, write_csv, write_field, write_pgm
from .forward import OBSERVATION_FIELDS, ObservationData
from .grid import SPACE_TIME, SPATIAL, DenominatorError, Field, InteractionOperator
from .phantoms import LETTERS
from .pipeline import run_generation, run_inversion

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3

DATASET_FIELDS = OBSERVATION_FIELDS + ("cost", "cost_rate")

# config fields an inversion must inherit from the dataset it reads,
# so the two halves of a run cannot silently disagree
DATASET_BOUND_FIELDS = (
    "a", "b", "half_width", "horizon", "fine", "coarse",
    "sigma", "letter", "contrast",
)


class NumericalFailure(RuntimeError):
    """A run that started fine but failed on the numbers."""


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mfgcoef": __version__,
    }


def _prepare_out(path: str, force: bool) -> None:
    os.makedirs(path, exist_ok=True)
    if os.listdir(path) and not force:
        raise ValueError(
            f"output directory {path!r} is not empty; pass --force to overwrite"
        )


def _write_manifest(out_dir: str, payload: dict) -> str:
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _write_rows(path: str, header: str, rows) -> None:
    """A CSV file: the header line, then one line per row.

    A string cell is written as it is, an integer in decimal and any other
    number to 17 significant digits, so every float reads back exactly.
    """
    def cell(value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(value)
        return f"{value:.17g}"

    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(cell(value) for value in row) + "\n")


def _hash_map(paths: dict) -> dict:
    return {name: {"path": p, "sha256": _sha256(p)} for name, p in paths.items()}


# config overrides, each registered only on the subcommands that read it
OVERRIDE_FLAGS = {
    "seed": dict(type=int, help="seed override: the noise stream of an inversion, "
                 "the random profiles of a certification"),
    "delta": dict(type=float, help="relative noise level override"),
    "letter": dict(choices=LETTERS, help="phantom letter override"),
    "contrast": dict(type=float, help="inside value override"),
}


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for name in OVERRIDE_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "out", None):
        overrides["output_root"] = args.out
    if overrides:
        cfg = cfg.replace(**overrides)
    cfg.validate()
    return cfg


def _out_dir(args, cfg: ExperimentConfig, default_name: str) -> str:
    return args.out if args.out else os.path.join(cfg.output_root, default_name)


def _dataset_paths(dataset_dir: str) -> dict:
    return {name: os.path.join(dataset_dir, name + ".field") for name in DATASET_FIELDS}


def _read_dataset(dataset_dir: str, cfg: ExperimentConfig):
    """A dataset's observations, cost and rate, and ``cfg`` bound to it.

    Returns ``(cfg, obs, cost, cost_rate, paths)``: ``cfg`` takes the
    dataset's ``DATASET_BOUND_FIELDS`` from its manifest and is validated.
    Every error that a malformed manifest or field file raises names that
    file.
    """
    manifest_path = os.path.join(dataset_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ValueError(f"dataset {dataset_dir!r} has no manifest.json")
    try:
        with open(manifest_path, "r", encoding="ascii") as fh:
            cfg = _adopt_dataset_config(cfg, json.load(fh))
        cfg.validate()
    except (ValueError, TypeError) as exc:
        raise ValueError(f"dataset manifest {manifest_path}: {exc}") from None
    paths = _dataset_paths(dataset_dir)
    fields = {}
    for name, path in paths.items():
        if not os.path.exists(path):
            raise ValueError(f"dataset {dataset_dir!r} is missing {name}.field")
        fields[name] = read_field(path)
    obs = ObservationData(
        grid=fields["v0"].grid, **{name: fields[name] for name in OBSERVATION_FIELDS}
    )
    for name in ("cost", "cost_rate"):
        if fields[name].rank != SPACE_TIME or fields[name].grid != obs.grid:
            raise ValueError(
                f"dataset {dataset_dir!r}: {name}.field must be a space-time field "
                "on the observations' grid"
            )
    return cfg, obs, fields["cost"].values, fields["cost_rate"].values, paths


def _adopt_dataset_config(cfg: ExperimentConfig, manifest) -> ExperimentConfig:
    # keys outside DATASET_BOUND_FIELDS are not read, so the retired ones
    # (step0, shrink, precondition, density_offset) load as before
    stored = manifest.get("config", {}) if isinstance(manifest, dict) else None
    if not isinstance(stored, dict):
        raise ValueError("expected a JSON object whose 'config' is an object")
    # older manifests name the kernel; only the line Gaussian one exists
    variant = stored.get("kernel_variant", "line_gaussian")
    if variant != "line_gaussian":
        raise ValueError(
            f"dataset was generated with the {variant!r} kernel; "
            "only the line_gaussian kernel is supported"
        )
    changes = {}
    for name in DATASET_BOUND_FIELDS:
        if name in stored:
            changes[name] = stored_setting(name, stored[name])
    return cfg.replace(**changes) if changes else cfg


def cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    out = _out_dir(args, cfg, "dataset")
    _prepare_out(out, args.force)
    data = run_generation(cfg)
    obs = data.observations
    paths = _dataset_paths(out)
    for name, field in obs.fields().items():
        write_field(paths[name], field)
    coarse = obs.grid
    write_field(paths["cost"], Field(coarse, SPACE_TIME, data.cost_coarse))
    write_field(paths["cost_rate"], Field(coarse, SPACE_TIME, data.cost_rate_coarse))
    denom = InteractionOperator(coarse, cfg.sigma).denominator(obs.p0.values)
    _write_manifest(out, {
        "command": "generate",
        "config": cfg.to_dict(),
        "versions": _versions(),
        "measurements": {
            "min_density": data.min_density,
            "preconditioned_sweeps": data.preconditioned_sweeps,
            "krylov_steps": data.krylov_steps,
            "denominator_min_abs": float(np.abs(denom).min()),
        },
        "outputs": _hash_map(paths),
    })
    print(f"dataset written to {out}")
    return EXIT_OK


def _invert_core(cfg: ExperimentConfig, obs, cost, cost_rate, out: str) -> dict:
    """Shared by invert and the sweep: run, persist, return the summary row."""
    try:
        outcome = run_inversion(cfg, obs, cost, cost_rate)
    except DenominatorError as exc:
        # raised where the objective divides by the interaction of its p0,
        # which for noisy data is the fitted slice
        raise NumericalFailure(str(exc))
    result = outcome.result

    paths = {
        "k_comp": os.path.join(out, "k_comp.field"),
        "k_comp_csv": os.path.join(out, "k_comp.csv"),
        "k_comp_pgm": os.path.join(out, "k_comp.pgm"),
        "k_true": os.path.join(out, "k_true.field"),
        "u": os.path.join(out, "u.field"),
        "m": os.path.join(out, "m.field"),
        "metrics": os.path.join(out, "metrics.csv"),
        "objective_history": os.path.join(out, "objective_history.csv"),
        "objective_parts": os.path.join(out, "objective_parts.csv"),
        "gradient_history": os.path.join(out, "gradient_history.csv"),
    }
    grid = obs.grid
    k_comp = Field(grid, SPATIAL, result.coefficient)
    write_field(paths["k_comp"], k_comp)
    write_csv(paths["k_comp_csv"], k_comp)
    write_pgm(paths["k_comp_pgm"], result.coefficient)
    paths["k_comp_pgm_sidecar"] = paths["k_comp_pgm"] + ".json"
    write_field(paths["k_true"], outcome.k_true)
    write_field(paths["u"], Field(grid, SPACE_TIME, result.iterate[0]))
    write_field(paths["m"], Field(grid, SPACE_TIME, result.iterate[1]))
    metrics = outcome.metrics
    _write_rows(paths["metrics"], "rel_l2,mask_rel_l2,contrast,converged,iterations", [(
        metrics.rel_l2, metrics.mask_rel_l2, metrics.contrast,
        int(result.converged), result.iterations,
    )])
    _write_rows(paths["objective_history"], "step,objective", enumerate(result.objective_history))
    _write_rows(
        paths["objective_parts"], "step,first,second,smoothness",
        ((i, *row) for i, row in enumerate(result.parts_history)),
    )
    _write_rows(
        paths["gradient_history"], "iteration,gradient_max", enumerate(result.gradient_history)
    )

    return {
        "metrics": {
            "rel_l2": metrics.rel_l2,
            "mask_rel_l2": metrics.mask_rel_l2,
            "contrast": metrics.contrast,
        },
        "start_rel_l2": outcome.start_rel_l2,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "objective_passes": result.objective_passes,
        "final_step": result.final_step,
        "final_objective": float(result.objective_history[-1]),
        "final_gradient_max": float(result.gradient_history[-1]),
        "denominator_min_abs": outcome.denominator_min,
        "unweighted": cfg.lam == 0.0,
        "outputs": _hash_map(paths),
    }


def cmd_invert(args) -> int:
    cfg = _config_from_args(args)
    cfg, obs, cost, cost_rate, ds_paths = _read_dataset(args.dataset, cfg)
    out = _out_dir(args, cfg, "invert")
    _prepare_out(out, args.force)
    summary = _invert_core(cfg, obs, cost, cost_rate, out)
    _write_manifest(out, {
        "command": "invert",
        "config": cfg.to_dict(),
        "versions": _versions(),
        "inputs": _hash_map(ds_paths),
        **summary,
    })
    m = summary["metrics"]
    print(
        f"rel_l2={m['rel_l2']:.4f} contrast={m['contrast']:.3f} "
        f"converged={summary['converged']} -> {out}"
    )
    return EXIT_OK


def cmd_sweep_lambda(args) -> int:
    cfg = _config_from_args(args)
    if not args.lam_list:
        raise ValueError("--lambda needs at least one value")
    for lam in args.lam_list:
        cfg.replace(lam=lam).validate()
    # each run is stored under its lambda's name, so names must not repeat
    names = [f"{lam:g}" for lam in args.lam_list]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"--lambda values share the run name lam_{repeated[0]}")
    cfg, obs, cost, cost_rate, ds_paths = _read_dataset(args.dataset, cfg)
    out = _out_dir(args, cfg, "sweep")
    _prepare_out(out, args.force)
    rows = []
    per_lam = {}
    for lam, name in zip(args.lam_list, names):
        sub = os.path.join(out, f"lam_{name}")
        os.makedirs(sub, exist_ok=True)
        try:
            summary = _invert_core(cfg.replace(lam=lam), obs, cost, cost_rate, sub)
        except (ValueError, RuntimeError) as exc:
            rows.append((name, "failed", "", "", ""))
            per_lam[name] = {"status": "failed", "error": str(exc)}
            continue
        m = summary["metrics"]
        status = "ok" if summary["converged"] else "unconverged"
        rows.append((name, status, m["rel_l2"], m["contrast"], int(summary["converged"])))
        per_lam[name] = {"status": status, **summary}
    summary_path = os.path.join(out, "summary.csv")
    _write_rows(summary_path, "lambda,status,rel_l2,contrast,converged", rows)
    _write_manifest(out, {
        "command": "sweep-lambda",
        "config": cfg.to_dict(),
        "lambdas": list(args.lam_list),
        "versions": _versions(),
        "inputs": _hash_map(ds_paths),
        "runs": per_lam,
        "outputs": _hash_map({"summary": summary_path}),
    })
    print(f"sweep summary in {summary_path}")
    return EXIT_OK


def cmd_verify_carleman(args) -> int:
    cfg = _config_from_args(args)
    lambdas = args.lam_list
    if not lambdas:
        raise ValueError("--lambda needs at least one value")
    validate_lambdas(lambdas)
    if args.trials < 1:
        raise ValueError(f"certification needs --trials >= 1, got {args.trials}")
    out = _out_dir(args, cfg, "carleman")
    _prepare_out(out, args.force)
    result = run_certification(
        seed=cfg.seed, n_trials=args.trials, lambdas=lambdas,
        d=cfg.half_width, alpha=cfg.alpha,
    )
    slope = ratio_log_slope(lambdas, d=cfg.half_width, alpha=cfg.alpha)
    report_path = os.path.join(out, "report.txt")
    counts = {
        status: int(np.count_nonzero(result.status == status))
        for status in ("holds", "violated", "inconclusive")
    }
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write("trial lam lhs rhs margin status\n")
        # rows run profile-major, so a profile's lam rows share its number
        for trial, row in enumerate(zip(result.lhs, result.rhs, result.status)):
            for lam, lhs, rhs, status in zip(lambdas, *row):
                fh.write(
                    f"{trial} {lam:g} {lhs:.12e} {rhs:.12e} "
                    f"{rhs - lhs:.12e} {status}\n"
                )
        fh.write(
            f"# {counts['holds']} hold, {counts['violated']} violated, "
            f"{counts['inconclusive']} inconclusive\n"
        )
        if slope is not None:
            fh.write(f"# sharpened-constant log-log slope {slope:.6f}\n")
    _write_manifest(out, {
        "command": "verify-carleman",
        "config": cfg.to_dict(),
        "lambdas": [float(l) for l in lambdas],
        "trials": args.trials,
        "versions": _versions(),
        "counts": counts,
        "slope": slope,
        "quadrature": {"nodes": list(result.nodes)},
        "outputs": _hash_map({"report": report_path}),
    })
    bad = counts["violated"] + counts["inconclusive"]
    print(f"{counts['holds']} hold, {bad} failures -> {report_path}")
    if bad:
        raise NumericalFailure(
            f"{counts['violated']} certification trials violated the inequality and "
            f"{counts['inconclusive']} were inconclusive (the two quadrature rules "
            "disagreed, or the bound underflowed)"
        )
    return EXIT_OK


def cmd_render(args) -> int:
    field = read_field(args.field)
    if field.rank == SPATIAL:
        if args.slice is not None:
            raise ValueError("--slice applies to space-time fields; this field is spatial")
        values = field.values
        suffix = ""
    elif field.rank == SPACE_TIME:
        if args.slice is None:
            raise ValueError("a space-time field needs --slice t=VALUE")
        t = args.slice
        if not 0.0 <= t <= field.grid.horizon:
            raise ValueError(f"--slice t={t:g} lies outside [0, {field.grid.horizon:g}]")
        idx = int(np.argmin(np.abs(field.grid.t - t)))
        values = field.values[:, :, idx]
        suffix = f"_t{field.grid.t[idx]:g}"
    else:
        raise ValueError(f"cannot render rank {field.rank!r} as a heatmap")
    out = args.out if args.out else (os.path.dirname(os.path.abspath(args.field)))
    os.makedirs(out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.field))[0] + suffix
    pgm_path = os.path.join(out, stem + ".pgm")
    csv_path = os.path.join(out, stem + ".csv")
    write_pgm(pgm_path, values)
    write_csv(csv_path, Field(field.grid, SPATIAL, values))
    print(f"wrote {pgm_path} and {csv_path}")
    return EXIT_OK


def _parse_lambda_list(raw: str):
    parts = [p for p in raw.replace(",", " ").split() if p]
    return [float(p) for p in parts]


def _parse_slice(raw: str) -> float:
    if not raw.startswith("t="):
        raise argparse.ArgumentTypeError(f"expected t=VALUE, got {raw!r}")
    return float(raw[2:])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgcoef",
        description="Coefficient reconstruction benchmarks for the crowd "
        "interaction model: data generation, weighted inversion, sweeps, "
        "certification, rendering.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, overrides, dataset=False):
        p.add_argument("--config", help="INI config file; defaults are the benchmark setup")
        p.add_argument("--out", help="output directory (default: under the output root)")
        p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
        for name in overrides:
            p.add_argument("--" + name, **OVERRIDE_FLAGS[name])
        if dataset:
            p.add_argument("dataset", help="dataset directory from a generate run")

    # an inversion adopts the phantom of its dataset, and generation has no
    # noise, so each command takes only the overrides it reads
    p = sub.add_parser("generate", help="forward-solve the benchmark and write a dataset")
    common(p, ("letter", "contrast"))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("invert", help="reconstruct the coefficient from a dataset")
    common(p, ("delta", "seed"), dataset=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sweep-lambda", help="repeat the inversion across weight strengths")
    common(p, ("delta", "seed"), dataset=True)
    p.add_argument("--lambda", dest="lam_list", type=_parse_lambda_list, required=True,
                   help="comma-separated weight strengths, e.g. 0,1,2,3,4,10")
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("verify-carleman", help="certify the weighted integral inequality")
    common(p, ("seed",))
    p.add_argument("--lambda", dest="lam_list", type=_parse_lambda_list,
                   default=[1.0, 2.0, 4.0, 8.0],
                   help="weight strengths to certify (default 1,2,4,8)")
    p.add_argument("--trials", type=int, default=100, help="random profiles per strength")
    p.set_defaults(func=cmd_verify_carleman)

    p = sub.add_parser("render", help="render a stored field as PGM + CSV")
    p.add_argument("field", help="field container file")
    p.add_argument("--out", help="output directory (default: next to the input)")
    p.add_argument("--slice", type=_parse_slice, help="time slice for space-time fields, t=VALUE")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RuntimeError as exc:
        # NumericalFailure and a stalled descent both land here
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
