"""Layer spans for the traced benchmark run, and the per-layer metrics.

The traced child (``trace_child.py``) wraps the public functions listed
in ``TARGETS`` with ``time.perf_counter`` spans before it calls the CLI.
A span is ``[label, start, end, parent, info]``: ``parent`` is the index
of the enclosing span or -1, and ``info`` holds counts read off the
call's arguments or result (iterations, quadrature levels, bytes).
``layer_metrics`` turns the span list of one command into the numbers
listed in ``PER_LAYER`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from collections import defaultdict


def _steps(arguments, result):
    return {"steps": arguments["spec"].grid.nt - 1}


def _descent(arguments, result):
    return {
        "iterations": int(result.iterations),
        "final_grad_max": float(result.gradient_history[-1]),
        "converged": bool(result.converged),
    }


def _file_bytes(arguments, result):
    path = str(arguments["path"])
    total = os.path.getsize(path)
    # write_pgm leaves a JSON sidecar with the value scaling next to the image
    if os.path.exists(path + ".json"):
        total += os.path.getsize(path + ".json")
    return {"bytes": total}


def _trial(arguments, result):
    return {
        "levels": int(result.levels),
        "start_level": int(arguments["start_level"]),
        "holds": result.status == "holds",
    }


# (module, function, span label, info extractor or None).  An extractor
# gets the call's bound arguments, defaults included, and its result.
# Callers import these functions by name, so the child replaces every
# binding of the same function object in every loaded mfgcoef module.
TARGETS = (
    ("mfgcoef.forward", "solve_density", "forward.solve_density", _steps),
    ("mfgcoef.forward", "spsolve", "forward.linear_solve", None),
    ("mfgcoef.forward", "make_s", "forward.make_s", None),
    ("mfgcoef.forward", "extract_observations", "forward.extract_observations", None),
    ("mfgcoef.forward", "stencil_bundle", "forward.stencil_bundle", None),
    ("mfgcoef.objective", "evaluate", "objective.evaluate", None),
    ("mfgcoef.objective", "gradient", "objective.gradient", None),
    ("mfgcoef.objective", "curvature_diagonal", "objective.curvature_diagonal", None),
    ("mfgcoef.grid", "h2_norm_sq", "grid.h2_norm_sq", None),
    ("mfgcoef.grid", "h2_norm_sq_gradient", "grid.h2_norm_sq_gradient", None),
    ("mfgcoef.inverse", "descend", "inverse.descend", _descent),
    ("mfgcoef.inverse", "project_data_constraints", "inverse.project_data_constraints", None),
    ("mfgcoef.inverse", "reduce_gradient", "inverse.reduce_gradient", None),
    ("mfgcoef.noise", "inject", "noise.inject", None),
    ("mfgcoef.noise", "smooth_observations", "noise.smooth_observations", None),
    ("mfgcoef.pipeline", "build_context", "pipeline.build_context", None),
    ("mfgcoef.pipeline", "run_inversion", "pipeline.run_inversion", None),
    ("mfgcoef.carleman", "volterra_carleman_check", "carleman.check", _trial),
    ("mfgcoef.fieldio", "write_field", "fieldio.write", _file_bytes),
    ("mfgcoef.fieldio", "write_csv", "fieldio.write", _file_bytes),
    ("mfgcoef.fieldio", "write_pgm", "fieldio.write", _file_bytes),
    ("mfgcoef.fieldio", "read_field", "fieldio.read", None),
)


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "forward.solve_density.s": "s",
    "forward.solve_density.ms_per_step": "ms",
    "forward.linear_solve.s": "s",
    "forward.make_s.s": "s",
    "forward.extract_observations.s": "s",
    "forward.stencil_bundle.s": "s",
    "forward.share": "ratio",
    "objective.evaluate.calls": "count",
    "objective.evaluate.ms_per_call": "ms",
    "objective.gradient.calls": "count",
    "objective.gradient.ms_per_call": "ms",
    "objective.passes": "count",
    "objective.self_s": "s",
    "objective.curvature_diagonal.s": "s",
    "objective.share": "ratio",
    "grid.h2_norm_sq.s": "s",
    "grid.h2_norm_sq_gradient.s": "s",
    "grid.h2.share": "ratio",
    "inverse.iterations": "count",
    "inverse.accept_ratio": "ratio",
    "inverse.descend.self_s": "s",
    "inverse.project_data_constraints.s": "s",
    "inverse.reduce_gradient.s": "s",
    "inverse.final_grad_max": "1",
    "noise.inject.s": "s",
    "noise.smooth_observations.s": "s",
    "pipeline.build_context.s": "s",
    "pipeline.run_inversion.s": "s",
    "carleman.trials": "count",
    "carleman.check.ms_per_trial": "ms",
    "carleman.levels_mean": "count",
    "carleman.quad_points": "count",
    "carleman.not_holding": "count",
    "fieldio.write.s": "s",
    "fieldio.read.s": "s",
    "fieldio.bytes_written": "bytes",
    "cli.other_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for label, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def _has_ancestor(spans, index: int, label: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == label:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer numbers of one traced command, keyed as in ``PER_LAYER``."""
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for (label, start, end, _, _), self_s in zip(spans, self_times(spans)):
        total[label] += end - start
        calls[label] += 1
        own[label] += self_s

    def infos(label):
        return [s[4] for s in spans if s[0] == label and s[4] is not None]

    descents = infos("inverse.descend")
    trials = infos("carleman.check")
    steps = sum(i["steps"] for i in infos("forward.solve_density"))
    # the first evaluate of a descent scores the start point; every later
    # one is a line-search trial
    trial_evals = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "objective.evaluate" and _has_ancestor(spans, i, "inverse.descend")
    ) - len(descents)
    iterations = sum(d["iterations"] for d in descents)
    inversion_s = total["pipeline.run_inversion"]
    h2_s = total["grid.h2_norm_sq"] + total["grid.h2_norm_sq_gradient"]
    top_level_s = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    objective = ("objective.evaluate", "objective.gradient", "objective.curvature_diagonal")
    return {
        "forward.solve_density.s": total["forward.solve_density"],
        "forward.solve_density.ms_per_step": 1e3 * _ratio(total["forward.solve_density"], steps),
        "forward.linear_solve.s": total["forward.linear_solve"],
        "forward.make_s.s": total["forward.make_s"],
        "forward.extract_observations.s": total["forward.extract_observations"],
        "forward.stencil_bundle.s": total["forward.stencil_bundle"],
        "forward.share": _ratio(total["forward.solve_density"], traced_wall_s),
        "objective.evaluate.calls": calls["objective.evaluate"],
        "objective.evaluate.ms_per_call": 1e3 * _ratio(
            total["objective.evaluate"], calls["objective.evaluate"]),
        "objective.gradient.calls": calls["objective.gradient"],
        "objective.gradient.ms_per_call": 1e3 * _ratio(
            total["objective.gradient"], calls["objective.gradient"]),
        "objective.passes": calls["objective.evaluate"] + calls["objective.gradient"],
        "objective.self_s": sum(own[name] for name in objective),
        "objective.curvature_diagonal.s": total["objective.curvature_diagonal"],
        "objective.share": _ratio(
            total["objective.evaluate"] + total["objective.gradient"], inversion_s),
        "grid.h2_norm_sq.s": total["grid.h2_norm_sq"],
        "grid.h2_norm_sq_gradient.s": total["grid.h2_norm_sq_gradient"],
        "grid.h2.share": _ratio(h2_s, inversion_s),
        "inverse.iterations": iterations,
        "inverse.accept_ratio": _ratio(iterations, trial_evals),
        "inverse.descend.self_s": own["inverse.descend"],
        "inverse.project_data_constraints.s": total["inverse.project_data_constraints"],
        "inverse.reduce_gradient.s": total["inverse.reduce_gradient"],
        "inverse.final_grad_max": descents[-1]["final_grad_max"] if descents else 0.0,
        "noise.inject.s": total["noise.inject"],
        "noise.smooth_observations.s": total["noise.smooth_observations"],
        "pipeline.build_context.s": total["pipeline.build_context"],
        "pipeline.run_inversion.s": inversion_s,
        "carleman.trials": len(trials),
        "carleman.check.ms_per_trial": 1e3 * _ratio(total["carleman.check"], len(trials)),
        "carleman.levels_mean": _ratio(sum(t["levels"] for t in trials), len(trials)),
        # computed from the levels, not counted: level l has 2**l + 1 nodes
        "carleman.quad_points": _ratio(
            sum(2**l + 1 for t in trials for l in range(t["start_level"], t["levels"] + 1)),
            len(trials)),
        "carleman.not_holding": sum(1 for t in trials if not t["holds"]),
        "fieldio.write.s": total["fieldio.write"],
        "fieldio.read.s": total["fieldio.read"],
        "fieldio.bytes_written": sum(i["bytes"] for i in infos("fieldio.write")),
        "cli.other_s": traced_wall_s - top_level_s,
        "trace.spans": len(spans),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.overhead_share": _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s),
    }
