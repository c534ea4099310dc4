"""One benchmark process: set up a workload, then repeat its unit of work
until the given number of seconds has passed.

``run.py`` starts it with single-threaded BLAS.  It prints ``ready`` once
the imports and the scenario config are done (the set-up time ends
there), then one JSON line with its results.  With ``--trace 1`` it
alternates untraced and traced units and reports per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# per-layer metric -> (span, field); each value is a mean per traced unit
LAYER_FIELDS = {
    "scheduling.greedy_s.au": ("scheduling.greedy.au", "self_s"),
    "scheduling.greedy_s.shu": ("scheduling.greedy.shu", "self_s"),
    "scheduling.greedy_s.jhu": ("scheduling.greedy.jhu", "self_s"),
    "scheduling.exhaustive_s": ("scheduling.exhaustive", "self_s"),
    "scheduling.final_beams_s": ("scheduling.final_beams", "self_s"),
    "scheduling.assignments_evaluated": ("scheduling.final_beams", "calls"),
    "metrics.user_metrics_s": ("metrics.user_metrics", "self_s"),
    "metrics.user_metrics_calls": ("metrics.user_metrics", "calls"),
    "metrics.total_se_s": ("metrics.total_se", "self_s"),
    "metrics.total_se_calls": ("metrics.total_se", "calls"),
    "network.hybrid_beams_s": ("network.hybrid_beams", "self_s"),
    "network.hybrid_beams_calls": ("network.hybrid_beams", "calls"),
    "beamforming.zf_s": ("beamforming.zf", "self_s"),
    "beamforming.zf_calls": ("beamforming.zf", "calls"),
    "beamforming.analog_s": ("beamforming.analog", "self_s"),
    "beamforming.analog_calls": ("beamforming.analog", "calls"),
    "harness.build_s": ("harness.build", "self_s"),
    "harness.emit_s": ("harness.emit", "self_s"),
    "harness.emit_bytes": ("harness.emit", "bytes"),
    "geometry.propagate_s": ("geometry.propagate", "self_s"),
    "geometry.visibility_s": ("geometry.visibility", "self_s"),
    "geometry.link_geometry_s": ("geometry.link_geometry", "self_s"),
    "geometry.links": ("geometry.link_geometry", "calls"),
    "channel.path_loss_s": ("channel.path_loss", "self_s"),
    "channel.rays_s": ("channel.rays", "self_s"),
    "channel.small_scale_s": ("channel.small_scale", "self_s"),
    "channel.draws": ("channel.small_scale", "calls"),
    "unattributed_s": ("unit", "self_s"),
}
UNITS = {"self_s": "s", "calls": "count", "bytes": "B"}


def environment(seed: int) -> dict:
    """Machine and build facts recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _mean(values) -> float:
    return sum(values) / len(values)


def _quality(records: list[dict]) -> dict:
    """Mean total SE per scheme and the smallest greedy/optimum ratio."""
    out = {}
    for scheme in workloads.ALL_SCHEMES:
        values = [r["total_se"] for r in records if r["scheme"] == scheme]
        if values:
            out[f"se_mean.{scheme}"] = _mean(values)
    ratios = [r["total_se"] / r["optimum_se"] if r["optimum_se"] > 0.0 else 1.0
              for r in records if "optimum_se" in r]
    if ratios:
        out["oracle_ratio_min"] = min(ratios)
    return out


def _layers(units: list[dict], decisions: list[dict], config_stats: dict,
            untraced_walls: list[float]) -> tuple[dict, list]:
    """Per-layer metrics (means per traced unit) and a span table."""
    metrics = {}
    for name, (span, field) in LAYER_FIELDS.items():
        value = _mean([getattr(u[span], field) if span in u else 0 for u in units])
        metrics[name] = {"value": value, "unit": UNITS[field]}
    iterations = len(decisions)
    commits = sum(d["committed"] for d in decisions)
    traced_wall = _mean([u["unit"].total_s for u in units])
    metrics.update({
        "scheduling.iterations": {"value": iterations, "unit": "count"},
        "scheduling.candidates_scored": {
            "value": sum(d["n_candidates"] for d in decisions), "unit": "count"},
        "scheduling.commit_ratio": {
            "value": commits / iterations if iterations else 1.0, "unit": "ratio"},
        "config.load_s": {"value": config_stats["config.load"].self_s
                          if "config.load" in config_stats else 0.0, "unit": "s"},
        "trace.wall_s": {"value": traced_wall, "unit": "s"},
        "trace.overhead_s": {"value": traced_wall - _mean(untraced_walls),
                             "unit": "s"},
    })
    names = sorted({name for u in units for name in u})
    table = [(name,
              _mean([u[name].self_s if name in u else 0.0 for u in units]),
              _mean([u[name].total_s if name in u else 0.0 for u in units]),
              _mean([u[name].calls if name in u else 0 for u in units]))
             for name in names]
    return metrics, table


def measure(workload: workloads.Workload, seed: int, seconds: float,
            trace: bool, out_dir, on_ready=lambda: None) -> dict:
    """Set up, signal ``on_ready``, then run units for ``seconds``."""
    config_tracer = tracing.Tracer()
    with config_tracer if trace else contextlib.nullcontext():
        cfg = workloads.make_config(workload, seed)
    on_ready()

    keys = workloads.expected_keys(cfg)
    reference = workloads.load_reference(workload.name, seed)
    visible = workloads.visibility_by_epoch(cfg)
    walls, speeds, traced_units, decisions, failures = [], [], [], [], []
    first_records = None
    attempted = 0
    start = time.perf_counter()
    round_s = 0.0
    # Start another round only if one as long as the last still ends
    # within ``seconds``; the first round always runs.
    while not failures and (
            not walls or time.perf_counter() - start + round_s <= seconds):
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            tracer = tracing.Tracer()
            attempted += len(keys)
            try:
                t0 = time.perf_counter()
                if traced:
                    with tracer, tracer.span("unit"):
                        records, decisions = workloads.run_unit(
                            workload, cfg, out_dir, trace=True)
                    traced_units.append(tracer.stats)
                else:
                    with hostspeed.SpeedProbe() as probe:
                        records, _ = workloads.run_unit(workload, cfg, out_dir)
                    walls.append(time.perf_counter() - t0 - probe.spent_s)
                    speeds.append(probe.speed())
            except Exception:  # a failed unit fails all its evaluations
                traceback.print_exc()
                failures += [(key, ["unit raised"]) for key in keys]
                break
            first_records = first_records or records
            failures += workloads.check(records, keys, reference, visible,
                                        cfg.array.n_beams)
        round_s = time.perf_counter() - round_start

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "problems": [p for _, ps in failures[:5] for p in ps],
        "units": len(walls),
        "reference": reference is not None,
        "env": environment(seed),
        "host": {"raw_wall_s": statistics.median(walls) if walls else 0.0,
                 "speed": statistics.median(speeds) if speeds else 0.0},
        "quality": _quality(first_records or []),
    }
    if trace and traced_units:
        result["metrics"], result["table"] = _layers(
            traced_units, decisions, config_tracer.stats, walls)
    else:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(
                [w * v for w, v in zip(walls, speeds)]) if walls else 0.0,
                       "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "match_frac": {"value": 1.0 - len(failures) / attempted,
                           "unit": "ratio"},
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set up (a set-up time probe)")
    args = parser.parse_args(argv)

    def ready():
        print("ready", flush=True)

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.make_config(workload, args.seed)
        ready()
        print(hostspeed.speed_now(), flush=True)
        return 0
    scratch = HERE / ".tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
            result = measure(workload, args.seed, args.seconds, bool(args.trace),
                             out_dir, on_ready=ready)
    finally:
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
