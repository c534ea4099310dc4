"""Experiment orchestration and result emission.

A run loops over time snapshots.  Per snapshot it propagates the
constellation, computes visibility, draws one channel realization per
link from a dedicated random substream, and evaluates every configured
scheme on those identical channels (paired comparison).  Substreams are
keyed by (seed, epoch, satellite, user), so results are reproducible
and independent of which schemes run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .beamforming import analog_beamform, build_codebook
from .channel import large_scale_amplitude, path_loss, sample_ray_angles, small_scale
from .config import ScenarioConfig, config_digest, to_dict
from .geometry import ground_user_position, link_geometry, propagate, visibility
from .metrics import (ExperimentResult, density_classes, density_statistics,
                      mean_total_se, pairwise_gains, user_metrics)
from .network import EpochInstance
from .scheduling import TraceRecord, greedy_schedule


@dataclass(eq=False)
class RunReport:
    config: ScenarioConfig
    results: list[ExperimentResult]
    summary: dict
    provenance: dict


def link_rng(seed: int, epoch_index: int, sat_id: int, gu_id: int) -> np.random.Generator:
    """Independent substream for one (epoch, link) pair."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, epoch_index, sat_id, gu_id]))


def build_epoch_instance(config: ScenarioConfig, epoch_index: int,
                         t: float) -> EpochInstance:
    """Propagate, compute visibility, and realize every candidate link's
    channel and analog beam for one snapshot."""
    states = {s.satellite_id: s
              for s in propagate(config.constellation, t)}
    vis = visibility(list(states.values()), list(config.gus),
                     config.min_elevation_deg, t)
    codebook = build_codebook(config.array)
    gus = sorted(config.gus, key=lambda g: g.user_id)
    sat_ids = vis.active_satellites
    visible = np.array([[g.user_id in vis.per_sat[s] for s in sat_ids] for g in gus],
                       dtype=bool).reshape(len(gus), len(sat_ids))
    channels = np.zeros((len(sat_ids), len(gus), config.array.n_elements), dtype=complex)
    analog = np.zeros_like(channels)
    directions = np.zeros((len(gus), len(sat_ids), 3))

    for i, u in zip(*np.nonzero(visible.T)):  # by satellite, then user
        sat, gu = states[sat_ids[i]], gus[u]
        geom = link_geometry(sat, gu, t)
        rng = link_rng(config.seed, epoch_index, sat_ids[i], gu.user_id)
        pl = path_loss(geom, config.rf, config.attenuation, rng)
        rays = sample_ray_angles(geom.azimuth_sat_deg, geom.elevation_sat_deg,
                                 config.small_scale, rng)
        h_ss = small_scale(geom.azimuth_sat_deg, geom.elevation_sat_deg,
                           rays, config.small_scale, config.array, rng)
        # user antenna gain is serving-dependent: keep it out of the
        # stored channel and apply it at evaluation time
        amp = large_scale_amplitude(pl.total_db, config.rf, 0.0)
        h = amp * h_ss
        channels[i, u] = h
        analog[i, u] = analog_beamform(h, codebook, k=config.codewords).entries
        los = sat.position_km - ground_user_position(gu, t)
        directions[u, i] = los / np.linalg.norm(los)

    return EpochInstance(sat_ids, tuple(g.user_id for g in gus), config.rf,
                         config.array.n_beams, visible_mask=visible,
                         channels=channels, analog=analog, directions=directions)


def run(config: ScenarioConfig, trace: bool = False) -> RunReport:
    """Execute the full experiment grid (epochs x schemes)."""
    results: list[ExperimentResult] = []
    traces: dict[tuple[int, str], list[TraceRecord]] = {}
    for epoch_index, t in enumerate(config.epochs.times()):
        instance = build_epoch_instance(config, epoch_index, t)
        for mode in config.schemes:
            sched = greedy_schedule(instance, mode, beta=config.beta, trace=trace)
            users = user_metrics(instance, sched.links, sched.beams)
            results.append(ExperimentResult(
                epoch_index=epoch_index, epoch_s=t, scheme=mode.value,
                users=tuple(users), unserved=sched.unserved,
                total_se=sched.total_se))
            if trace:
                traces[(epoch_index, mode.value)] = sched.trace

    means = mean_total_se(results)
    classes = density_classes(list(config.gus), config.density_threshold_km)
    summary = {
        "mean_total_se": means,
        "gains": pairwise_gains(means),
        "density": density_statistics(results, classes),
        "density_counts": {
            "dense": sum(c.dense for c in classes),
            "sparse": sum(not c.dense for c in classes),
        },
        "unserved": {
            f"{r.epoch_index}/{r.scheme}": list(r.unserved)
            for r in results if r.unserved
        },
    }
    provenance = {
        "config_sha256": config_digest(config),
        "seed": config.seed,
        "version": __version__,
    }
    report = RunReport(config=config, results=results, summary=summary,
                       provenance=provenance)
    if trace:
        report.summary["trace"] = {
            f"{e}/{m}": [vars(r) for r in recs]
            for (e, m), recs in traces.items()
        }
    return report


def _sinr_db(sinr: float) -> float | None:
    return 10.0 * math.log10(sinr) if sinr > 0.0 else None


def _result_records(report: RunReport) -> list[dict]:
    records = []
    for r in report.results:
        for u in r.users:
            records.append({
                "epoch": r.epoch_s,
                "scheme": r.scheme,
                "gu_id": u.gu_id,
                "serving_sat": u.serving_sat,
                "sinr_db": _sinr_db(u.sinr),
                "se": u.se,
            })
    return records


def _series_records(report: RunReport) -> list[dict]:
    labels = set(report.config.tracked_labels)
    by_label = {g.user_id: g.label for g in report.config.gus}
    records = []
    for r in report.results:
        records.append({"epoch": r.epoch_s, "scheme": r.scheme,
                        "series": "total", "value": r.total_se})
        for u in r.users:
            if by_label.get(u.gu_id) in labels:
                records.append({"epoch": r.epoch_s, "scheme": r.scheme,
                                "series": by_label[u.gu_id], "value": u.se})
    return records


def _write_csv(path: Path, records: list[dict], columns: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow(["" if rec[c] is None else repr(rec[c])
                             if isinstance(rec[c], float) else rec[c]
                             for c in columns])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def emit(report: RunReport, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
    """Write per-user records, plot-ready series, and the summary.

    Output is byte-deterministic for a given (config, seed): floats are
    emitted with shortest round-trip representation and no timestamps.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    records = _result_records(report)
    series = _series_records(report)
    columns = ["epoch", "scheme", "gu_id", "serving_sat", "sinr_db", "se"]
    if fmt == "csv":
        _write_csv(out / "results.csv", records, columns)
        _write_csv(out / "series.csv", series,
                   ["epoch", "scheme", "series", "value"])
        written += [out / "results.csv", out / "series.csv"]
    else:
        _write_json(out / "results.json", records)
        _write_json(out / "series.json", series)
        written += [out / "results.json", out / "series.json"]

    summary_payload = {
        "summary": report.summary,
        "provenance": report.provenance,
        "config": to_dict(report.config),
    }
    _write_json(out / "summary.json", summary_payload)
    written.append(out / "summary.json")
    return written
