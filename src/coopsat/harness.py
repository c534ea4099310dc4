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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .beamforming import analog_beamform
from .channel import (clear_sky_loss_db, draw_links, large_scale_amplitude, path_loss,
                      sample_ray_angles, small_scale)
from .config import ScenarioConfig, config_digest, to_dict
from .geometry import ground_user_positions, link_geometry, propagate, visibility
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
    channel and analog beam for one snapshot.  Each stage runs once over
    all of the epoch's links, except the random draws: each link draws
    from its own substream, one link after another, into rows of the
    epoch's draw arrays.  The path directions (``sample_ray_angles``)
    and gains (``LinkDraws.gains``) come from ``channel`` in one layout,
    which the build passes to ``small_scale`` as it is.  A link below
    the horizon stops the build before any draw."""
    gus = sorted(config.gus, key=lambda g: g.user_id)
    gu_ids = tuple(g.user_id for g in gus)
    states = propagate(config.constellation, t)
    vis = visibility(states, gus, config.min_elevation_deg, t)
    active = np.flatnonzero(vis.visible.any(axis=1))
    sat_ids = tuple(vis.sat_ids[i] for i in active)
    visible = np.ascontiguousarray(vis.visible[active].T)

    rows, users = np.nonzero(visible.T)  # links by satellite, then user
    sats = active[rows]
    geom = link_geometry(states[sats], ground_user_positions(gus, t)[users])
    clear_sky = clear_sky_loss_db(vis.elevation_deg[sats, users], geom.slant_range_km,
                                  config.rf, config.channel)
    draws = draw_links([link_rng(config.seed, epoch_index, sat_id, gu_id) for sat_id, gu_id in
                        zip(states.satellite_id[sats].tolist(),
                            np.array(gu_ids)[users].tolist())], config.channel)
    loss_db = path_loss(clear_sky, draws.shadow_db, config.channel)
    direct = np.stack((geom.azimuth_sat_deg, geom.elevation_sat_deg), axis=1)
    angles = sample_ray_angles(direct, draws.offsets_deg, config.channel)
    h = small_scale(angles, draws.gains, config.channel, config.array)
    np.multiply(large_scale_amplitude(loss_db, config.rf)[:, None], h, out=h)
    zero = np.flatnonzero(~h.any(axis=1))
    if zero.size:
        link = zero[0]
        raise ValueError(f"channel vector of satellite {sat_ids[rows[link]]} "
                         f"to user {gu_ids[users[link]]} is zero")
    channels = np.zeros((len(sat_ids), len(gus), config.array.n_elements), dtype=complex)
    analog = np.zeros_like(channels)
    directions = np.zeros((len(gus), len(sat_ids), 3))
    channels[rows, users] = h
    analog[rows, users] = analog_beamform(h, config.array, k=config.codewords)
    directions[users, rows] = geom.direction
    return EpochInstance(sat_ids, gu_ids, config.rf, config.array.n_beams,
                         visible_mask=visible, channels=channels, analog=analog,
                         directions=directions)


def run(config: ScenarioConfig, trace: bool = False) -> RunReport:
    """Execute the full experiment grid (epochs x schemes).  Schemes that
    schedule alike share one greedy run per epoch (``SchemeMode.scoring``)."""
    results: list[ExperimentResult] = []
    traces: dict[tuple[int, str], list[TraceRecord]] = {}
    for epoch_index, t in enumerate(config.epochs.times()):
        instance = build_epoch_instance(config, epoch_index, t)
        greedy = {rule: greedy_schedule(instance, rule, beta=config.beta, trace=trace)
                  for rule in dict.fromkeys(m.scoring for m in config.schemes)}
        for mode in config.schemes:
            sched = replace(greedy[mode.scoring], mode=mode)
            users = user_metrics(instance, sched.links, sched.beams)
            results.append(ExperimentResult(epoch_index, t, mode.value, tuple(users)))
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
    # strict JSON: a NaN or infinity raises ValueError instead of being
    # written as a token that strict parsers reject
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


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

    # the in-memory summary may carry the ``--trace`` decisions; the
    # file is the same with or without them
    summary_payload = {
        "summary": {k: v for k, v in report.summary.items() if k != "trace"},
        "provenance": report.provenance,
        "config": to_dict(report.config),
    }
    _write_json(out / "summary.json", summary_payload)
    written.append(out / "summary.json")
    return written
