"""Benchmark workloads, their unit of work, and the output checks.

A workload is a scenario mapping generated from the benchmark seed plus
the steps one unit of work runs on it.  The program receives only the
``ScenarioConfig`` that ``coopsat.config.from_dict`` builds from the
mapping.  Every call into the program goes through a module attribute,
so the wrappers of ``tracing.Tracer`` see it.

A unit yields one record per (epoch, scheme) evaluation: the served
links and total SE, plus the exhaustive optimum on the oracle workload.
A record fails when it breaks an invariant that holds for every seed,
or when a reference recorded for the seed disagrees with it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from coopsat import config, geometry, harness, metrics, scheduling

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ORACLE_MAX_SPACE = 2500
ALL_SCHEMES = ["au", "shu", "jhu"]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int], dict]  # seed -> scenario mapping
    emit: bool = False    # write result files after run()
    oracle: bool = False  # greedy and exhaustive per epoch instead of run()


def _scenario(seed: int, cities: int, epochs: int, **extra) -> dict:
    return {
        "gus": {"dataset": "cities_cn", "count": cities},
        "epochs": {"start_s": 0.0, "step_s": 1200.0, "count": epochs},
        "schemes": ALL_SCHEMES,
        "seed": seed,
        **extra,
    }


WORKLOADS = {w.name: w for w in (
    # The README quick-start: bundled desk profile, run() then emit().
    Workload("desk", lambda seed: _scenario(
        seed, 20, 10, tracked_labels=["Beijing", "Shanghai", "Wuhan"]),
        emit=True),
    # Greedy scoring grows as users^3: 40 of the full profile's cities at
    # its first epoch make scheduling and metrics nearly all of the time.
    Workload("full-epoch", lambda seed: _scenario(seed, 40, 1)),
    # 256-element sub-arrays and 100 rays per link make instance build
    # (steering vectors, ray draws, analog beams) the main cost; AU only,
    # so the ZF and JHU paths never run.
    Workload("wide-array", lambda seed: _scenario(
        seed, 20, 10, schemes=["au"], array={"n_x": 16, "n_y": 16},
        channel={"n_clusters": 4, "n_rays": 25})),
    # The `coopsat oracle` path: thousands of complete assignments
    # evaluated per epoch instead of one-link increments.
    Workload("oracle", lambda seed: _scenario(seed, 5, 10), oracle=True),
)}


def make_config(workload: Workload, seed: int):
    return config.from_dict(workload.scenario(seed))


def _links(users) -> list[list[int]]:
    return sorted([u.serving_sat, u.gu_id] for u in users
                  if u.serving_sat is not None)


def _record(epoch: int, scheme: str, users, total_se: float) -> dict:
    return {"epoch": epoch, "scheme": scheme, "links": _links(users),
            "total_se": total_se, "sinr": [u.sinr for u in users]}


def run_unit(workload: Workload, cfg, out_dir, trace: bool = False):
    """One unit of work.  Returns the evaluation records and the greedy
    decisions (dicts of ``TraceRecord`` fields, only with ``trace``)."""
    if workload.oracle:
        return _oracle_unit(cfg, trace)
    report = harness.run(cfg, trace=trace)
    if workload.emit:
        harness.emit(report, out_dir, "csv")
    records = [_record(r.epoch_index, r.scheme, r.users, r.total_se)
               for r in report.results]
    decisions = [d for ds in report.summary.get("trace", {}).values() for d in ds]
    return records, decisions


def _oracle_unit(cfg, trace: bool):
    records, decisions = [], []
    for epoch, t in enumerate(cfg.epochs.times()):
        instance = harness.build_epoch_instance(cfg, epoch, t)
        for mode in cfg.schemes:
            greedy = scheduling.greedy_schedule(instance, mode, beta=cfg.beta,
                                                trace=trace)
            best = scheduling.exhaustive_schedule(instance, mode, beta=cfg.beta,
                                                  max_space=ORACLE_MAX_SPACE)
            record = _record(epoch, mode.value,
                             metrics.user_metrics(instance, greedy.links, greedy.beams),
                             greedy.total_se)
            record["optimum_se"] = best.total_se
            record["optimum_links"] = _links(
                metrics.user_metrics(instance, best.links, best.beams))
            records.append(record)
            decisions += [vars(d) for d in greedy.trace]
    return records, decisions


def expected_keys(cfg) -> list[tuple[int, str]]:
    return [(e, m.value) for e in range(cfg.epochs.count) for m in cfg.schemes]


def visibility_by_epoch(cfg) -> list[dict[int, tuple[int, ...]]]:
    """Satellites each user sees at each epoch, for the invariant checks."""
    out = []
    for t in cfg.epochs.times():
        states = geometry.propagate(cfg.constellation, t)
        vis = geometry.visibility(states, list(cfg.gus), cfg.min_elevation_deg, t)
        out.append({g: tuple(sats) for g, sats in vis.per_gu.items()})
    return out


def violations(record: dict, visible: dict[int, tuple[int, ...]],
               n_beams: int) -> list[str]:
    """Invariants every seed must satisfy."""
    where = f"epoch {record['epoch']} [{record['scheme']}]"
    problems = []
    values = record["sinr"] + [record["total_se"]]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        problems.append(f"{where}: non-finite or negative SINR/SE")
    for s, g in record["links"]:
        if s not in visible.get(g, ()):
            problems.append(f"{where}: link ({s}, {g}) is not visible")
    load = Counter(s for s, _ in record["links"])
    if any(n > n_beams for n in load.values()):
        problems.append(f"{where}: a satellite serves more than {n_beams} users")
    if "optimum_se" in record and (
            record["total_se"] > record["optimum_se"] * (1.0 + REL_TOL) + 1e-12):
        problems.append(f"{where}: greedy exceeds the exhaustive optimum")
    return problems


def mismatches(record: dict, expected: dict) -> list[str]:
    """Differences from a reference record: links exactly, SE to REL_TOL."""
    where = f"epoch {record['epoch']} [{record['scheme']}]"
    problems = []
    for key in ("links", "optimum_links"):
        if key in expected and record.get(key) != expected[key]:
            problems.append(f"{where}: {key} differ from the reference")
    for key in ("total_se", "optimum_se"):
        if key in expected and not math.isclose(
                record.get(key, math.nan), expected[key],
                rel_tol=REL_TOL, abs_tol=1e-12):
            problems.append(f"{where}: {key} {record.get(key)!r} != "
                            f"reference {expected[key]!r}")
    return problems


def check(records: list[dict], keys: list[tuple[int, str]], reference,
          visible: list[dict], n_beams: int) -> list[tuple[tuple[int, str], list[str]]]:
    """Failed evaluations of one unit, with the reasons.  ``keys`` are the
    evaluations the unit must produce; a missing one fails."""
    by_key = {(r["epoch"], r["scheme"]): r for r in records}
    failed = []
    for key in keys:
        record = by_key.get(key)
        if record is None:
            failed.append((key, [f"epoch {key[0]} [{key[1]}]: missing"]))
            continue
        problems = violations(record, visible[key[0]], n_beams)
        if reference is not None:
            expected = reference.get(key)
            problems += (mismatches(record, expected) if expected is not None
                         else [f"epoch {key[0]} [{key[1]}]: not in the reference"])
        if problems:
            failed.append((key, problems))
    return failed


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str, seed: int) -> dict | None:
    """Reference records for one seed keyed by (epoch, scheme), or None
    when none was recorded for that seed."""
    path = reference_path(name)
    if not path.exists():
        return None
    stored = json.loads(path.read_text())["seeds"].get(str(seed))
    if stored is None:
        return None
    return {(r["epoch"], r["scheme"]): r for r in stored}


def reference_records(records: list[dict]) -> list[dict]:
    """The fields of each record that a reference pins."""
    return [{k: v for k, v in r.items() if k != "sinr"} for r in records]
