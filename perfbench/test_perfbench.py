"""Tests of the benchmark itself, on the 3-user mini scenario of
tests/test_cli.py.  Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import tracing
import worker
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def mini_scenario(seed: int) -> dict:
    return {
        "constellation": {"planes": 2, "sats_per_plane": 4, "inclination_deg": 40.0},
        "gus": {"inline": [{"label": "A", "lat": 30.0, "lon": 116.0},
                           {"label": "B", "lat": 32.0, "lon": 118.0},
                           {"label": "C", "lat": 35.0, "lon": 114.0}]},
        "epochs": {"count": 2},
        "seed": seed,
    }


MINI = workloads.Workload("mini", mini_scenario, emit=True)
MINI_ORACLE = workloads.Workload("mini-oracle", mini_scenario, oracle=True)
SEED = 11


def measure(workload, tmp_path, trace=False):
    return worker.measure(workload, SEED, 0.0, trace, tmp_path)


def test_workload_names_agree():
    assert (run.WORKLOADS == tuple(workloads.WORKLOADS)
            == tuple(w["name"] for w in BENCHMARK["workloads"]))


@pytest.mark.parametrize("workload", [MINI, MINI_ORACLE], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    result = measure(workload, tmp_path, trace)
    assert result["failed"] == 0 and result["attempted"] > 0
    names = set(result["metrics"])
    # run.py adds the set-up time, measured over fresh processes
    assert names == (PER_LAYER if trace else END_TO_END - {"setup_s"})
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["unit"]


@pytest.mark.parametrize("workload", [MINI, MINI_ORACLE], ids=lambda w: w.name)
def test_self_times_sum_to_at_most_wall(workload, tmp_path):
    metrics = measure(workload, tmp_path, trace=True)["metrics"]
    self_times = [m["value"] for name, m in metrics.items()
                  if m["unit"] == "s" and not name.startswith(("trace.", "config."))]
    assert all(t >= 0.0 for t in self_times)
    assert sum(self_times) <= metrics["trace.wall_s"]["value"] + 1e-9
    assert metrics["channel.draws"]["value"] > 0
    assert metrics["metrics.user_metrics_calls"]["value"] > 0


def test_layer_spans_cover_their_workloads(tmp_path):
    run_metrics = measure(MINI, tmp_path, trace=True)["metrics"]
    oracle_metrics = measure(MINI_ORACLE, tmp_path, trace=True)["metrics"]
    assert run_metrics["harness.emit_bytes"]["value"] > 0
    assert run_metrics["scheduling.exhaustive_s"]["value"] == 0.0
    assert oracle_metrics["scheduling.assignments_evaluated"]["value"] > 0
    assert oracle_metrics["beamforming.zf_calls"]["value"] > 0
    assert oracle_metrics["scheduling.iterations"]["value"] >= 0


def _write_reference(tmp_path, monkeypatch, records):
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    payload = {"seeds": {str(SEED): workloads.reference_records(records)}}
    workloads.reference_path(MINI.name).write_text(json.dumps(payload))


def test_matching_reference_keeps_match_frac_at_one(tmp_path, monkeypatch):
    cfg = workloads.make_config(MINI, SEED)
    records, _ = workloads.run_unit(MINI, cfg, tmp_path)
    _write_reference(tmp_path, monkeypatch, records)
    result = measure(MINI, tmp_path)
    assert result["reference"]
    assert result["failed"] == 0
    assert result["metrics"]["match_frac"]["value"] == 1.0


def test_injected_mismatch_lowers_match_frac(tmp_path, monkeypatch):
    cfg = workloads.make_config(MINI, SEED)
    records, _ = workloads.run_unit(MINI, cfg, tmp_path)
    records[0]["total_se"] *= 1.0 + 1e-6
    _write_reference(tmp_path, monkeypatch, records)
    result = measure(MINI, tmp_path)
    assert result["failed"] == 1
    assert result["metrics"]["match_frac"]["value"] == pytest.approx(
        1.0 - 1.0 / result["attempted"])
    assert "total_se" in result["problems"][0]


def test_invariant_violations_are_caught(tmp_path):
    cfg = workloads.make_config(MINI_ORACLE, SEED)
    records, _ = workloads.run_unit(MINI_ORACLE, cfg, tmp_path)
    keys = workloads.expected_keys(cfg)
    visible = workloads.visibility_by_epoch(cfg)
    n_beams = cfg.array.n_beams
    assert workloads.check(records, keys, None, visible, n_beams) == []

    served = next(r for r in records if r["links"])
    s, g = served["links"][0]
    broken = [
        dict(served, sinr=[math.nan] * len(served["sinr"])),
        dict(served, links=[[s + 1000, g]]),
        dict(served, links=[[s, g]] * (n_beams + 1)),
        dict(served, total_se=served["optimum_se"] + 1.0),
    ]
    for record in broken:
        assert workloads.violations(record, visible[record["epoch"]], n_beams)
    assert len(workloads.check(records[1:], keys, None, visible, n_beams)) == 1


def test_wrappers_restore_module_names(tmp_path):
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.PATCH_POINTS}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            for (module, attr), original in before.items():
                assert getattr(sys.modules[module], attr) is not original
            raise RuntimeError("boom")
    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original
    measure(MINI, tmp_path, trace=True)
    for (module, attr), original in before.items():
        assert getattr(sys.modules[module], attr) is original


def test_speed_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe(interval_s=0.01) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 2
    assert 0.0 < probe.spent_s < 0.2 and probe.speed() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with hostspeed.SpeedProbe() as short:  # shorter than one interval
        pass
    assert len(short.samples) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"),
         "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
