"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The expensive desk-scale runs (5 seeds) execute once per session and
are shared by the criteria that audit them.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from coopsat import metrics
from coopsat.beamforming import analog_beamform, build_codebook, regularized_zf
from coopsat.channel import SmallScaleConfig, sample_ray_angles, small_scale
from coopsat.config import ScenarioConfig
from coopsat.geometry import (EARTH_MU_KM3_S2, EARTH_RADIUS_KM,
                              ConstellationConfig, propagate, visibility)
from coopsat.harness import build_epoch_instance, emit, run
from coopsat.scheduling import SchemeMode, exhaustive_schedule, final_beams, greedy_schedule

from conftest import make_instance, serving_vector

DESK_SEEDS = (1, 2, 3, 4, 5)

# sha256 of the desk seed-1 result files, taken with numpy 2.4.6 (the
# same at 1 and 2 BLAS threads).  A change that moves any output number
# must re-pin these and say why.
DESK_SEED1_SHA256 = {
    "results.csv": "5a1e65eaaf81a761e988ef9335aff9f6e1753da8c29f8c43bf3b781a1c2017da",
    "series.csv": "e43049cb7fa98ca2f61b24900533679d2936f05d1ec00f8d5e7fc31f0202d9de",
    "summary.json": "6d71d31b448dfe507ed6619d6e5c37473ff9f86f1e2bb96f152c8410a1e36f8f",
}


def report_line(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")


@pytest.fixture(scope="module")
def desk_reports():
    t0 = time.time()
    reports = {seed: run(ScenarioConfig.desk_scale(seed=seed))
               for seed in DESK_SEEDS}
    return reports, time.time() - t0


@pytest.fixture(scope="module")
def desk_instances(desk_reports):
    reports, _ = desk_reports
    cache = {}
    for seed, report in reports.items():
        config = report.config
        for epoch_index, t in enumerate(config.epochs.times()):
            cache[(seed, epoch_index)] = build_epoch_instance(config, epoch_index, t)
    return cache


def test_criterion_1_scheme_ordering(desk_reports):
    reports, elapsed = desk_reports
    ordered = True
    for seed, report in reports.items():
        m = report.summary["mean_total_se"]
        ordered &= m["jhu"] >= m["shu"] >= m["au"]
    jhu = float(np.mean([r.summary["mean_total_se"]["jhu"] for r in reports.values()]))
    shu = float(np.mean([r.summary["mean_total_se"]["shu"] for r in reports.values()]))
    gain_pct = 100.0 * (jhu - shu) / shu
    passed = ordered and gain_pct >= 15.0 and elapsed <= 600.0
    report_line(1, "scheme ordering", passed,
                f"jhu_vs_shu={gain_pct:.1f}%, runtime={elapsed:.0f}s")
    assert ordered, "JHU >= SHU >= AU violated on some seed"
    assert gain_pct >= 15.0, f"JHU vs SHU gain {gain_pct:.1f}% < 15%"
    assert elapsed <= 600.0, f"desk runs took {elapsed:.0f}s > 10 min"


def test_criterion_2_greedy_vs_oracle():
    t0 = time.time()
    rng_sizes = np.random.default_rng(2024)
    ratios = []
    bound_ok = True
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        n_sats = int(rng_sizes.integers(2, 5))
        n_gus = int(rng_sizes.integers(3, 6))
        inst = make_instance(rng, n_sats=n_sats, n_gus=n_gus, n_beams=2)
        for mode in SchemeMode:
            g = greedy_schedule(inst, mode)
            e = exhaustive_schedule(inst, mode)
            bound_ok &= g.total_se <= e.total_se * (1.0 + 1e-12)
            if mode is SchemeMode.JHU:
                ratios.append(g.total_se / e.total_se if e.total_se > 0 else 1.0)
    elapsed = time.time() - t0
    share_good = float(np.mean([r >= 0.9 for r in ratios]))
    passed = bound_ok and share_good >= 0.9 and elapsed <= 120.0
    dist = (f"min={min(ratios):.3f} p50={float(np.median(ratios)):.3f} "
            f"max={max(ratios):.3f} >=0.9: {share_good:.0%}")
    report_line(2, "greedy vs oracle", passed, f"{dist}, runtime={elapsed:.0f}s")
    print("ratio distribution:", " ".join(f"{r:.3f}" for r in sorted(ratios)))
    assert bound_ok, "greedy exceeded the exhaustive optimum"
    assert share_good >= 0.9, f"only {share_good:.0%} of instances reached 0.9"
    assert elapsed <= 120.0, f"oracle comparison took {elapsed:.0f}s > 2 min"


def test_criterion_3_zf_nulling():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        # well-conditioned by construction: unitary factors, singular
        # values in [1, 2]
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _, vh = np.linalg.svd(a)
        h = u @ np.diag(rng.uniform(1.0, 2.0, n)) @ vh
        f = regularized_zf(h, tx_power_w=80.0, beta=0.0)
        prod = h @ f
        off = prod - np.diag(np.diag(prod))
        leakage = float(np.max(np.abs(off)) / np.min(np.abs(np.diag(prod))))
        worst = max(worst, leakage)
    passed = worst <= 1e-8
    report_line(3, "ZF nulling", passed, f"worst leakage={worst:.2e}")
    assert passed


def test_criterion_4_power_constraint(desk_reports, desk_instances):
    reports, _ = desk_reports
    worst = 0.0
    n_audited = 0
    for seed, report in reports.items():
        for r in report.results:
            inst = desk_instances[(seed, r.epoch_index)]
            serving = serving_vector(inst, {u.gu_id: u.serving_sat for u in r.users})
            beams = final_beams(inst, serving, SchemeMode(r.scheme), report.config.beta)
            for s, b in beams.items():
                w = inst.beam_matrix(b)
                total = float(np.sum(np.abs(w) ** 2))
                worst = max(worst, abs(total - inst.tx_power_w) / inst.tx_power_w)
                n_audited += 1
    passed = worst <= 1e-9
    report_line(4, "power constraint", passed,
                f"{n_audited} satellite audits, worst rel err={worst:.2e}")
    assert passed


def test_criterion_5_codebook_and_analog_properties():
    from coopsat.channel import ArrayConfig
    array = ArrayConfig(n_x=8, n_y=8)
    cb = build_codebook(array)
    unitarity = float(np.max(np.abs(cb.matrix.conj().T @ cb.matrix - np.eye(64))))

    rng = np.random.default_rng(55)
    amp = 1.0 / math.sqrt(64)
    worst_modulus = 0.0
    wins = 0
    trials = 1000
    for _ in range(trials):
        h = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / math.sqrt(2)
        beam = analog_beamform(h, cb, k=4)
        worst_modulus = max(worst_modulus,
                            float(np.max(np.abs(np.abs(beam.entries) - amp))))
        combined = abs(np.vdot(h, beam.entries)) ** 2
        single = float(np.max(np.abs(cb.matrix.conj().T @ h) ** 2))
        wins += combined >= single
    share = wins / trials
    passed = unitarity <= 1e-10 and worst_modulus <= 1e-12 and share >= 0.95
    report_line(5, "codebook and analog beams", passed,
                f"unitarity={unitarity:.1e}, modulus err={worst_modulus:.1e}, "
                f"wins={share:.1%}")
    assert unitarity <= 1e-10
    assert worst_modulus <= 1e-12
    assert share >= 0.95


def test_criterion_6_channel_normalization():
    from coopsat.channel import ArrayConfig
    array = ArrayConfig()
    cfg = SmallScaleConfig()
    rng = np.random.default_rng(66)
    acc = 0.0
    draws = 10_000
    for _ in range(draws):
        rays = sample_ray_angles(20.0, 50.0, cfg, rng)
        h = small_scale(20.0, 50.0, rays, cfg, array, rng)
        acc += float(np.sum(np.abs(h) ** 2))
    mean = acc / draws
    passed = 0.95 <= mean <= 1.05
    report_line(6, "channel normalization", passed, f"mean energy={mean:.4f}")
    assert passed


def test_criterion_7_constraint_audit(desk_reports, desk_instances):
    reports, _ = desk_reports
    violations = []
    n_schedules = 0
    for seed, report in reports.items():
        for r in report.results:
            inst = desk_instances[(seed, r.epoch_index)]
            serving = serving_vector(inst, {u.gu_id: u.serving_sat for u in r.users})
            n_schedules += 1
            load = np.bincount(serving[serving >= 0], minlength=len(inst.sat_ids))
            if (load > inst.n_beams).any():
                violations.append(f"seed {seed} {r.scheme}: beam capacity")
            for g, i, sees in zip(inst.gu_ids, serving, inst.visible_mask):
                if i >= 0 and not sees[i]:
                    violations.append(f"seed {seed} {r.scheme}: invisible link")
                if i < 0 and (load[sees] < inst.n_beams).any():
                    violations.append(f"seed {seed} {r.scheme}: user {g} "
                                      "unserved despite spare capacity")
    passed = not violations
    report_line(7, "constraint audit", passed,
                f"{n_schedules} serving vectors, n_beams={32}")
    assert passed, violations[:5]


def test_criterion_8_determinism(tmp_path):
    config = ScenarioConfig.desk_scale(seed=1)
    blobs = []
    for sub in ("first", "second"):
        report = run(config)
        files = emit(report, tmp_path / sub, "csv")
        blobs.append({p.name: p.read_bytes() for p in files})
    passed = blobs[0] == blobs[1]
    report_line(8, "determinism", passed,
                f"{len(blobs[0])} files byte-compared")
    assert passed


def test_golden_digests(desk_reports, tmp_path):
    reports, _ = desk_reports
    files = emit(reports[1], tmp_path, "csv")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    assert digests == DESK_SEED1_SHA256


def test_criterion_9_orbit_sanity():
    cfg = ConstellationConfig(planes=1, sats_per_plane=1, altitude_km=1200.0)
    a = EARTH_RADIUS_KM + 1200.0
    period = 2.0 * math.pi * math.sqrt(a**3 / EARTH_MU_KM3_S2)
    p0 = propagate(cfg, 0.0)[0].position_km
    p1 = propagate(cfg, period)[0].position_km
    period_err = float(np.linalg.norm(p1 - p0))

    full = ScenarioConfig.full_scale()
    worst = math.inf
    for t in full.epochs.times():
        states = propagate(full.constellation, t)
        vis = visibility(states, list(full.gus), full.min_elevation_deg, t)
        worst = min(worst, min(len(v) for v in vis.per_gu.values()))
    passed = period_err <= 1e-6 and worst >= 1
    report_line(9, "orbit sanity", passed,
                f"period err={period_err:.1e} km, min |V_g| over 24 epochs={worst}")
    assert period_err <= 1e-6
    assert worst >= 1, "a configured user lost coverage"
