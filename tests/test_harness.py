import csv
import json
import math

import numpy as np
import pytest

from coopsat.config import EpochGrid, ScenarioConfig, from_dict
from coopsat.geometry import ConstellationConfig, GroundUser
from coopsat.harness import build_epoch_instance, emit, link_rng, run


def single_link_config(**overrides):
    base = {
        "constellation": ConstellationConfig(planes=1, sats_per_plane=1,
                                             inclination_deg=0.0),
        "gus": (GroundUser(0, 0.0, 0.0, label="Origin"),),
        "epochs": EpochGrid(count=1),
        "seed": 3,
        "tracked_labels": ("Origin",),
    }
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_config(seed=1, epochs=2):
    return ScenarioConfig(
        gus=tuple(GroundUser(i, lat, lon, label=lbl) for i, (lbl, lat, lon) in
                  enumerate([("Beijing", 39.90, 116.40),
                             ("Tianjin", 39.13, 117.20),
                             ("Jinan", 36.65, 117.12),
                             ("Qingdao", 36.07, 120.38)])),
        epochs=EpochGrid(count=epochs),
        seed=seed,
    )


class TestLinkRng:
    def test_substreams_independent_of_enumeration(self):
        a = link_rng(5, 2, 7, 11).standard_normal(4)
        b = link_rng(5, 2, 7, 11).standard_normal(4)
        c = link_rng(5, 2, 7, 12).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBuildInstance:
    def test_instance_consistency(self):
        cfg = tiny_config()
        inst = build_epoch_instance(cfg, 0, 0.0)
        assert inst.gu_ids == (0, 1, 2, 3)
        assert inst.n_beams == 32
        n_s = len(inst.sat_ids)
        assert inst.visible_mask.shape == (4, n_s) and inst.visible_mask.any()
        assert inst.channels.shape == inst.analog.shape == (
            n_s, 4, cfg.array.n_elements)
        seen = inst.visible_mask.T  # [sat, user]
        for links in (inst.channels, inst.analog):
            assert np.all(np.isfinite(links))
            assert np.all(np.abs(links[seen]).sum(axis=1) > 0.0)
            assert not links[~seen].any()
        norms = np.linalg.norm(inst.directions[inst.visible_mask], axis=1)
        assert np.allclose(norms, 1.0)

    def test_identical_channels_for_any_scheme_subset(self):
        # channel realizations keyed by (seed, epoch, link): scheme list
        # cannot perturb them
        cfg_all = tiny_config()
        cfg_one = from_dict({"gus": [{"label": g.label, "lat": g.latitude_deg,
                                      "lon": g.longitude_deg}
                                     for g in cfg_all.gus],
                             "epochs": {"count": 2},
                             "schemes": ["jhu"], "seed": 1})
        i1 = build_epoch_instance(cfg_all, 1, cfg_all.epochs.times()[1])
        i2 = build_epoch_instance(cfg_one, 1, cfg_one.epochs.times()[1])
        assert i1.sat_ids == i2.sat_ids
        assert np.array_equal(i1.visible_mask, i2.visible_mask)
        assert np.array_equal(i1.channels, i2.channels)
        assert np.array_equal(i1.analog, i2.analog)


class TestRun:
    def test_single_user_all_schemes_identical(self):
        report = run(single_link_config())
        assert len(report.results) == 3
        ses = {r.scheme: r.total_se for r in report.results}
        assert ses["au"] == pytest.approx(ses["shu"], rel=1e-9)
        assert ses["au"] == pytest.approx(ses["jhu"], rel=1e-9)
        assert ses["au"] > 0.0

    def test_grid_complete_and_summary_recomputes(self):
        cfg = tiny_config(epochs=3)
        report = run(cfg)
        seen = {(r.epoch_index, r.scheme) for r in report.results}
        assert seen == {(e, s.value) for e in range(3) for s in cfg.schemes}
        for scheme, mean in report.summary["mean_total_se"].items():
            totals = [r.total_se for r in report.results if r.scheme == scheme]
            assert mean == pytest.approx(float(np.mean(totals)), rel=1e-12)
        gains = report.summary["gains"]
        means = report.summary["mean_total_se"]
        assert gains["jhu_vs_au_pct"] == pytest.approx(
            100.0 * (means["jhu"] - means["au"]) / means["au"], rel=1e-12)

    def test_results_carry_links_and_users(self):
        report = run(tiny_config())
        for r in report.results:
            assert len(r.users) == 4
            assert r.total_se == pytest.approx(sum(u.se for u in r.users))

    def test_provenance(self):
        report = run(tiny_config(seed=9))
        assert report.provenance["seed"] == 9
        assert len(report.provenance["config_sha256"]) == 64


class TestEmit:
    def test_csv_schema(self, tmp_path):
        report = run(tiny_config())
        files = emit(report, tmp_path, "csv")
        names = {p.name for p in files}
        assert names == {"results.csv", "series.csv", "summary.json"}
        with (tmp_path / "results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "scheme", "gu_id", "serving_sat",
                           "sinr_db", "se"]
        assert len(rows) - 1 == len(report.results) * 4

    def test_json_records(self, tmp_path):
        report = run(tiny_config())
        emit(report, tmp_path, "json")
        records = json.loads((tmp_path / "results.json").read_text())
        assert all(set(r) == {"epoch", "scheme", "gu_id", "serving_sat",
                              "sinr_db", "se"} for r in records)

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            report = run(tiny_config(seed=4))
            files = emit(report, tmp_path / sub, "csv")
            blobs.append(b"".join(p.read_bytes() for p in sorted(files)))
        assert blobs[0] == blobs[1]

    def test_series_includes_tracked_users(self, tmp_path):
        report = run(single_link_config())
        emit(report, tmp_path, "csv")
        with (tmp_path / "series.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        kinds = {r["series"] for r in rows}
        assert kinds == {"total", "Origin"}

    def test_summary_gains_recompute_from_records(self, tmp_path):
        report = run(tiny_config())
        emit(report, tmp_path, "csv")
        with (tmp_path / "results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        by_scheme: dict[str, dict[str, float]] = {}
        for r in rows:
            acc = by_scheme.setdefault(r["scheme"], {})
            acc[r["epoch"]] = acc.get(r["epoch"], 0.0) + float(r["se"])
        means = {s: float(np.mean(list(v.values()))) for s, v in by_scheme.items()}
        summary = json.loads((tmp_path / "summary.json").read_text())
        for s, m in summary["summary"]["mean_total_se"].items():
            assert m == pytest.approx(means[s], rel=1e-12)

    def test_unknown_format_rejected(self, tmp_path):
        report = run(single_link_config())
        with pytest.raises(ValueError):
            emit(report, tmp_path, "xml")


class TestPairedEvaluation:
    def test_schemes_share_channel_realizations(self):
        # run jhu alone and all three: jhu numbers must match exactly
        cfg_all = tiny_config(seed=6)
        cfg_jhu = from_dict({"gus": [{"label": g.label, "lat": g.latitude_deg,
                                      "lon": g.longitude_deg}
                                     for g in cfg_all.gus],
                             "epochs": {"count": 2},
                             "schemes": ["jhu"], "seed": 6})
        all_report = run(cfg_all)
        jhu_report = run(cfg_jhu)
        all_jhu = sorted((r.epoch_index, r.total_se)
                         for r in all_report.results if r.scheme == "jhu")
        only_jhu = sorted((r.epoch_index, r.total_se)
                          for r in jhu_report.results)
        assert all_jhu == only_jhu
