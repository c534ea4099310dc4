import csv
import hashlib
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import reference_channel as ref
import reference_links as ref_links
from conftest import close_beams, close_to_reference, digest_builds
from coopsat import harness
from coopsat.channel import ArrayConfig, LinkInvalidError, large_scale_amplitude
from coopsat.config import EpochGrid, ScenarioConfig, bundled_cities, from_dict, load_config
from coopsat.geometry import ConstellationConfig, GroundUser, propagate, visibility
from coopsat.harness import build_epoch_instance, emit, evaluate_epoch, link_rng, run
from coopsat.scheduling import SchemeMode


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


def contended_config(schemes=("au", "shu", "jhu")):
    """Eight nearby users on two-beam satellites and one polar user who
    sees none: every epoch leaves users unserved, and JHU's schedule
    differs from AU's."""
    cities = [("A", 30.0, 116.0), ("B", 31.0, 117.0), ("C", 32.0, 115.0),
              ("D", 30.5, 118.0), ("E", 29.0, 116.5), ("G", 33.0, 119.0),
              ("H", 28.0, 114.0), ("F", 80.0, 0.0)]
    return from_dict({
        "gus": {"inline": [{"label": l, "lat": a, "lon": o} for l, a, o in cities]},
        "array": {"n_x": 2, "n_y": 2, "n_sub_x": 1, "n_sub_y": 2},
        "epochs": {"count": 3}, "schemes": list(schemes), "seed": 4})


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

    def test_pinned_link_channel(self):
        # sha256 of one desk seed-1 link's channel and analog beam: a
        # change to the channel draw that moves any bit fails here first,
        # before the result-file digests.  Recorded on the build below,
        # which the failure message compares with the one that ran
        cfg = load_config("desk")
        inst = build_epoch_instance(cfg, 0, cfg.epochs.times()[0])
        i, u = np.argwhere(inst.visible_mask.T)[0]
        assert (inst.sat_ids[i], inst.gu_ids[u]) == (2, 0)
        digests = [hashlib.sha256(a[i, u].tobytes()).hexdigest()
                   for a in (inst.channels, inst.analog)]
        recorded_on = {"numpy": "2.4.6", "openblas_core": "SkylakeX", "simd": "AVX512_SPR"}
        assert digests == [
            "bd17c73d9499d6ae9d958fd5eb9820c13c31d5403ad7ffd657f9118b03a7674b",
            "4a95bb7d971fb2cfe32008b78f67bfdd10eb59c94de3f3cf5e04c21109fb789d",
        ], digest_builds(recorded_on)

    def test_link_below_horizon_stops_the_build(self):
        # a visible link at elevation <= 0 (no valid scenario's, whose
        # min_elevation_deg is at least 5) is a LinkInvalidError naming
        # the first such link
        cfg = tiny_config()

        def sinking(states, gus, min_elevation_deg, t):
            vis = visibility(states, gus, min_elevation_deg, t)
            (s1, u1), (s2, u2) = np.argwhere(vis.visible)[1:3]  # in link order
            vis.elevation_deg[s1, u1], vis.elevation_deg[s2, u2] = -0.25, -0.75
            return vis

        with mock.patch.object(harness, "visibility", sinking):
            with pytest.raises(LinkInvalidError,
                               match=r"^satellite below horizon \(elevation -0\.25 deg\)$"):
                build_epoch_instance(cfg, 0, 0.0)

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


def reference_build(config, epoch_index, t):
    """The instance build one link at a time: the reference geometry and
    channel draw on each link's substream, scaled by its large-scale
    amplitude."""
    gus = sorted(config.gus, key=lambda g: g.user_id)
    states = propagate(config.constellation, t)
    vis = visibility(states, gus, config.min_elevation_deg, t)
    active = np.flatnonzero(vis.visible.any(axis=1))
    channels = np.zeros((len(active), len(gus), config.array.n_elements), dtype=complex)
    directions = np.zeros((len(gus), len(active), 3))
    for i, s in enumerate(active):
        for u, gu in enumerate(gus):
            if not vis.visible[s, u]:
                continue
            slant, phi, theta, directions[u, i] = ref_links.link_geometry(
                states.position_km[s], states.body_axes[s],
                ref_links.ground_user_position(gu, t))
            rng = link_rng(config.seed, epoch_index, vis.sat_ids[s], gu.user_id)
            loss_db = ref.path_loss(float(vis.elevation_deg[s, u]), slant, config.rf,
                                    config.channel, rng)
            rays = ref.sample_ray_angles(phi, theta, config.channel, rng)
            coefs = ref.path_coefficients(config.channel, rng)
            h_ss = ref.small_scale(phi, theta, rays, coefs, config.channel, config.array)
            channels[i, u] = large_scale_amplitude(loss_db, config.rf) * h_ss
    return tuple(vis.sat_ids[s] for s in active), channels, directions


def _desk():
    return load_config("desk")


BUILD_SHAPES = {
    "desk": _desk,
    "full-40-cities": lambda: replace(load_config("full"), gus=bundled_cities(40)),
    "wide-array": lambda: replace(
        _desk(), array=ArrayConfig(n_x=16, n_y=16),
        channel=replace(_desk().channel, n_clusters=4, n_rays=25)),
    "no-diffuse-rays": lambda: replace(
        _desk(), channel=replace(_desk().channel, multipath_power_db=-math.inf)),
    "one-element": lambda: replace(_desk(), array=ArrayConfig(n_x=1, n_y=1), codewords=1),
}


@pytest.mark.parametrize("shape", BUILD_SHAPES)
def test_build_equals_per_link_reference(shape):
    # against the one-link-at-a-time loop on the same substreams: every
    # direction is within 2e-15 of the reference's (the geometry tests'
    # tolerance), every channel within 1e-12 of its norm of the
    # reference's (its paths are added in another order), and every
    # analog beam within close_beams' tolerance of the reference
    # construction on the channel the build made (at most 9.1e-15 seen)
    config = BUILD_SHAPES[shape]()
    codebook = ref_links.build_codebook(config.array)
    for epoch_index, t in list(enumerate(config.epochs.times()))[:2]:
        inst = build_epoch_instance(config, epoch_index, t)
        sat_ids, channels, directions = reference_build(config, epoch_index, t)
        assert inst.sat_ids == sat_ids and inst.visible_mask.any()
        assert close_to_reference(inst.channels, channels)
        combined = np.zeros_like(channels)
        for i, u in np.argwhere(inst.visible_mask.T):
            h = inst.channels[i, u]
            ranking = ref_links.codeword_ranking(h, codebook)
            combined[i, u] = ref_links.combination(h, codebook, ranking[:config.codewords])
        assert close_beams(inst.analog[inst.visible_mask.T], combined[inst.visible_mask.T])
        assert not inst.analog[~inst.visible_mask.T].any()
        assert close_to_reference(inst.directions[inst.visible_mask],
                                  directions[inst.visible_mask], 2e-15)
        assert not inst.directions[~inst.visible_mask].any()


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

    def test_an_epoch_alone_equals_its_results_in_the_run(self):
        # the grid index, not the time, keys the substreams: epoch 5 built
        # and evaluated alone gives the run's epoch-5 results, decisions
        # included, and the same time built as epoch 0 draws other channels
        cfg = load_config("desk")
        t5 = cfg.epochs.times()[5]
        alone = evaluate_epoch(cfg, build_epoch_instance(cfg, 5, t5), 5, t5, trace=True)
        in_run = [r for r in run(cfg, trace=True).results if r.epoch_index == 5]
        assert [(r.epoch_s, r.scheme, r.users, r.trace) for r in alone] == [
            (r.epoch_s, r.scheme, r.users, r.trace) for r in in_run]
        assert all(r.trace for r in alone)
        assert not np.array_equal(build_epoch_instance(cfg, 0, t5).channels,
                                  build_epoch_instance(cfg, 5, t5).channels)

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

    def test_trace_leaves_files_unchanged(self, tmp_path):
        # the decisions stay in the in-memory summary only
        traced = run(tiny_config(), trace=True)
        assert traced.summary["trace"]
        blobs = [{p.name: p.read_bytes() for p in emit(report, tmp_path / sub, "csv")}
                 for sub, report in (("plain", run(tiny_config())), ("traced", traced))]
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

    def test_no_ray_summary_is_strict_json(self, tmp_path):
        # multipath_power_db = -inf is the one infinite value a config holds
        config = replace(single_link_config(), channel=replace(
            single_link_config().channel, multipath_power_db=-math.inf))
        emit(run(config), tmp_path, "csv")

        def reject(token):
            raise ValueError(f"{token} is not strict JSON")

        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject)
        assert from_dict(summary["config"]) == config

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_writer_rejects_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            harness._write_json(tmp_path / "x.json", {"value": value})


class TestPairedEvaluation:
    @pytest.mark.parametrize("schemes", [["shu"], ["shu", "au"], ["jhu", "shu", "au"]],
                             ids=",".join)
    def test_scheme_subsets_match_the_all_schemes_run(self, schemes):
        every = run(contended_config(), trace=True)
        subset = run(contended_config(schemes), trace=True)
        by_key = {(r.epoch_index, r.scheme): r for r in every.results}
        assert len(subset.results) == 3 * len(schemes)
        for r in subset.results:
            ref = by_key[(r.epoch_index, r.scheme)]
            assert r.total_se == ref.total_se
            assert r.users == ref.users
        for part in ("trace", "unserved"):
            assert subset.summary[part] == {
                k: v for k, v in every.summary[part].items()
                if k.split("/")[1] in schemes}
        assert subset.summary["unserved"]
        assert every.summary["unserved"]["2/jhu"] != every.summary["unserved"]["2/au"]

    def test_au_and_shu_share_one_greedy_run_and_each_scheme_one_evaluation(self):
        cfg = contended_config()
        with mock.patch.object(harness, "greedy_schedule",
                               wraps=harness.greedy_schedule) as greedy, \
             mock.patch.object(harness, "user_metrics",
                               wraps=harness.user_metrics) as evaluate:
            run(cfg)
        modes = [SchemeMode.parse(c.args[1]) for c in greedy.call_args_list]
        assert sorted(modes) == [SchemeMode.AU] * 3 + [SchemeMode.JHU] * 3
        assert evaluate.call_count == 3 * 3

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
