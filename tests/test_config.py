import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import coopsat
from coopsat.channel import ArrayConfig, ChannelConfig, RfConfig
from coopsat.config import (NO_RAYS, ConfigError, EpochGrid, ScenarioConfig,
                            bundled_cities, config_digest, from_dict, load_config,
                            to_dict)
from coopsat.geometry import ConstellationConfig, GroundUser
from coopsat.scheduling import SchemeMode


class TestBundledCities:
    def test_full_list(self):
        cities = bundled_cities()
        assert len(cities) == 80
        assert len({g.label for g in cities}) == 80
        assert all(-90 <= g.latitude_deg <= 90 for g in cities)

    def test_desk_subset(self):
        cities = bundled_cities(20)
        assert len(cities) == 20
        labels = {g.label for g in cities}
        assert {"Beijing", "Shanghai", "Wuhan"} <= labels

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            bundled_cities(0)
        with pytest.raises(ValueError):
            bundled_cities(81)


class TestFromDict:
    def test_minimal_config_uses_defaults(self):
        cfg = from_dict({})
        assert cfg.constellation.planes == 6
        assert cfg.array.n_beams == 32
        assert len(cfg.gus) == 20
        assert cfg.schemes == (SchemeMode.AU, SchemeMode.SHU, SchemeMode.JHU)
        assert cfg.epochs.count == 10
        assert cfg.codewords == 4

    def test_inline_gus(self):
        cfg = from_dict({"gus": [{"label": "A", "lat": 10.0, "lon": 20.0},
                                 {"lat": -5.0, "lon": 30.0}]})
        assert len(cfg.gus) == 2
        assert cfg.gus[0].label == "A"
        assert cfg.gus[1].user_id == 1

    def test_scheme_subset_and_dedup(self):
        cfg = from_dict({"schemes": ["jhu", "au", "jhu"]})
        assert cfg.schemes == (SchemeMode.JHU, SchemeMode.AU)

    def test_errors_carry_field_paths(self):
        with pytest.raises(ConfigError) as err:
            from_dict({
                "constellation": {"planes": 0},
                "rf": {"tx_power_w": -1.0},
                "epochs": {"count": 0},
                "schemes": [],
                "codewords": 0,
                "seed": -3,
                "bogus_section": {},
            })
        messages = "\n".join(err.value.errors)
        for needle in ("constellation", "rf", "epochs.count", "schemes",
                       "codewords", "seed", "bogus_section"):
            assert needle in messages

    def test_section_reports_its_first_range_error(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"channel": {"n_clusters": 0, "zenith_gas_db": 200}})
        assert err.value.errors == ["channel.n_clusters: must be >= 1"]
        # a type error is reported beside it
        with pytest.raises(ConfigError) as err:
            from_dict({"channel": {"n_rays": True, "zenith_gas_db": 200}})
        assert err.value.errors == ["channel.n_rays: must be an integer",
                                    "channel.zenith_gas_db: must be in [0, 100]"]

    @pytest.mark.parametrize("key", ["small_scale", "attenuation"])
    def test_channel_fields_live_in_the_channel_section(self, key):
        with pytest.raises(ConfigError) as err:
            from_dict({key: {"n_rays": 5}})
        assert err.value.errors == [f"{key}: unknown field"]

    def test_empty_gu_list_rejected(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"gus": []})
        assert any(e.startswith("gus") for e in err.value.errors)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            from_dict({"schemes": ["zf"]})

    @pytest.mark.parametrize("scheme", [1, None, {}])
    def test_non_string_scheme_rejected(self, scheme):
        with pytest.raises(ConfigError) as err:
            from_dict({"schemes": ["au", scheme]})
        assert err.value.errors == [
            f"schemes: unknown scheme {scheme!r}; expected au, shu or jhu"]
        with pytest.raises(ValueError):
            SchemeMode.parse(scheme)

    def test_defaults_live_on_the_dataclass(self):
        assert from_dict({}) == ScenarioConfig()
        assert ScenarioConfig().gus == bundled_cities(20)

    def test_dataclasses_check_themselves(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(seed=-1, codewords=0, tracked_labels=("Nowhere",))
        assert err.value.errors == [
            "seed: must be a non-negative integer",
            "codewords: must be a positive integer",
            "tracked_labels: no ground user is labelled 'Nowhere'"]
        with pytest.raises(ConfigError) as err:
            EpochGrid(start_s=-1.0, step_s=0.0, count=0)
        assert err.value.errors == ["count: must be a positive integer",
                                    "step_s: must be > 0", "start_s: must be >= 0"]

    @pytest.mark.parametrize("fields,message", [
        ({"array": ArrayConfig(n_x=2.5)}, "array.n_x: must be an integer"),
        ({"epochs": EpochGrid(count=2.5)}, "epochs.count: must be an integer"),
        ({"seed": 1.5}, "seed: must be an integer"),
        ({"seed": "1"}, "seed: must be an integer"),
        ({"codewords": 2.5}, "codewords: must be an integer"),
        ({"rf": RfConfig(tx_power_w=math.nan)}, "rf.tx_power_w: must be a finite number"),
        ({"beta": math.nan}, "beta: must be a finite number"),
        ({"epochs": EpochGrid(step_s=math.inf)},
         "epochs.step_s: must be a finite number"),
        ({"density_threshold_km": math.nan},
         "density_threshold_km: must be a finite number"),
        ({"channel": ChannelConfig(angle_spread_deg=math.nan)},
         "channel.angle_spread_deg: must be a finite number"),
        ({"channel": ChannelConfig(zenith_gas_db=True)},
         "channel.zenith_gas_db: must be a finite number"),
        ({"gus": (GroundUser(0, 30.0, 116.0, altitude_km=math.inf),)},
         "gus[0].altitude_km: must be a finite number"),
        ({"gus": (GroundUser(0.5, 30.0, 116.0),)}, "gus[0].user_id: must be an integer"),
        ({"gus": (GroundUser(0, 30.0, 116.0, label=None),)}, "gus[0].label: must be a string"),
        ({"gus": (GroundUser(0, 30.0, 116.0, label=[1]),)}, "gus[0].label: must be a string"),
    ])
    def test_python_built_scenario_gets_the_file_type_rules(self, fields, message):
        # reported before a range check compares the value
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(**fields)
        assert err.value.errors == [message]

    @pytest.mark.parametrize("gus,message", [
        ((GroundUser(0, 30.0, 116.0, label="A"), GroundUser(1, 31.0, 121.0, label="A")),
         "gus[1].label: 'A' is already the label of gus[0]"),
        ((GroundUser(3, 30.0, 116.0, label="A"), GroundUser(3, 31.0, 121.0, label="B")),
         "gus[1].user_id: 3 is already the user_id of gus[0]"),
    ])
    def test_python_built_users_are_distinct(self, gus, message):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(gus=gus)
        assert err.value.errors == [message]

    def test_top_level_floats_stored_as_floats_section_numbers_as_given(self):
        cfg = from_dict({"min_elevation_deg": 10, "beta": 1,
                         "constellation": {"altitude_km": 1200}})
        data = to_dict(cfg)
        assert type(data["min_elevation_deg"]) is float
        assert type(data["beta"]) is float
        # an int written for a section float stays an int: the digests of
        # existing files keep their value
        assert type(data["constellation"]["altitude_km"]) is int

    def test_codewords_bounded_by_array(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"array": {"n_x": 2, "n_y": 2}, "codewords": 5})
        assert any("codewords" in e for e in err.value.errors)

    def test_non_numeric_field(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"min_elevation_deg": "high"})
        assert any("min_elevation_deg" in e for e in err.value.errors)

    @pytest.mark.parametrize("key", ["seed", "codewords"])
    def test_bool_rejected_as_integer(self, key):
        with pytest.raises(ConfigError) as err:
            from_dict({key: True})
        assert any(e.startswith(key) for e in err.value.errors)

    def test_fractional_epoch_count_rejected(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"epochs": {"count": 2.5}})
        assert any(e.startswith("epochs.count") for e in err.value.errors)

    def test_non_numeric_epoch_step_rejected(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"epochs": {"step_s": "x"}})
        assert any(e.startswith("epochs.step_s") for e in err.value.errors)

    @pytest.mark.parametrize("key,value", [("beta", "1e400"),
                                           ("min_elevation_deg", float("nan")),
                                           ("min_elevation_deg", True),
                                           ("beta", "0.5"),
                                           ("density_threshold_km", "400")])
    def test_non_finite_number_rejected(self, key, value):
        # top-level numbers follow the section rule: no bools, no strings
        with pytest.raises(ConfigError) as err:
            from_dict({key: value})
        assert f"{key}: must be a finite number" in err.value.errors

    @pytest.mark.parametrize("section,key,value", [
        ("rf", "tx_power_w", float("inf")),
        ("array", "element_spacing", float("nan")),
        ("constellation", "altitude_km", float("inf")),
        ("channel", "angle_spread_deg", float("nan")),
        ("channel", "zenith_gas_db", float("inf")),
        # -inf switches the diffuse rays off, and is no other field's value
        ("channel", "multipath_power_db", float("inf")),
        ("channel", "direct_amp_mean_db", float("-inf")),
    ])
    def test_non_finite_section_field_rejected(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            from_dict({section: {key: value}})
        assert f"{section}.{key}: must be a finite number" in err.value.errors

    @pytest.mark.parametrize("section,key,value", [
        ("array", "n_x", 2.5),
        ("array", "n_sub_y", True),
        ("constellation", "planes", 6.0),
        ("channel", "n_rays", True),
    ])
    def test_non_integer_section_count_rejected(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            from_dict({section: {key: value}})
        assert f"{section}.{key}: must be an integer" in err.value.errors

    def test_bool_user_count_rejected(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"gus": {"count": True}})
        assert "gus.count: must be an integer" in err.value.errors

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"rf": 3})
        assert "rf: expected a mapping" in err.value.errors

    @pytest.mark.parametrize("value", [5, "Beijing", ["Beijing", 7]])
    def test_tracked_labels_must_be_strings(self, value):
        with pytest.raises(ConfigError) as err:
            from_dict({"tracked_labels": value})
        assert "tracked_labels: must be a list of strings" in err.value.errors

    @pytest.mark.parametrize("data,message", [
        ({"gus": {"dataset": "cities_cn", "cuont": 5}}, "gus.cuont: unknown field"),
        ({"gus": [{"lat": 30, "lon": 116, "alt": 2}]}, "gus[0].alt: unknown field"),
        ({"gus": {"inline": [{"lat": 30, "lon": 116}], "count": 3}},
         "gus.count: not allowed with gus.inline"),
        ({"gus": [3]}, "gus[0]: expected a mapping"),
        ({"gus": [{"lat": True, "lon": 116}]}, "gus[0].lat: must be a finite number"),
        ({"gus": [{"lat": 30, "lon": "116"}]}, "gus[0].lon: must be a finite number"),
        ({"gus": [{"lon": 116}]}, "gus[0].lat: must be a finite number"),
        ({"tracked_labels": ["Beijng"]},
         "tracked_labels: no ground user is labelled 'Beijng'"),
        ({"gus": [{"lat": 30, "lon": 116, "label": "A"},
                  {"lat": 31, "lon": 121, "label": "A"}]},
         "gus[1].label: 'A' is already the label of gus[0]"),
        ({"gus": [{"lat": 30, "lon": 116}, {"lat": 31, "lon": 121, "label": "gu0"}]},
         "gus[1].label: 'gu0' is already the label of gus[0]"),
        ({"gus": [{"lat": 30, "lon": 200}]}, "gus[0].lon: must be in [-180, 180)"),
        ({"gus": [{"lat": 30, "lon": 116, "label": None}]}, "gus[0].label: must be a string"),
        ({"gus": [{"lat": 30, "lon": 116, "label": [1]}]}, "gus[0].label: must be a string"),
        ({"gus": [{"lat": 30, "lon": 116, "label": 5}]}, "gus[0].label: must be a string"),
        ({"gus": {"count": 0}}, "gus.count: must be in [1, 80]"),
    ])
    def test_bad_user_entry_rejected(self, data, message):
        with pytest.raises(ConfigError) as err:
            from_dict(data)
        assert message in err.value.errors

    def test_longitude_180_accepted(self):
        cfg = from_dict({"gus": [{"lat": 10.0, "lon": 180.0}]})
        assert cfg.gus[0].longitude_deg == -180.0  # the same meridian

    def test_minus_inf_multipath_power_turns_the_rays_off(self):
        # the documented switch, from a mapping as a scenario file gives it
        cfg = from_dict({"channel": {"multipath_power_db": -math.inf}})
        assert cfg.channel.multipath_power_db == -math.inf
        assert cfg.channel.n_paths == 1
        assert from_dict(to_dict(cfg)) == cfg

    def test_minus_inf_multipath_power_is_json_safe_plain_data(self):
        cfg = from_dict({"channel": {"multipath_power_db": -math.inf}})
        data = to_dict(cfg)
        assert data["channel"]["multipath_power_db"] == NO_RAYS
        assert from_dict(json.loads(json.dumps(data, allow_nan=False))) == cfg
        assert config_digest(from_dict({"channel": {"multipath_power_db": NO_RAYS}})) \
            == config_digest(cfg)

    @pytest.mark.parametrize("key", ["direct_amp_mean_db", "angle_spread_deg"])
    def test_no_rays_spelling_is_multipath_power_only(self, key):
        with pytest.raises(ConfigError) as err:
            from_dict({"channel": {key: NO_RAYS}})
        assert f"channel.{key}: must be a finite number" in err.value.errors


def _scenario(path: str, value) -> dict:
    """A scenario mapping that sets field ``path`` (``section.field``, or a
    top-level field, or ``gus.<key>`` for one inline user) to ``value``."""
    if path.startswith("gus."):
        return {"gus": [{"lat": 30.0, "lon": 116.0, path[4:]: value}]}
    section, _, key = path.rpartition(".")
    return {section: {key: value}} if section else {path: value}


class TestPhysicalRanges:
    # (field path in a file, range); errors name ``gus.<key>`` by its
    # one inline user, ``gus[0].<key>``
    RANGES = [
        ("rf.carrier_frequency_hz", (1e8, 1e12)),
        ("rf.bandwidth_hz", (1e3, 1e11)),
        ("rf.noise_temperature_dbk", (0.0, 50.0)),
        ("rf.satellite_antenna_gain_dbi", (0.0, 70.0)),
        ("rf.vsat_max_gain_dbi", (0.0, 70.0)),
        ("rf.vsat_floor_suppression_db", (0.0, 60.0)),
        ("rf.tx_power_w", (1e-3, 1e5)),
        ("constellation.inclination_deg", (0.0, 180.0)),
        ("constellation.altitude_km", (160.0, 40000.0)),
        ("gus.lat", (-90.0, 90.0)),
        ("gus.alt_km", (-0.5, 10.0)),
        ("channel.zenith_gas_db", (0.0, 100.0)),
        ("channel.scintillation_db", (0.0, 20.0)),
        ("channel.shadow_sigma_db", (0.0, 20.0)),
        ("channel.direct_amp_mean_db", (-40.0, 10.0)),
        ("channel.direct_amp_std_db", (0.0, 20.0)),
        ("channel.multipath_power_db", (-60.0, 10.0)),
        ("channel.angle_spread_deg", (0.0, 90.0)),
    ]

    @pytest.mark.parametrize("path,ends", RANGES, ids=[r[0] for r in RANGES])
    def test_each_end_accepted_and_one_step_past_rejected(self, path, ends):
        lo, hi = ends
        where = path.replace("gus.", "gus[0].")
        for value in ends:
            from_dict(_scenario(path, value))
        for value in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            with pytest.raises(ConfigError) as err:
                from_dict(_scenario(path, value))
            assert err.value.errors == [f"{where}: must be in [{lo:g}, {hi:g}]"]

    def test_min_elevation_half_open(self):
        assert from_dict({"min_elevation_deg": 5.0}).min_elevation_deg == 5.0
        assert from_dict({"min_elevation_deg": math.nextafter(90.0, 0.0)})
        for value in (math.nextafter(5.0, 0.0), 90.0, 0.0):
            with pytest.raises(ConfigError) as err:
                from_dict({"min_elevation_deg": value})
            assert err.value.errors == ["min_elevation_deg: must be in [5, 90)"]

    def test_python_built_sections_check_their_ranges(self):
        with pytest.raises(ValueError, match=r"^altitude_km: must be in \[160, 40000\]$"):
            ConstellationConfig(altitude_km=100.0)
        with pytest.raises(ValueError, match=r"^altitude_km: must be in \[-0.5, 10\]$"):
            GroundUser(0, 30.0, 116.0, altitude_km=-3000.0)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(min_elevation_deg=0.0)
        assert err.value.errors == ["min_elevation_deg: must be in [5, 90)"]


class TestYamlLoading:
    def test_round_trip_desk_profile(self, tmp_path):
        from importlib import resources
        text = resources.files("coopsat.data").joinpath("desk.yaml").read_text()
        path = tmp_path / "desk.yaml"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg == load_config("desk")
        assert cfg == ScenarioConfig(gus=bundled_cities(20),
                                     epochs=EpochGrid(count=10),
                                     tracked_labels=("Beijing", "Shanghai", "Wuhan"))

    def test_full_profile_contents(self):
        assert load_config("full") == ScenarioConfig(
            gus=bundled_cities(), epochs=EpochGrid(count=24),
            tracked_labels=("Beijing", "Shanghai", "Wuhan", "Kashi", "Nansha"))

    def test_existing_file_wins_over_profile(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "desk").write_text("seed: 7\n")
        assert load_config("desk").seed == 7

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError) as err:
            load_config("desktop")
        assert err.value.errors == [
            "desktop: no such file or bundled profile (profiles: desk, full)"]

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("constellation: [unclosed")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_readme_scenario_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        assert load_config(path) == from_dict({})

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "mini.yaml"
        path.write_text("seed: 7\nepochs: {count: 2}\n")
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.epochs.count == 2

    def test_yaml_loaded_only_by_load_config(self):
        # a fresh interpreter: this one has loaded PyYAML already
        code = ("import sys, coopsat\n"
                "coopsat.config.from_dict({})\n"
                "print('yaml' in sys.modules)\n"
                "coopsat.load_config('desk')\n"
                "print('yaml' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(coopsat.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["False", "True"]


class TestDigest:
    def test_digest_stability_and_sensitivity(self):
        a = load_config("desk")
        b = load_config("desk")
        c = replace(a, seed=2)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)

    @pytest.mark.parametrize("profile,digest", [
        ("desk", "fd54172d2842c464ddf49a4e4549853cf5825f17144df1f8e22acbc5f1ea94fd"),
        ("full", "b982abfd4642c1a3806cc45b9d24309e59b52479c86c980df9cacdd2ba6b9eb5"),
    ])
    def test_profile_digest_pinned(self, profile, digest):
        # a hash of JSON text: unlike the output digests, the same on
        # every BLAS and SIMD build
        assert config_digest(load_config(profile)) == digest

    def test_to_dict_json_friendly(self):
        import json
        json.dumps(to_dict(load_config("desk")))

    @pytest.mark.parametrize("source", ["desk", "full", "inline"])
    def test_from_dict_inverts_to_dict(self, source):
        if source == "inline":
            cfg = from_dict({
                "gus": [{"label": "dateline", "lat": 10.0, "lon": 180},
                        {"lat": -5.5, "lon": 30.0, "alt_km": 1.5}],
                "constellation": {"altitude_km": 1100},
                "channel": {"n_rays": 5, "shadow_sigma_db": 2.0},
                "schemes": ["jhu", "AU"], "beta": 0.5, "seed": 9,
                "tracked_labels": ["dateline"]})
        else:
            cfg = load_config(source)
        assert from_dict(to_dict(cfg)) == cfg
        assert config_digest(from_dict(to_dict(cfg))) == config_digest(cfg)
