import csv
import json
from unittest import mock

import pytest

from coopsat import cli, harness
from coopsat.channel import draw_links
from coopsat.cli import EXIT_CONFIG, EXIT_OK, main
from coopsat.config import from_dict, load_config
from coopsat.scheduling import SchemeMode

MINI_SCENARIO = """\
constellation: {planes: 2, sats_per_plane: 4, inclination_deg: 40.0}
gus:
  inline:
    - {label: A, lat: 30.0, lon: 116.0}
    - {label: B, lat: 32.0, lon: 118.0}
    - {label: C, lat: 35.0, lon: 114.0}
epochs: {count: 2}
seed: 11
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_SCENARIO)
    return path


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == EXIT_OK
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("constellation: {planes: 0}\ngus: []\n")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "constellation" in err and "gus" in err


def test_validate_rejects_fractional_epoch_count(tmp_path, capsys):
    path = tmp_path / "frac.yaml"
    path.write_text("epochs: {count: 2.5}\n")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    assert "epochs.count" in capsys.readouterr().err


@pytest.mark.parametrize("text,field", [
    ("rf: {tx_power_w: .inf}\n", "rf.tx_power_w"),
    ("tracked_labels: 5\n", "tracked_labels"),
    ("tracked_labels: [Beijng]\n", "tracked_labels"),
    ("gus: {dataset: cities_cn, cuont: 5}\n", "gus.cuont"),
    ("gus: [{lat: 30, lon: 116, alt: 2}]\n", "gus[0].alt"),
    ("gus: {inline: [{lat: 30, lon: 116}], count: 3}\n", "gus.count"),
    ("min_elevation_deg: true\n", "min_elevation_deg"),
    ("beta: '0.5'\n", "beta"),
    ("gus: [{lat: 30, lon: 116, label: A}, {lat: 31, lon: 121, label: A}]\n",
     "gus[1].label"),
    ("schemes: [1]\n", "schemes: unknown scheme 1"),
    ("schemes: [null]\n", "schemes: unknown scheme None"),
    ("schemes: [{}]\n", "schemes: unknown scheme {}"),
    # fields past their physical ranges: far past, where the linear
    # value overflows, and just past
    ("rf: {noise_temperature_dbk: 4000}\n", "rf.noise_temperature_dbk"),
    ("rf: {vsat_max_gain_dbi: 4000}\n", "rf.vsat_max_gain_dbi"),
    ("rf: {satellite_antenna_gain_dbi: 4000}\n", "rf.satellite_antenna_gain_dbi"),
    ("channel: {multipath_power_db: 4000}\n", "channel.multipath_power_db"),
    ("channel: {direct_amp_mean_db: 8000}\n", "channel.direct_amp_mean_db"),
    ("channel: {direct_amp_std_db: 1000}\n", "channel.direct_amp_std_db"),
    ("channel: {zenith_gas_db: 4000}\n", "channel.zenith_gas_db"),
    ("channel: {zenith_gas_db: 3000}\n", "channel.zenith_gas_db"),
    ("channel: {scintillation_db: 4000}\n", "channel.scintillation_db"),
    ("channel: {shadow_sigma_db: 4000}\n", "channel.shadow_sigma_db"),
    ("gus: {count: 80}\nepochs: {count: 4}\nchannel: {zenith_gas_db: 535}\n",
     "channel.zenith_gas_db"),
    pytest.param("gus:\n" + "".join(f"  - {{lat: {30.0 + 0.5 * i}, lon: {100.0 + 3 * i}, "
                                   "alt_km: -3000.0}\n" for i in range(10))
                 + "epochs: {count: 24}\nchannel: {zenith_gas_db: 532.9}\n",
                 "gus[0].alt_km", id="below-sea-level"),
    ("channel: {angle_spread_deg: -1.0}\n", "channel.angle_spread_deg"),
    ("rf: {bandwidth_hz: 1.0e-300}\n", "rf.bandwidth_hz"),
    ("rf: {tx_power_w: 1.0e-300}\n", "rf.tx_power_w"),
    ("rf: {carrier_frequency_hz: 1.0e+300}\n", "rf.carrier_frequency_hz"),
    ("min_elevation_deg: 0\n", "min_elevation_deg"),
    ("constellation: {altitude_km: 40001}\n", "constellation.altitude_km"),
    # a divisor whose linear value is 0; a negative suppression or spread
    ("rf: {noise_temperature_dbk: -4000}\n", "rf.noise_temperature_dbk"),
    ("rf: {vsat_floor_suppression_db: -1}\n", "rf.vsat_floor_suppression_db"),
    ("channel: {direct_amp_std_db: -1}\n", "channel.direct_amp_std_db"),
])
@pytest.mark.parametrize("command", ["validate", "run", "oracle"])
def test_invalid_field_exits_2(tmp_path, capsys, text, field, command):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    args = [command, str(path)] + (["--out", str(tmp_path / "o")]
                                   if command == "run" else [])
    assert main(args) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("channel", ["{multipath_power_db: -.inf}",
                                     "{zenith_gas_db: 100}"])
def test_extreme_channel_field_validates_and_runs(tmp_path, channel):
    # no diffuse rays; the zenith gas loss at the end of its range
    path = tmp_path / "extreme.yaml"
    path.write_text(MINI_SCENARIO + f"channel: {channel}\n")
    assert main(["validate", str(path)]) == EXIT_OK
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert from_dict(summary["config"]) == load_config(path)


def shadow_draw(shadow_db: float):
    """``harness.draw_links`` with each epoch's first shadow-fading draw
    set to ``shadow_db``: a draw no valid spread reaches, far past the
    ~275 dB that a 20 dB spread can draw."""
    def draws(rngs, cfg):
        out = draw_links(rngs, cfg)
        out.shadow_db[0] = shadow_db
        return out
    return mock.patch.object(harness, "draw_links", draws)


def test_overflowing_shadow_draw_exits_1(scenario_file, tmp_path, capsys):
    # the one run-time guard: an error line, no traceback
    with shadow_draw(-4000.0):
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: link gain of ") and "overflows" in err


def test_underflowing_shadow_draw_exits_1(scenario_file, tmp_path, capsys):
    # the error names the underflow, not the zero channel it leaves
    assert main(["validate", str(scenario_file)]) == EXIT_OK
    with shadow_draw(4000.0):
        assert main(["run", str(scenario_file), "--out", str(tmp_path / "o")]) \
            == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: link gain of ") and "underflows" in err


def test_run_with_no_visible_link(tmp_path):
    # no satellite reaches 89.5 degrees at either user in either epoch:
    # the run completes and every user is unserved
    path = tmp_path / "overhead.yaml"
    path.write_text(MINI_SCENARIO.replace("    - {label: C, lat: 35.0, lon: 114.0}\n", "")
                    + "min_elevation_deg: 89.5\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
    with (out / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 2  # epochs x schemes x users
    assert all(r["serving_sat"] == "" and float(r["se"]) == 0.0 for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["summary"]["mean_total_se"] == {"au": 0.0, "jhu": 0.0, "shu": 0.0}


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/nowhere.yaml"]) == EXIT_CONFIG


def test_validate_bundled_profiles(capsys):
    assert main(["validate", "desk"]) == EXIT_OK
    assert main(["validate", "full"]) == EXIT_OK


def test_run_writes_outputs(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(scenario_file), "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    assert (out / "results.json").exists()
    assert (out / "series.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["provenance"]["seed"] == 11
    stdout = capsys.readouterr().out
    assert "mean total SE" in stdout


def test_run_scheme_and_seed_overrides(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(["run", str(scenario_file), "--out", str(out),
                 "--schemes", "jhu", "--seed", "42"])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["schemes"] == ["jhu"]
    assert summary["provenance"]["seed"] == 42


def test_run_scheme_list_drops_duplicates(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out),
                 "--schemes", "au,AU, au ,jhu"]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["schemes"] == ["au", "jhu"]
    with (out / "results.csv").open() as fh:
        keys = [(r["epoch"], r["scheme"], r["gu_id"]) for r in csv.DictReader(fh)]
    assert keys and len(keys) == len(set(keys))


def test_run_bad_scheme(scenario_file, tmp_path):
    assert main(["run", str(scenario_file), "--out", str(tmp_path),
                 "--schemes", "zf"]) == EXIT_CONFIG


def test_run_overrides_equal_the_file_fields(scenario_file, tmp_path):
    flags, fields = tmp_path / "flags", tmp_path / "fields"
    assert main(["run", str(scenario_file), "--out", str(flags),
                 "--seed", "5", "--schemes", "au,jhu"]) == EXIT_OK
    path = tmp_path / "fields.yaml"
    path.write_text(MINI_SCENARIO.replace("seed: 11\n",
                                          "seed: 5\nschemes: [au, jhu]\n"))
    assert main(["run", str(path), "--out", str(fields)]) == EXIT_OK
    for name in ("results.csv", "series.csv", "summary.json"):
        assert (flags / name).read_bytes() == (fields / name).read_bytes()


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", "-1", "seed: must be a non-negative integer"),
    ("--schemes", "zf", "schemes: unknown scheme 'zf'"),
    ("--schemes", "", "schemes: unknown scheme ''"),
    ("--schemes", "au,,jhu", "schemes: unknown scheme ''"),
])
def test_run_bad_override_exits_2(scenario_file, tmp_path, capsys, flag, value,
                                  message):
    out = tmp_path / "o"
    assert main(["run", str(scenario_file), "--out", str(out),
                 flag, value]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_trace_prints_decisions(scenario_file, tmp_path, capsys):
    code = main(["run", str(scenario_file), "--out", str(tmp_path / "o"),
                 "--trace"])
    assert code == EXIT_OK
    assert "trace" in capsys.readouterr().out


def test_oracle_reports_ratios(scenario_file, capsys):
    assert main(["oracle", str(scenario_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio" in out and "min ratio" in out


def test_oracle_runs_the_analog_greedy_once_per_epoch(scenario_file, capsys):
    with mock.patch.object(cli, "greedy_schedule",
                           wraps=cli.greedy_schedule) as greedy:
        assert main(["oracle", str(scenario_file)]) == EXIT_OK
    modes = [SchemeMode.parse(c.args[1]) for c in greedy.call_args_list]
    assert sorted(modes) == [SchemeMode.AU] * 2 + [SchemeMode.JHU] * 2
    heads = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert heads == [f"epoch {e} [{m}]" for e in range(2)
                     for m in ("au", "shu", "jhu")] + ["min ratio"]


def test_oracle_searches_once_per_beam_design_per_epoch(scenario_file, capsys):
    # SHU and JHU radiate the same hybrid beams, so they share an optimum
    with mock.patch.object(cli, "exhaustive_schedule",
                           wraps=cli.exhaustive_schedule) as search:
        assert main(["oracle", str(scenario_file)]) == EXIT_OK
    modes = [SchemeMode.parse(c.args[1]) for c in search.call_args_list]
    assert modes == [SchemeMode.AU, SchemeMode.SHU] * 2
    optimum = {}
    for line in capsys.readouterr().out.splitlines()[:-1]:
        head, rest = line.split(": ")
        optimum[head] = rest.split()[1]
    for e in range(2):
        assert optimum[f"epoch {e} [shu]"] == optimum[f"epoch {e} [jhu]"]


def test_oracle_space_guard(scenario_file, capsys):
    code = main(["oracle", str(scenario_file), "--max-space", "1"])
    assert code == 1
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_oracle_rejects_nonpositive_space(scenario_file, capsys, value):
    assert main(["oracle", str(scenario_file), "--max-space", value]) == EXIT_CONFIG
    assert "--max-space" in capsys.readouterr().err
