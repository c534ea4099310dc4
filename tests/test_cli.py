import csv
import json

import pytest

from coopsat.cli import EXIT_CONFIG, EXIT_OK, main

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
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_invalid_field_exits_2(tmp_path, capsys, text, field, command):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    args = [command, str(path)] + (["--out", str(tmp_path / "o")]
                                   if command == "run" else [])
    assert main(args) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_run_trace_prints_decisions(scenario_file, tmp_path, capsys):
    code = main(["run", str(scenario_file), "--out", str(tmp_path / "o"),
                 "--trace"])
    assert code == EXIT_OK
    assert "trace" in capsys.readouterr().out


def test_oracle_reports_ratios(scenario_file, capsys):
    assert main(["oracle", str(scenario_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio" in out and "min ratio" in out


def test_oracle_space_guard(scenario_file, capsys):
    code = main(["oracle", str(scenario_file), "--max-space", "1"])
    assert code == 1
    assert "exceeds" in capsys.readouterr().err
