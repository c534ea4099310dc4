"""Metamorphic relations of the whole run: changes to a scenario that
the physics says leave its results alone, or change them in a known way.

Each relation runs desk's users over three epochs, or the same under a
dense constellation where the user antenna's roll-off enters.  Links
compare exactly.  SINR and SE compare to a relative 1e-10, as the output
references do, wherever a change may round the arithmetic otherwise.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from coopsat import GroundUser, emit, load_config, run

RTOL = 1e-10


def desk():
    cfg = load_config("desk")
    return replace(cfg, epochs=replace(cfg.epochs, count=3))


def dense_desk():
    """``desk()`` under a 20 x 20 Walker constellation at 1,200 km, where
    users see satellites close enough to be on the roll-off."""
    cfg = desk()
    return replace(cfg, constellation=replace(cfg.constellation, planes=20,
                                              sats_per_plane=20, altitude_km=1200.0))


SCENARIOS = {"desk": desk, "dense": dense_desk}


def rows(config) -> dict:
    """{(epoch, scheme, user): (serving satellite, SINR, SE)} of a run."""
    return {(r.epoch_index, r.scheme, u.gu_id): (u.serving_sat, u.sinr, u.se)
            for r in run(config).results for u in r.users}


@pytest.fixture(scope="module")
def base():
    return {name: rows(make()) for name, make in SCENARIOS.items()}


def assert_rows_close(got: dict, want: dict, schemes=("au", "shu", "jhu")) -> None:
    keys = [k for k in want if k[1] in schemes]
    assert [got[k][0] for k in keys] == [want[k][0] for k in keys], "links moved"
    np.testing.assert_allclose([got[k][1:] for k in keys], [want[k][1:] for k in keys],
                               rtol=RTOL, atol=0.0)


def test_user_order_changes_nothing(base):
    # substreams and rows are keyed by user id, not by position in gus
    cfg = desk()
    assert rows(replace(cfg, gus=cfg.gus[::-1])) == base["desk"]


def test_a_user_who_sees_no_satellite_changes_no_other_row(base):
    cfg = desk()
    got = rows(replace(cfg, gus=cfg.gus + (GroundUser(99, -75.0, -60.0),)))
    assert {k: v for k, v in got.items() if k[2] != 99} == base["desk"]
    assert {v for k, v in got.items() if k[2] == 99} == {(None, 0.0, 0.0)}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_antenna_gain_and_noise_temperature_up_alike(base, scenario):
    # +3 dB on both sides of the link budget leaves every SNR as it was
    cfg = SCENARIOS[scenario]()
    rf = replace(cfg.rf, satellite_antenna_gain_dbi=cfg.rf.satellite_antenna_gain_dbi + 3.0,
                 noise_temperature_dbk=cfg.rf.noise_temperature_dbk + 3.0)
    assert_rows_close(rows(replace(cfg, rf=rf)), base[scenario])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_jhu_keeps_its_results_at_the_same_power_to_noise(base, scenario):
    # JHU scores with the beams it radiates, whose regularization n/P is
    # at unit noise, so it sees only P/N.  AU and SHU score with
    # unit-power beams at unit noise, so their links move with N.
    cfg = SCENARIOS[scenario]()
    rf = replace(cfg.rf, tx_power_w=2.0 * cfg.rf.tx_power_w,
                 bandwidth_hz=2.0 * cfg.rf.bandwidth_hz)
    assert_rows_close(rows(replace(cfg, rf=rf)), base[scenario], schemes=("jhu",))


def test_au_and_shu_links_do_not_depend_on_the_transmit_power(base):
    cfg = desk()
    got = rows(replace(cfg, rf=replace(cfg.rf, tx_power_w=2.0 * cfg.rf.tx_power_w)))
    keys = [k for k in base["desk"] if k[1] != "jhu"]
    assert [got[k][0] for k in keys] == [base["desk"][k][0] for k in keys]


def test_tracked_labels_and_density_threshold_change_only_what_reads_them(tmp_path):
    cfg = desk()
    emit(run(cfg), tmp_path / "a")
    emit(run(replace(cfg, tracked_labels=("Hefei", "Nanjing"),
                     density_threshold_km=150.0)), tmp_path / "b")
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    totals = [[line for line in (d / "series.csv").read_text().splitlines()
               if ",total," in line] for d in (a, b)]
    assert totals[0] == totals[1]
    summaries = [json.loads((d / "summary.json").read_text())["summary"] for d in (a, b)]
    moved = {k for k in summaries[0] if summaries[0][k] != summaries[1][k]}
    assert moved == {"density", "density_counts"}
