"""A link computed alone has the same bits as in any stack of links.

The geometry, the link budget, the draws' path gains and directions,
the user antenna gain table and the per-user spectral efficiency are
plain numpy over arrays: each value is one element of a ufunc, or a
reduction along a short last axis, so it does not depend on how many
links share the call or on where the link sits in a SIMD vector.  The analog stage adds matrix products, each one
BLAS call of the same shape per link.  A numpy scalar would break this: ``10.0 **
np.float64(x)`` is a scalar power, which rounds as libm does and differs
from ``np.power`` on some values, so a link computed that way alone
would not match its row in a stack.  Each check stacks 1, 7, 8, 9 or 17
links, which fill, cross and end the 4- and 8-wide float64 vectors, and
takes every link of a pool in some stack; a pool of a few hundred links
holds values on which numpy's and libm's arcsine, arctangent, log10 and
power differ.
"""

import math
from unittest import mock

import numpy as np
import pytest

from conftest import make_instance, same_bits
from coopsat import metrics
from coopsat.beamforming import analog_beamform
from coopsat.channel import (ArrayConfig, ChannelConfig, RfConfig, draw_links,
                             large_scale_amplitude, path_loss, sample_ray_angles,
                             vsat_gain_linear)
from coopsat.config import load_config
from coopsat.geometry import (elevation_deg, ground_user_positions, link_geometry, propagate,
                              visibility)
from coopsat.network import EpochInstance, equal_power_mixer

STACK_SIZES = (1, 7, 8, 9, 17)


def stacks(n_items, n):
    """Consecutive stacks of ``n`` of ``n_items`` items, as index ranges:
    from item 0, then shifted by ``n // 2 + 1`` so that each item also
    sits at another place in its stack; the last stack may be shorter."""
    for first in (0, n // 2 + 1):
        for start in range(first, n_items, n):
            yield np.arange(start, min(start + n, n_items))


def assert_rows_alone(stacked, alone, index, what):
    for row, k in zip(stacked, index):
        assert same_bits(np.asarray(row), np.asarray(alone[k])), f"{what}, item {k} of the pool"


@pytest.fixture(scope="module")
def links():
    """The full profile's config, and the satellite state and user
    position of every visible link of its second epoch."""
    cfg = load_config("full")
    t = cfg.epochs.times()[1]
    states = propagate(cfg.constellation, t)
    gus = list(cfg.gus)
    vis = visibility(states, gus, cfg.min_elevation_deg, t)
    rows, users = np.nonzero(vis.visible)
    assert len(rows) > 200
    return cfg, states[rows], ground_user_positions(gus, t)[users]


@pytest.mark.parametrize("n", STACK_SIZES)
def test_geometry_of_a_link_alone_as_in_any_stack(links, n):
    _, sats, gu_pos = links
    alone = [(elevation_deg(sats.position_km[k], gu_pos[k]), link_geometry(sats[k], gu_pos[k]))
             for k in range(len(gu_pos))]
    for index in stacks(len(gu_pos), n):
        assert_rows_alone(elevation_deg(sats.position_km[index], gu_pos[index]),
                          [a[0] for a in alone], index, "elevation")
        geom = link_geometry(sats[index], gu_pos[index])
        for field in ("slant_range_km", "azimuth_sat_deg", "elevation_sat_deg", "direction"):
            assert_rows_alone(getattr(geom, field), [getattr(a[1], field) for a in alone],
                              index, field)


@pytest.mark.parametrize("n", STACK_SIZES)
def test_link_budget_of_a_link_alone_as_in_any_stack(links, n):
    cfg, sats, gu_pos = links
    rf, channel = cfg.rf, cfg.channel
    elevation = elevation_deg(sats.position_km, gu_pos)
    slant = link_geometry(sats, gu_pos).slant_range_km
    shadow = np.random.default_rng(3).normal(0.0, channel.shadow_sigma_db, len(slant))
    loss = path_loss(elevation, slant, shadow, rf, channel)
    # alone from Python floats, which numpy turns into 0-d values
    alone = [path_loss(float(e), float(s), float(x), rf, channel)
             for e, s, x in zip(elevation, slant, shadow)]
    amplitude = [large_scale_amplitude(float(x), rf) for x in loss]
    for index in stacks(len(slant), n):
        stacked = path_loss(elevation[index], slant[index], shadow[index], rf, channel)
        assert_rows_alone(stacked, alone, index, "path loss")
        assert_rows_alone(large_scale_amplitude(loss[index], rf), amplitude, index,
                          "large-scale amplitude")


@pytest.fixture(scope="module")
def draw_pool():
    """A pool of 300 links with the desk profile's paths, link k drawn
    from its own generator as the build draws it, and a function that
    draws any of them again: their path gains and every path's
    direction."""
    cfg = ChannelConfig()
    direct = np.random.default_rng(8).uniform((-180.0, 5.0), (180.0, 90.0), (300, 2))

    def draw(index):
        draws = draw_links([np.random.default_rng([7, k]) for k in index], cfg)
        return draws.gains, sample_ray_angles(direct[index], draws.offsets_deg, cfg)
    return len(direct), draw, [draw([k]) for k in range(len(direct))]


@pytest.mark.parametrize("n", STACK_SIZES)
def test_path_gains_and_directions_of_a_link_alone_as_in_any_stack(draw_pool, n):
    n_links, draw, alone = draw_pool
    for index in stacks(n_links, n):
        gains, angles = draw(index)
        assert_rows_alone(gains, [a[0][0] for a in alone], index, "path gains")
        assert_rows_alone(angles, [a[1][0] for a in alone], index, "path directions")


def _users_instance(directions, visible):
    n_u, n_s = visible.shape
    empty = np.zeros((n_s, n_u, 1), dtype=complex)
    return EpochInstance(tuple(range(n_s)), tuple(range(n_u)), RfConfig(), 1,
                         visible_mask=visible, channels=empty, analog=empty.copy(),
                         directions=directions)


@pytest.mark.parametrize("n", STACK_SIZES)
def test_gain_table_row_of_a_user_alone_as_in_any_stack(n):
    # three satellites within a few degrees of each other as each user
    # sees them, so the angles fall on the roll-off as well as on the
    # floor; each user's row of the table alone and among n users
    rng = np.random.default_rng(9)
    n_users, n_sats = 40, 3
    directions = np.array([0.3, -0.5, 0.8]) + rng.normal(0.0, 0.02, (n_users, n_sats, 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    visible = rng.random((n_users, n_sats)) < 0.85
    alone = [_users_instance(directions[k:k + 1], visible[k:k + 1]).gain_table[0]
             for k in range(n_users)]
    floor, peak = vsat_gain_linear([180.0, 0.0], RfConfig())
    assert np.any((np.array(alone) > floor) & (np.array(alone) < peak))
    for index in stacks(n_users, n):
        table = _users_instance(directions[index], visible[index]).gain_table
        assert_rows_alone(table, alone, index, "gain table row")


@pytest.mark.parametrize("n", STACK_SIZES)
def test_per_user_se_alone_as_in_any_stack(n):
    # n serving vectors of five users, each user served by the one
    # satellite with no interference, so that a user's SINR is g0 times
    # its own-beam power; the powers are chosen where numpy's log2 and
    # math.log2 differ, if any do here, then at random.  user_metrics of
    # each vector alone against one stacked evaluation of all of them
    n_users = 5
    inst = make_instance(np.random.default_rng(5), n_sats=1, n_gus=n_users, n_beams=n_users,
                         visible={g: (0,) for g in range(100, 100 + n_users)})
    g0 = inst.boresight_gain
    draws = np.random.default_rng(0).uniform(0.0, 0.1, 100_000)
    sinr = g0 * draws
    differ = np.log2(1.0 + sinr) != [math.log2(1.0 + x) for x in sinr.tolist()]
    n_vectors = 2 * max(STACK_SIZES)
    own = np.concatenate((draws[differ], draws[~differ]))[:n_vectors * n_users]
    own = own.reshape(n_vectors, n_users)
    serving = np.zeros(n_users, dtype=int)
    mixer = {0: equal_power_mixer(inst, n_users)}
    alone = []
    for row in own:
        powers = (np.zeros((1, n_users)), row, np.zeros(n_users))
        with mock.patch.object(metrics, "beam_powers", return_value=powers):
            alone.append(np.array([u.se for u in metrics.user_metrics(inst, serving, mixer)]))
    for index in stacks(n_vectors, n):
        powers = (np.zeros((len(index), 1, n_users)), own[index], np.zeros((len(index), n_users)))
        _, se, _ = metrics._evaluate(inst, np.tile(serving, (len(index), 1)), powers)
        assert_rows_alone(se, alone, index, "per-user SE")


@pytest.mark.parametrize("n", STACK_SIZES)
@pytest.mark.parametrize("n_x,n_y", [(16, 16), (8, 8), (1, 7), (5, 3)])
def test_analog_beam_of_a_link_alone_as_in_any_stack(n_x, n_y, n):
    # complex Gaussian channels at scales from 1e-8 to 1e3, and scaled
    # basis vectors: e_0 ties every codeword's score exactly, so its
    # codewords are ranked by the stable sort, in a stack as alone
    array = ArrayConfig(n_x=n_x, n_y=n_y)
    n_el = array.n_elements
    rng = np.random.default_rng(17)
    pool = ((rng.standard_normal((34, n_el)) + 1j * rng.standard_normal((34, n_el)))
            * 10.0 ** rng.uniform(-8.0, 3.0, (34, 1)))
    pool[::5] = 0.0
    pool[::5, 0] = 1.0 - 2.0j
    pool[2::5] = 0.0
    pool[2::5, n_el - 1] = 3.0
    k = min(4, n_el)
    alone = [analog_beamform(h, array, k=k) for h in pool]
    for index in stacks(len(pool), n):
        assert_rows_alone(analog_beamform(pool[index], array, k=k), alone, index, "analog beam")
