import ctypes
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import reference_channel as ref
from reference_links import phase_projection
from coopsat.beamforming import analog_beamform
from coopsat.channel import ArrayConfig, RfConfig, sample_ray_angles
from coopsat.network import EpochInstance


@pytest.fixture
def small_array():
    return ArrayConfig(n_x=4, n_y=4, n_sub_x=2, n_sub_y=1)


@pytest.fixture
def default_array():
    return ArrayConfig()


@pytest.fixture
def rf():
    return RfConfig()


def draw_paths(directions, cfg, rng):
    """Path angles (L x P x 2) and gains (L x P) of links whose direct
    paths arrive from ``directions`` [(azimuth, elevation), ...], drawn
    from ``rng`` one link after another, each as ``channel.draw_links``
    draws it after its shadow fading: the Laplace offsets of its clusters
    and rays in one call, then its path gains."""
    offsets = np.empty((len(directions), cfg.n_clusters, cfg.n_rays + 1, 2))
    coefs = np.empty((len(directions), cfg.n_paths), dtype=complex)
    for link in range(len(directions)):
        offsets[link] = rng.laplace(scale=cfg.angle_spread_deg, size=offsets.shape[1:])
        coefs[link] = ref.path_coefficients(cfg, rng)
    direct = np.array(directions, dtype=float).reshape(len(directions), 2)
    rays = sample_ray_angles(direct, offsets)[:, :cfg.n_paths - 1]
    return np.concatenate((direct[:, None], rays), axis=1), coefs


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits: unlike ``np.array_equal``, tells
    -0.0 from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def close_to_reference(h, reference, rtol=1e-12) -> bool:
    """Equal shapes, and no entry of a vector (along the last axis) of
    ``h`` off its reference's by more than ``rtol`` times the reference
    vector's norm.  The default is the tolerance for channels whose paths
    are added in another order than the reference's."""
    if h.shape != reference.shape:
        return False
    worst = np.max(np.abs(h - reference), axis=-1, initial=0.0)
    return bool(np.all(worst <= rtol * np.linalg.norm(reference, axis=-1)))


def close_beams(beams, combined, rtol=1e-13) -> bool:
    """Equal shapes, and every beam of ``beams`` (..., N) the phase
    projection of its least-squares combination ``combined`` to
    rounding: an entry that combines to c may differ from c's projection
    by rtol * m / (sqrt(N) |c|), where m is the largest |c| of its beam,
    so one that combines to nearly zero may take any phase.  The default
    is the tolerance for beams whose codeword scores and combination are
    computed in another order than the reference's."""
    if beams.shape != combined.shape:
        return False
    mod = np.abs(combined)
    deviation = np.abs(beams - phase_projection(combined)) * mod * math.sqrt(mod.shape[-1])
    return bool(np.all(deviation <= rtol * mod.max(axis=-1, initial=0.0, keepdims=True)))


def _openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs, from its own
    ``get_corename``: ``np.show_config`` names only the build's target,
    which ``OPENBLAS_CORETYPE`` or another CPU does not change."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        blas = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if (getter := getattr(blas, name, None)) is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def running_build() -> dict:
    """numpy's version, its OpenBLAS kernel and the highest SIMD level
    its loops dispatch to (``NPY_DISABLE_CPU_FEATURES`` lowers it)."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {"numpy": np.__version__, "openblas_core": _openblas_core(),
            "simd": (simd["found"] or simd["baseline"])[-1]}


def digest_builds(recorded: dict) -> str:
    """Message for a failed digest: the build it was recorded on and the
    one that ran, which tells an output that moved from another build."""
    return f"digests recorded on {recorded}, this run on {running_build()}"


def make_instance(rng, n_sats=3, n_gus=5, n_beams=2, array=None, rf_cfg=None,
                  channel_scale=3.0, visible=None):
    """Random synthetic scheduling instance with consistent channels,
    analog beams and user-to-satellite directions; ``visible`` maps each
    user id to the satellites it sees."""
    array = array or ArrayConfig(n_x=4, n_y=4, n_sub_x=2, n_sub_y=1)
    rf_cfg = rf_cfg or RfConfig()
    n = array.n_elements

    sat_ids = tuple(range(n_sats))
    gu_ids = tuple(range(100, 100 + n_gus))
    if visible is None:
        visible = {}
        for g in gu_ids:
            k = int(rng.integers(1, n_sats + 1))
            visible[g] = tuple(sorted(rng.choice(n_sats, size=k, replace=False).tolist()))
    mask = np.zeros((n_gus, n_sats), dtype=bool)
    channels = np.zeros((n_sats, n_gus, n), dtype=complex)
    analog = np.zeros((n_sats, n_gus, n), dtype=complex)
    directions = np.zeros((n_gus, n_sats, 3))
    for u, g in enumerate(gu_ids):
        for s in visible[g]:
            h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2 * n)
            mask[u, s] = True
            channels[s, u] = channel_scale * h
            analog[s, u] = analog_beamform(h, array, k=min(4, n))
            d = rng.standard_normal(3)
            directions[u, s] = d / np.linalg.norm(d)
    return EpochInstance(sat_ids=sat_ids, gu_ids=gu_ids, rf=rf_cfg,
                         n_beams=n_beams, visible_mask=mask, channels=channels,
                         analog=analog, directions=directions)


def visible_sats(instance, g):
    """Satellites user ``g`` sees, by id, in increasing order."""
    row = instance.visible_mask[instance.gu_ids.index(g)]
    return tuple(instance.sat_ids[i] for i in np.flatnonzero(row))


def serving_vector(instance, sats):
    """Serving vector (satellite row per user, -1 unserved) of a
    {user: satellite or None} map; users missing from the map are
    unserved."""
    return np.array([-1 if sats.get(g) is None else instance.sat_ids.index(sats[g])
                     for g in instance.gu_ids], dtype=int)


def serving_sats(instance, serving):
    """{user: satellite or None} map of a serving vector."""
    return {g: None if i < 0 else instance.sat_ids[i]
            for g, i in zip(instance.gu_ids, serving)}


def beam_matrix(instance, serving, i, mixer):
    """Actual transmit columns (N x n) of satellite row ``i``: its analog
    beams toward its users under ``serving``, in increasing user row,
    times its mixer."""
    return instance.analog[i, np.flatnonzero(serving == i)].T @ mixer


def mirror_first_satellite(inst: EpochInstance) -> EpochInstance:
    """Copy satellite 0's links onto satellite 1 (same channels, beams and
    directions), so their candidates tie exactly while the two serve the
    same users."""
    both = inst.visible_mask[:, 0] & inst.visible_mask[:, 1]
    channels, analog, directions = (inst.channels.copy(), inst.analog.copy(),
                                    inst.directions.copy())
    channels[1, both] = channels[0, both]
    analog[1, both] = analog[0, both]
    directions[both, 1] = directions[both, 0]
    return replace(inst, channels=channels, analog=analog, directions=directions)


@st.composite
def instances(draw, max_gus=7):
    """Random instances: any visibility (users who see one satellite or
    none included), one to three beams per satellite, and optionally
    satellites 0 and 1 as exact copies of each other."""
    n_sats = draw(st.integers(1, 4))
    n_gus = draw(st.integers(1, max_gus))
    n_beams = draw(st.integers(1, 3))
    mirror = n_sats >= 2 and draw(st.booleans())
    visible = {}
    for g in range(100, 100 + n_gus):
        sats = draw(st.sets(st.integers(0, n_sats - 1), max_size=n_sats))
        if mirror and sats & {0, 1}:
            sats |= {0, 1}
        visible[g] = tuple(sorted(sats))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = make_instance(rng, n_sats=n_sats, n_gus=n_gus, n_beams=n_beams,
                         visible=visible)
    return mirror_first_satellite(inst) if mirror else inst


@pytest.fixture
def instance_factory():
    return make_instance
