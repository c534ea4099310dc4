"""Satellite-to-ground MISO channel model.

A channel vector is the product of a scalar large-scale amplitude
(free-space loss, shadow fading, gaseous absorption, scintillation,
antenna gains, noise normalization) and a small-scale fading vector
built from planar-array steering vectors: a log-normal direct path
plus Rayleigh diffuse rays (Loo model).  One ``ChannelConfig``, the
scenario file's ``channel`` section, holds the fading and attenuation
parameters that ``draw_links``, ``clear_sky_loss_db``, ``path_loss`` and
``small_scale`` take.

The noise power is folded into the large-scale amplitude, so all
downstream SINR math uses unit noise power.

An epoch's channels are drawn in two parts.  Only the random draws are
made link by link: ``draw_links`` takes each link's draws from its own
substream, in a fixed order, into one row of per-epoch arrays
(``LinkDraws``).  Everything else runs once over every link of the
epoch, in numpy, so that a link has the same bits alone as in any
stack: ``draw_links`` turns the fading draws into path gains,
``path_loss`` and ``sample_ray_angles`` convert the shadow fading and
the angle offsets, ``large_scale_amplitude`` the path losses, and
``small_scale`` synthesizes the fading vectors: one trig pass gives the
wavenumbers of every path of every link, and each link's channel is
then one small matrix product of its paths' per-axis steering factors
(the planar array's steering vectors are outer products of one factor
per axis), batched over blocks of links.  Every per-path array lays
out a link's paths alike: its direct path, then its diffuse rays if
they carry power (``ChannelConfig.n_paths``).

Every field that enters the link budget has a physical range, stated
with its source on the config dataclass that holds it (``RfConfig``,
``ChannelConfig``, ``ConstellationConfig``, ``GroundUser``;
``ScenarioConfig.min_elevation_deg`` >= 5 degrees).  At
those ranges every link's gain before its shadow-fading draw,
``large_scale_amplitude`` squared, stays far inside the float range:

* the longest link is 45,379 km, to a satellite at 40,000 km seen at 5
  degrees by a user at -0.5 km.  Its free-space loss at 1 THz is 245.6
  dB, its gas term 100 / sin 5 deg = 1,147.4 dB, and with 20 dB of
  scintillation the loss is 1,413.0 dB.  With a 0 dBi satellite antenna
  and kTB = -68.6 dBW (50 dBK over 100 GHz) the gain is -1,344.4 dB;
* the shortest link is 150 km, from a satellite at 160 km to a user at
  10 km at the zenith.  Its free-space loss at 100 MHz is 116.0 dB,
  with no gas or scintillation; with a 70 dBi antenna and kTB = -198.6
  dBW (0 dBK over 1 kHz) the gain is +152.6 dB;
* floats run from -3,076.5 dB (the smallest normal) to +3,082.5 dB, a
  margin of over 1,700 dB either way.  numpy's normal draw never
  exceeds about 13.7 standard deviations, so a 20 dB shadow-fading
  spread moves a gain by at most about 275 dB.

``large_scale_amplitude`` still rejects a gain out of the float range,
the one run-time guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _RADIANS_PER_DEGREE, _check_ranges

SPEED_OF_LIGHT_M_S = 299792458.0
BOLTZMANN_J_K = 1.380649e-23

# Gain-beamwidth constant of a parabolic aperture: G ~ 30000 / theta_3dB^2
# with theta in degrees.
_APERTURE_GAIN_CONST = 30000.0

# Links per block of ``small_scale``: at 16 x 16 elements and 101 paths
# a whole epoch at once raises the peak memory, larger blocks are no
# faster.
_BLOCK = 8


class LinkInvalidError(ValueError):
    """Raised when a link cannot physically exist (satellite below horizon)."""


@dataclass(frozen=True)
class RfConfig:
    """Radio front-end parameters of the downlink, each in a physical
    range: the carrier from 100 MHz (the lowest satellite downlink bands)
    to 1 THz, the top of ITU-R P.676's gaseous-attenuation model; the
    bandwidth from a 1 kHz telemetry channel to 100 GHz; the noise
    temperature from 1 K to 100,000 K (0 to 50 dBK); antenna gains from
    isotropic to 70 dBi, past any satellite or VSAT antenna; the
    sidelobe floor from 0 to 60 dB below peak; the transmit power from
    1 mW to 100 kW."""

    carrier_frequency_hz: float = 20e9
    bandwidth_hz: float = 400e6
    noise_temperature_dbk: float = 24.0
    satellite_antenna_gain_dbi: float = 21.5
    vsat_max_gain_dbi: float = 40.0
    tx_power_w: float = 80.0
    vsat_floor_suppression_db: float = 30.0

    def __post_init__(self) -> None:
        _check_ranges(self, {
            "carrier_frequency_hz": (1e8, 1e12), "bandwidth_hz": (1e3, 1e11),
            "noise_temperature_dbk": (0.0, 50.0), "satellite_antenna_gain_dbi": (0.0, 70.0),
            "vsat_max_gain_dbi": (0.0, 70.0), "tx_power_w": (1e-3, 1e5),
            "vsat_floor_suppression_db": (0.0, 60.0)})

    @property
    def noise_power_w(self) -> float:
        """k * T * B with the noise temperature given in dBK."""
        t_kelvin = 10.0 ** (self.noise_temperature_dbk / 10.0)
        return BOLTZMANN_J_K * t_kelvin * self.bandwidth_hz

    @property
    def vsat_theta_3db_deg(self) -> float:
        """Half-power angle: the aperture relation gives the full 3 dB
        beamwidth, the gain is 3 dB down at half of it."""
        g_lin = 10.0 ** (self.vsat_max_gain_dbi / 10.0)
        return 0.5 * math.sqrt(_APERTURE_GAIN_CONST / g_lin)


@dataclass(frozen=True)
class ArrayConfig:
    """Planar array layout: a grid of sub-arrays, each one an n_x-by-n_y
    element grid driven by a single RF chain (one spot beam each)."""

    n_sub_x: int = 8
    n_sub_y: int = 4
    n_x: int = 8
    n_y: int = 8
    element_spacing: float = 0.5  # in wavelengths

    def __post_init__(self) -> None:
        for name in ("n_sub_x", "n_sub_y", "n_x", "n_y"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        if self.element_spacing <= 0.0:
            raise ValueError("element_spacing: must be > 0")

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_y

    @property
    def n_beams(self) -> int:
        return self.n_sub_x * self.n_sub_y


@dataclass(frozen=True)
class ChannelConfig:
    """The channel model, the scenario file's ``channel`` section: Loo
    fading over a clear-sky link budget.

    Loo fading: direct-path amplitude log-normal (parameters in dB),
    diffuse rays Rayleigh with total mean power ``multipath_power_db``
    relative to an unfaded direct path.  Use ``-inf`` (``-.inf`` or
    ``"-inf"`` in a scenario file) to disable the diffuse part.  The dB
    ranges hold the Loo parameters fitted for land-mobile satellite
    channels, light to heavy shadowing (Loo 1985, ITU-R P.681), with
    margin: mean -40 to 10 dB, spread 0 to 20 dB, diffuse power -60 to
    10 dB.  Rays spread by 0 to 90 degrees.

    Clear-sky attenuation terms and shadow-fading spread (all dB):
    gaseous absorption at the zenith 0 to 100 dB (ITU-R P.676 up to
    1 THz, its lines at their strongest excepted), tropospheric
    scintillation 0 to 20 dB (ITU-R P.618) and shadow fading 0 to 20 dB
    (ITU-R P.681, Loo 1985)."""

    n_clusters: int = 2
    n_rays: int = 10
    direct_amp_mean_db: float = -0.5
    direct_amp_std_db: float = 1.0
    multipath_power_db: float = -15.0
    angle_spread_deg: float = 2.0
    zenith_gas_db: float = 0.5
    scintillation_db: float = 0.3
    shadow_sigma_db: float = 1.2

    def __post_init__(self) -> None:
        for name in ("n_clusters", "n_rays"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        _check_ranges(self, {
            "direct_amp_mean_db": (-40.0, 10.0), "direct_amp_std_db": (0.0, 20.0),
            "multipath_power_db": (-60.0, 10.0), "angle_spread_deg": (0.0, 90.0),
            "zenith_gas_db": (0.0, 100.0), "scintillation_db": (0.0, 20.0),
            "shadow_sigma_db": (0.0, 20.0)})

    @property
    def direct_mean_square(self) -> float:
        """E[|m0|^2] for 20*log10|m0| ~ N(mean, std^2)."""
        c = math.log(10.0) / 10.0
        return math.exp(c * self.direct_amp_mean_db
                        + 0.5 * (c * self.direct_amp_std_db) ** 2)

    @property
    def multipath_power(self) -> float:
        return 10.0 ** (self.multipath_power_db / 10.0)

    @property
    def n_paths(self) -> int:
        """Paths per link: the direct path, then every diffuse ray unless
        the power per ray is 0 (``multipath_power_db: -inf``)."""
        n_rays = self.n_clusters * self.n_rays
        return 1 + n_rays if self.multipath_power / n_rays > 0.0 else 1

    @property
    def normalization(self) -> float:
        """Scale factor making the mean small-scale energy exactly one."""
        return 1.0 / math.sqrt(self.direct_mean_square + self.multipath_power)


def _wavenumbers(phi_deg, theta_deg, array: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-element phase steps, -2j pi d cos(theta) cos(phi) along x and
    -2j pi d cos(theta) sin(phi) along y, of the directions at azimuths
    ``phi_deg`` and elevations ``theta_deg`` (same shape, any), as
    C-contiguous arrays.  The conversion to radians is one multiplication
    by ``pi / 180``, as ``math.radians`` does.  The steps reuse their
    buffers: besides the two results, one float array and one angle array
    are held."""
    phi = np.multiply(phi_deg, _RADIANS_PER_DEGREE, order="C")
    trig = np.multiply(theta_deg, _RADIANS_PER_DEGREE, order="C")
    step = -2j * math.pi * array.element_spacing * np.cos(trig, out=trig)
    kx = step * np.cos(phi, out=trig)
    return kx, np.multiply(step, np.sin(phi, out=trig), out=step)


def _axis_factors(first, steps: np.ndarray, n: int) -> np.ndarray:
    """``first * steps ** m`` for m = 0 .. n - 1, as ``(B, n, P)`` for
    ``steps`` of shape ``(B, P)``: a running product of ``steps``, one
    complex ``exp`` per path and axis rather than one per element.  Each
    step multiplies whole (B, P) slices: ``np.cumprod`` along the short
    element axis runs its loop row by row, several times slower."""
    out = np.empty((steps.shape[0], n, steps.shape[1]), dtype=complex)
    out[:, 0] = first
    for m in range(1, n):
        np.multiply(out[:, m - 1], steps, out=out[:, m])
    return out


@dataclass(frozen=True, eq=False)
class LinkDraws:
    """The random draws of L links, one row each (see ``draw_links``),
    with the gains of their P = ``ChannelConfig.n_paths`` paths."""

    shadow_db: np.ndarray    # (L,) N(0, shadow_sigma_db^2)
    offsets_deg: np.ndarray  # (L, C, R + 1, 2) Laplace, per cluster its
                             # center's offset, then its rays'
    gains: np.ndarray        # (L, P) complex, direct path first


def draw_links(rngs: list[np.random.Generator], cfg: ChannelConfig) -> LinkDraws:
    """Draw the channels of one link per generator of ``rngs``, link k
    from the k-th one alone, in this order: its shadow fading; every
    cluster's center offset followed by its ray offsets, all in one
    zero-mean ``laplace`` call (which consumes the stream as one call per
    center and per ray would), drawn even when the link has no rays; its
    direct-path amplitude and phase; then, only if the rays carry power,
    the ray amplitudes and phases.  Only the draws happen one link after
    another; the path gains are then computed for every link at once.

    Direct path: amplitude 10^(A/20), A ~ N(mean_db, std_db^2).  Diffuse
    rays: Rayleigh amplitudes sharing ``multipath_power`` equally.  All
    phases uniform on [0, 2 pi)."""
    n_links, n_rays = len(rngs), cfg.n_paths - 1
    shadow_db = np.empty(n_links)
    offsets_deg = np.empty((n_links, cfg.n_clusters, cfg.n_rays + 1, 2))
    direct_amp_db, direct_phase = np.empty(n_links), np.empty(n_links)  # phase in turns
    ray_amp, ray_phase = np.empty((n_links, n_rays)), np.empty((n_links, n_rays))
    ray_scale = math.sqrt(cfg.multipath_power / n_rays / 2.0) if n_rays else 0.0
    for link, rng in enumerate(rngs):
        shadow_db[link] = rng.normal(0.0, cfg.shadow_sigma_db)
        offsets_deg[link] = rng.laplace(scale=cfg.angle_spread_deg, size=offsets_deg.shape[1:])
        direct_amp_db[link] = rng.normal(cfg.direct_amp_mean_db, cfg.direct_amp_std_db)
        direct_phase[link] = rng.uniform()
        if n_rays:
            ray_amp[link] = rng.rayleigh(scale=ray_scale, size=n_rays)
            ray_phase[link] = rng.uniform(0.0, 2.0 * math.pi, size=n_rays)
    direct = np.power(10.0, direct_amp_db / 20.0) * np.exp(2j * math.pi * direct_phase)
    gains = np.concatenate((direct[:, None], ray_amp * np.exp(1j * ray_phase)), axis=1)
    return LinkDraws(shadow_db, offsets_deg, gains)


def sample_ray_angles(direct_deg: np.ndarray, offsets_deg: np.ndarray,
                      cfg: ChannelConfig) -> np.ndarray:
    """Arrival directions (L x P x 2, azimuth and elevation in degrees)
    of every path of L links whose direct paths arrive from
    ``direct_deg`` (L x 2): the direct path's, then the diffuse rays' if
    they carry power.  The rays are sampled with the zero-mean Laplace
    draws ``LinkDraws.offsets_deg``: cluster centers around the direct
    path, the rays of a cluster around its center.  Adding the means to
    the zero-mean draws keeps the bits of drawing around them:
    ``laplace`` returns ``loc +/- x``, and ``0 +/- x`` is exact."""
    n_links, n_clusters, n_offsets, _ = offsets_deg.shape
    centers = offsets_deg[:, :, :1] + direct_deg[:, None, None, :]
    rays = (offsets_deg[:, :, 1:] + centers).reshape(n_links, n_clusters * (n_offsets - 1), 2)
    return np.concatenate((direct_deg[:, None], rays[:, :cfg.n_paths - 1]), axis=1)


def small_scale(angles: np.ndarray, coefs: np.ndarray, cfg: ChannelConfig,
                array: ArrayConfig) -> np.ndarray:
    """Small-scale fading vectors (L x N), with mean energy one, of L
    links whose paths arrive from ``angles`` (L x P x 2, azimuth and
    elevation in degrees, from ``sample_ray_angles``) with gains
    ``coefs`` (L x P, ``LinkDraws.gains``).

    A path from azimuth phi and elevation theta steers element (p, q)
    of the n_x x n_y grid by exp(kx p + ky q) / sqrt(N), with kx and ky
    from ``_wavenumbers``; element (p, q) is entry p * n_y + q, the
    Kronecker order of the 2D DFT codebook.  So a link's channel, as an
    n_x x n_y matrix, is AX^T diag(c * normalization / sqrt(N)) AY,
    where AX (P x n_x) and AY (P x n_y) hold its paths' per-axis
    factors: one matrix product per link, batched ``_BLOCK`` links at a
    time, so working memory is O(L x P + block x P x (n_x + n_y)).  The
    scale rides in the factors' first entries (``_axis_factors``): AX's
    start at normalization / sqrt(N), AY's at the path gains c.

    Each link's product is a BLAS call of the same shape and layout
    alone as in any stack, so a link's channel has the same bits alone
    as in any stack and at 1 or 2 BLAS threads (``tests/test_channel.py``
    checks it at 16 x 16 elements with 101 paths, across block edges).
    The paths are added in the BLAS kernel's order, so the channel
    matches the one-path-at-a-time sum of ``tests/reference_channel.py``
    to max |difference| <= 1e-12 ||h|| per link, not bit for bit, and
    the pinned digests hold on the OpenBLAS kernel they were recorded
    with only.
    """
    n_links, n_paths = coefs.shape
    if angles.shape != (n_links, n_paths, 2) or not n_paths:
        raise ValueError(f"expected path angles of shape {(n_links, n_paths, 2)} "
                         f"with at least one path, got {angles.shape}")
    kx, ky = _wavenumbers(angles[:, :, 0], angles[:, :, 1], array)  # L x P each
    steps_x, steps_y = np.exp(kx, out=kx), np.exp(ky, out=ky)
    scale = cfg.normalization / math.sqrt(array.n_elements)
    h = np.empty((n_links, array.n_x, array.n_y), dtype=complex)
    for start in range(0, n_links, _BLOCK):
        block = slice(start, start + _BLOCK)
        ax = _axis_factors(scale, steps_x[block], array.n_x)
        ay = _axis_factors(coefs[block], steps_y[block], array.n_y)
        np.matmul(ax, ay.swapaxes(1, 2), out=h[block])
    return h.reshape(n_links, array.n_elements)


def clear_sky_loss_db(elevation_deg, slant_range_km, rf: RfConfig,
                      cfg: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Free-space loss and cosecant-scaled gaseous absorption (dB) of
    links at ``elevation_deg`` above the users' horizon and
    ``slant_range_km`` away (same shape, any).  The first link at
    elevation <= 0 is a ``LinkInvalidError``."""
    elevation_deg = np.asarray(elevation_deg, dtype=float)
    below = elevation_deg <= 0.0
    if below.any():
        raise LinkInvalidError("satellite below horizon "
                               f"(elevation {elevation_deg[below][0]:.2f} deg)")
    d_m = np.asarray(slant_range_km, dtype=float) * 1e3
    fspl = 20.0 * np.log10(4.0 * math.pi * d_m * rf.carrier_frequency_hz
                           / SPEED_OF_LIGHT_M_S)
    return fspl, cfg.zenith_gas_db / np.sin(elevation_deg * _RADIANS_PER_DEGREE)


def path_loss(clear_sky: tuple[np.ndarray, np.ndarray], shadow_db,
              cfg: ChannelConfig) -> np.ndarray:
    """Large-scale path loss (dB) of links: the free-space loss plus
    their shadow-fading draws ``shadow_db``, the gaseous absorption
    (``clear_sky``, from ``clear_sky_loss_db``) and scintillation, added
    in that order."""
    fspl, gas = clear_sky
    return fspl + shadow_db + gas + cfg.scintillation_db


def vsat_gain_dbi(off_boresight_deg, rf: RfConfig) -> np.ndarray:
    """Narrow-beam user antenna gain versus off-boresight angle (degrees,
    any shape): quadratic roll-off (3 dB down at the half-power angle),
    floored ``vsat_floor_suppression_db`` below peak.  A NaN angle gives
    a NaN gain."""
    angle = np.asarray(off_boresight_deg, dtype=float)
    if np.any(angle < 0.0):
        raise ValueError("off_boresight_deg must be >= 0")
    rolloff = 3.0 * np.square(angle / rf.vsat_theta_3db_deg)
    return rf.vsat_max_gain_dbi - np.minimum(rolloff, rf.vsat_floor_suppression_db)


def vsat_gain_linear(off_boresight_deg, rf: RfConfig) -> np.ndarray:
    return np.power(10.0, vsat_gain_dbi(off_boresight_deg, rf) / 10.0)


def large_scale_amplitude(pl_total_db, rf: RfConfig) -> np.ndarray:
    """Amplitude gain of each path loss in ``pl_total_db`` (dB, any
    shape), combining the satellite antenna gain, the path loss and the
    noise normalization (resulting SINR math uses unit noise power).
    The user antenna gain depends on which satellite the user tracks, so
    it is applied at evaluation, not here.  A gain past the float range,
    or else one that underflows to 0, is a ``ValueError`` naming the
    first such gain."""
    g_db = rf.satellite_antenna_gain_dbi - np.asarray(pl_total_db, dtype=float)
    with np.errstate(over="ignore"):
        gain = np.power(10.0, g_db / 10.0) / rf.noise_power_w
    for bad, problem in ((gain == math.inf, "overflows"), (gain == 0.0, "underflows")):
        if bad.any():
            raise ValueError(f"link gain of {g_db[bad].flat[0]:.1f} dB {problem}")
    return np.sqrt(gain)
