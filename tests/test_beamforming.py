import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_links as ref_links
from conftest import beam_matrix, same_bits
from coopsat import beamforming
from coopsat.beamforming import analog_beamform, build_codebook, regularized_zf
from coopsat.channel import ArrayConfig
from coopsat.network import equal_power_beams, hybrid_beams


def cn_vector(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


class TestCodebook:
    def test_1x1(self):
        cb = build_codebook(ArrayConfig(n_x=1, n_y=1, n_sub_x=1, n_sub_y=1))
        assert np.allclose(cb, [[1.0]])

    def test_2point(self):
        cb = build_codebook(ArrayConfig(n_x=2, n_y=1, n_sub_x=1, n_sub_y=1))
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(cb, expected, atol=1e-12)

    @pytest.mark.parametrize("nx,ny", [(2, 2), (4, 4), (8, 8), (8, 4)])
    def test_unitary(self, nx, ny):
        cb = build_codebook(ArrayConfig(n_x=nx, n_y=ny, n_sub_x=1, n_sub_y=1))
        n = nx * ny
        assert np.max(np.abs(cb.conj().T @ cb - np.eye(n))) <= 1e-10


def phase_projection(combined):
    """Unit-modulus phases of ``combined`` scaled to 1/sqrt(N); entries
    that are exactly zero get phase zero."""
    mod = np.abs(combined)
    phases = np.where(mod > 0.0, combined / np.where(mod > 0.0, mod, 1.0), 1.0)
    return phases / math.sqrt(len(combined))


def documented_beam(h, cb, k):
    """The construction ``analog_beamform`` documents, one step at a time:
    the top-k codewords by |D^H h|^2 (stable sort, so the lower index wins
    a tie), their least-squares combination, then the phase projection."""
    scores = np.abs(cb.conj().T @ h) ** 2
    d_k = cb[:, np.argsort(-scores, kind="stable")[:k]]
    return phase_projection(d_k @ (d_k.conj().T @ h))


class TestAnalogBeamform:
    def test_channel_equal_to_codeword(self, default_array):
        cb = build_codebook(default_array)
        for col in (0, 7, 33):
            h = cb[:, col]
            beam = analog_beamform(h, cb, k=4)
            # the combination is the codeword itself, whose entries
            # already have modulus 1/sqrt(N)
            assert np.allclose(beam, h, atol=1e-12)
            gain = abs(np.vdot(h, beam)) ** 2
            assert gain == pytest.approx(1.0, abs=1e-10)

    def test_full_codebook_reconstructs_channel(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(1)
        n = default_array.n_elements
        h = cn_vector(rng, n)
        beam = analog_beamform(h, cb, k=n)
        # a complete basis combines back to h: the beam is h's phases
        assert np.allclose(beam, h / np.abs(h) / math.sqrt(n), atol=1e-10)

    def test_equal_amplitude_entries(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(2)
        n = default_array.n_elements
        for _ in range(20):
            beam = analog_beamform(cn_vector(rng, n), cb, k=4)
            assert np.allclose(np.abs(beam), 1.0 / math.sqrt(n), atol=1e-12)
            assert np.linalg.norm(beam) == pytest.approx(1.0, abs=1e-12)

    def test_least_squares_residual_orthogonality(self, default_array):
        # the beam projects the least-squares fit of h by the top-4
        # codewords, solved here without using their orthonormality
        cb = build_codebook(default_array)
        rng = np.random.default_rng(3)
        h = cn_vector(rng, default_array.n_elements)
        top = np.argsort(-np.abs(cb.conj().T @ h) ** 2, kind="stable")[:4]
        d_k = cb[:, top]
        combined = d_k @ np.linalg.lstsq(d_k, h, rcond=None)[0]
        assert np.max(np.abs(d_k.conj().T @ (h - combined))) <= 1e-10
        assert np.allclose(analog_beamform(h, cb, k=4), phase_projection(combined),
                           atol=1e-10)

    def test_gain_beats_best_single_codeword(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(4)
        n = default_array.n_elements
        wins = 0
        trials = 1000
        for _ in range(trials):
            h = cn_vector(rng, n)
            beam = analog_beamform(h, cb, k=4)
            combined = abs(np.vdot(h, beam)) ** 2
            single = float(np.max(np.abs(cb.conj().T @ h) ** 2))
            wins += combined >= single
        assert wins / trials >= 0.95

    def test_phase_rotation_invariance(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(5)
        h = cn_vector(rng, default_array.n_elements)
        baseline = analog_beamform(h, cb, k=4)
        for alpha in (0.3, 1.7, 4.0):
            # same codewords, so the beam turns with the channel
            rotated = analog_beamform(h * np.exp(1j * alpha), cb, k=4)
            assert np.allclose(rotated, baseline * np.exp(1j * alpha), atol=1e-12)
            gain_r = abs(np.vdot(h * np.exp(1j * alpha), rotated))
            gain_b = abs(np.vdot(h, baseline))
            assert gain_r == pytest.approx(gain_b, rel=1e-12)

    @pytest.mark.parametrize("n_x,n_y", [(8, 8), (1, 7), (5, 3)])
    def test_ranking_follows_codeword_scores(self, n_x, n_y):
        # every prefix of the ranking (the stable sort of |D^H h|^2,
        # computed here with the conjugated codebook) picks the beam
        cb = build_codebook(ArrayConfig(n_x=n_x, n_y=n_y, n_sub_x=1, n_sub_y=1))
        n = n_x * n_y
        rng = np.random.default_rng(12)
        for _ in range(50):
            h = cn_vector(rng, n) * 10.0 ** rng.uniform(-8.0, 3.0)
            for k in range(1, n + 1):
                assert np.array_equal(analog_beamform(h, cb, k=k),
                                      documented_beam(h, cb, k))

    def test_tie_break_lower_index(self):
        # h = [1, 0] scores exactly 0.5 on both codewords of the real
        # 2-point DFT: the lower index must win the tie
        array = ArrayConfig(n_x=2, n_y=1, n_sub_x=1, n_sub_y=1)
        cb = build_codebook(array)
        h = np.array([1.0, 0.0])
        scores = np.abs(cb.conj().T @ h) ** 2
        assert scores[0] == scores[1]  # exact tie
        beam = analog_beamform(h, cb, k=1)
        assert np.allclose(beam, cb[:, 0], atol=1e-15)  # codeword 0, not 1

    def test_degenerate_entry_gets_phase_zero(self):
        # orthonormal identity codebook reproduces h = [1, 0] exactly,
        # leaving the second entry at modulus zero
        beam = analog_beamform(np.array([1.0, 0.0]), np.eye(2, dtype=complex), k=2)
        assert np.allclose(np.abs(beam), 1.0 / math.sqrt(2.0))
        assert beam[1] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_rejects_bad_inputs(self, default_array):
        cb = build_codebook(default_array)
        with pytest.raises(ValueError):
            analog_beamform(np.zeros(64), cb, k=4)
        with pytest.raises(ValueError):
            analog_beamform(np.ones(64), cb, k=0)
        with pytest.raises(ValueError):
            analog_beamform(np.ones(63), cb, k=4)


def mixed_channels(codebook, n_links, seed):
    """Channels of four kinds, drawn at random: complex Gaussian at scales
    from 1e-8 to 1e3; a scaled standard basis vector, whose codeword
    scores tie exactly (every one of them for the first vector); a scaled
    codeword; a repeat of the channel before."""
    rng = np.random.default_rng(seed)
    n = codebook.shape[0]
    rows = []
    for _ in range(n_links):
        kind = int(rng.integers(4))
        scale = cn_vector(rng, 1)[0] * 10.0 ** rng.uniform(-8.0, 3.0)
        if kind == 1:
            h = np.zeros(n, dtype=complex)
            h[int(rng.integers(n)) if rng.integers(2) else 0] = scale
        elif kind == 2:
            h = scale * codebook[:, int(rng.integers(n))]
        elif kind == 3 and rows:
            h = rows[-1]
        else:
            h = scale * cn_vector(rng, n)
        rows.append(h)
    return np.array(rows, dtype=complex).reshape(n_links, n)


class TestStackedAnalogBeamform:
    """Every channel's beam from the stacked, blocked analog stage has the
    bits of the one-channel loop it replaced, which the result files pin:
    whatever the block size, the position in a block, or the stack."""

    @settings(max_examples=150, deadline=None)
    @given(n_x=st.integers(1, 6), n_y=st.integers(1, 6), k_share=st.floats(0.0, 1.0),
           n_links=st.integers(0, 40), block=st.sampled_from([1, 3, 8, 16]),
           seed=st.integers(0, 2**32 - 1))
    @example(n_x=1, n_y=1, k_share=0.0, n_links=5, block=3, seed=0)  # one element
    @example(n_x=8, n_y=8, k_share=0.0, n_links=0, block=16, seed=1)  # no channel
    @example(n_x=8, n_y=8, k_share=0.0, n_links=1, block=16, seed=2)  # k = 1
    @example(n_x=8, n_y=8, k_share=1.0, n_links=17, block=16, seed=3)  # k = N
    @example(n_x=16, n_y=16, k_share=0.012, n_links=20, block=16, seed=4)  # wide-array
    def test_equals_per_channel_reference(self, n_x, n_y, k_share, n_links, block, seed):
        cb = build_codebook(ArrayConfig(n_x=n_x, n_y=n_y))
        n = n_x * n_y
        k = 1 + round(k_share * (n - 1))
        h = mixed_channels(cb, n_links, seed)
        with mock.patch.object(beamforming, "_BLOCK", block):
            beams = analog_beamform(h, cb, k=k)
        expected = [ref_links.analog_beamform(row, cb, k) for row in h]
        assert same_bits(beams, np.array(expected, dtype=complex).reshape(h.shape))
        for row, beam in zip(h, beams):  # one channel is the one-row case
            assert same_bits(analog_beamform(row, cb, k=k), beam)

    def test_basis_channel_ties_every_codeword(self):
        # the tie the strategy relies on: e_0 scores every codeword alike
        cb = build_codebook(ArrayConfig(n_x=4, n_y=2))
        scores = np.abs(cb.T @ np.eye(8)[0]) ** 2
        assert np.all(scores == scores[0])

    def test_stack_shape_and_zero_channel(self, default_array):
        cb = build_codebook(default_array)
        h = mixed_channels(cb, 6, 9).reshape(2, 3, -1)
        beams = analog_beamform(h, cb, k=4)
        assert beams.shape == h.shape
        assert same_bits(beams[1, 2], analog_beamform(h[1, 2], cb, k=4))
        h[1, 2] = 0.0
        with pytest.raises(ValueError, match=r"channel vector at \(1, 2\) is zero"):
            analog_beamform(h, cb, k=4)

    def test_codebook_is_built_once_and_read_only(self):
        array = ArrayConfig(n_x=3, n_y=2)
        cb = build_codebook(array)
        assert build_codebook(ArrayConfig(n_x=3, n_y=2)) is cb
        with pytest.raises(ValueError, match="read-only"):
            cb[0, 0] = 0.0


class TestRegularizedZf:
    def test_identity_channel_beta_zero(self):
        zf = regularized_zf(np.eye(3), tx_power_w=10.0, beta=0.0)
        assert np.allclose(zf, np.eye(3), atol=1e-12)

    def test_exact_nulling_beta_zero(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        zf = regularized_zf(h, tx_power_w=10.0, beta=0.0)
        prod = h @ zf
        off = prod - np.diag(np.diag(prod))
        leakage = np.max(np.abs(off)) / np.min(np.abs(np.diag(prod)))
        assert leakage <= 1e-8

    def test_2x2_closed_form_oracle(self):
        # independent 2x2 matrix algebra: adjugate inverse computed by hand
        h = np.array([[1.0, 0.1], [0.2, 1.0]])
        beta = 0.5
        gram = h @ h.T + beta * np.eye(2)
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        inv = np.array([[gram[1, 1], -gram[0, 1]],
                        [-gram[1, 0], gram[0, 0]]]) / det
        expected = h.T @ inv
        zf = regularized_zf(h, tx_power_w=10.0, beta=beta)
        assert np.allclose(zf, expected, rtol=1e-12)

    def test_default_beta_large_system_value(self):
        # the default is beta = n / P; on the identity F = I / (1 + beta)
        rng = np.random.default_rng(7)
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(regularized_zf(h, tx_power_w=80.0),
                              regularized_zf(h, tx_power_w=80.0, beta=5.0 / 80.0))
        assert np.allclose(regularized_zf(np.eye(5), tx_power_w=80.0),
                           np.eye(5) / (1.0 + 5.0 / 80.0), rtol=1e-12)

    def test_singular_beta_zero_falls_back_to_pinv(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        zf = regularized_zf(h, tx_power_w=1.0, beta=0.0)
        assert np.allclose(zf, np.linalg.pinv(h))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            regularized_zf(np.ones((2, 3)), 1.0)


class TestHybridAndPowerScaling:
    def test_single_user_hybrid_is_scaled_analog(self, instance_factory):
        inst = instance_factory(np.random.default_rng(9), n_sats=1, n_gus=1,
                                visible={100: (0,)})
        (mixer,) = hybrid_beams(inst, {0: [0]}).values()
        hybrid = beam_matrix(inst, np.zeros(1, dtype=int), 0, mixer)
        w = inst.analog[0, 0][:, None]
        assert np.linalg.norm(hybrid) ** 2 == pytest.approx(80.0, rel=1e-12)
        # collinear with the unit-norm analog beam
        assert abs(np.vdot(w, hybrid)) == pytest.approx(np.linalg.norm(hybrid),
                                                        rel=1e-12)

    @pytest.mark.parametrize("n_users", [1, 2, 4])
    def test_total_power_exact(self, n_users, instance_factory):
        inst = instance_factory(np.random.default_rng(10 + n_users), n_sats=1,
                                n_gus=n_users, n_beams=n_users,
                                visible={g: (0,) for g in range(100, 100 + n_users)})
        (mixer,) = hybrid_beams(inst, {0: list(range(n_users))}).values()
        w = beam_matrix(inst, np.zeros(n_users, dtype=int), 0, mixer)
        total = float(np.sum(np.abs(w) ** 2))
        assert total == pytest.approx(80.0, rel=1e-9)

    def test_zero_product_rejected(self, instance_factory):
        # a zero beam-space channel gives a zero precoder
        inst = instance_factory(np.random.default_rng(14), n_sats=1, n_gus=1,
                                visible={100: (0,)}, channel_scale=0.0)
        with pytest.raises(ValueError, match="identically zero"):
            hybrid_beams(inst, {0: [0]})

    def test_equal_power_beams_arithmetic(self, instance_factory):
        # P / n per beam: 80 W over 1, 4 and 32 beams of one satellite
        for n_beams, per_beam in ((1, 80.0), (4, 20.0), (32, 2.5)):
            inst = instance_factory(np.random.default_rng(n_beams), n_sats=1,
                                    n_gus=n_beams, n_beams=n_beams,
                                    visible={g: (0,) for g in range(100, 100 + n_beams)})
            (mixer,) = equal_power_beams(inst, {0: list(range(n_beams))}).values()
            w = beam_matrix(inst, np.zeros(n_beams, dtype=int), 0, mixer)
            assert np.sum(np.abs(w) ** 2, axis=0) == pytest.approx(
                [per_beam] * n_beams, rel=1e-12)
