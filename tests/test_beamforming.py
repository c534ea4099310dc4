import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_links as ref_links
from conftest import beam_matrix, close_beams, same_bits
from coopsat import beamforming
from coopsat.beamforming import analog_beamform, regularized_zf
from coopsat.channel import ArrayConfig
from coopsat.network import equal_power_beams, hybrid_beams
from reference_links import build_codebook, combination, phase_projection


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


class TestAxisDft:
    """The per-axis DFTs the analog stage scores and combines with."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_unitary(self, n):
        dft = beamforming._dft(n)
        assert np.max(np.abs(dft.conj().T @ dft - np.eye(n))) <= 1e-13

    def test_kron_is_the_codebook(self):
        array = ArrayConfig(n_x=5, n_y=3)
        cb = np.kron(beamforming._dft(array.n_x), beamforming._dft(array.n_y))
        assert np.max(np.abs(cb - build_codebook(array))) <= 1e-15

    def test_quarter_turns_are_exact(self):
        # the entries of phase 0, pi/2, pi and 3 pi/2 are exactly
        # +-1/sqrt(n) and +-i/sqrt(n), which the degenerate-entry test
        # relies on
        dft = beamforming._dft(4) * 2.0
        assert dft.tolist() == [[1, 1, 1, 1], [1, -1j, -1, 1j],
                                [1, -1, 1, -1], [1, 1j, -1, -1j]]

    def test_built_once_and_read_only(self):
        dft = beamforming._dft(3)
        assert beamforming._dft(3) is dft
        with pytest.raises(ValueError, match="read-only"):
            dft[0, 0] = 0.0


class TestAnalogBeamform:
    def test_channel_equal_to_codeword(self, default_array):
        cb = build_codebook(default_array)
        for col in (0, 7, 33):
            h = cb[:, col]
            beam = analog_beamform(h, default_array, k=4)
            # the combination is the codeword itself, whose entries
            # already have modulus 1/sqrt(N)
            assert np.allclose(beam, h, atol=1e-12)
            gain = abs(np.vdot(h, beam)) ** 2
            assert gain == pytest.approx(1.0, abs=1e-10)

    def test_full_codebook_reconstructs_channel(self, default_array):
        rng = np.random.default_rng(1)
        n = default_array.n_elements
        h = cn_vector(rng, n)
        beam = analog_beamform(h, default_array, k=n)
        # a complete basis combines back to h: the beam is h's phases
        assert np.allclose(beam, h / np.abs(h) / math.sqrt(n), atol=1e-10)

    def test_equal_amplitude_entries(self, default_array):
        rng = np.random.default_rng(2)
        n = default_array.n_elements
        for _ in range(20):
            beam = analog_beamform(cn_vector(rng, n), default_array, k=4)
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
        assert np.allclose(analog_beamform(h, default_array, k=4), phase_projection(combined),
                           atol=1e-10)

    def test_gain_beats_best_single_codeword(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(4)
        n = default_array.n_elements
        wins = 0
        trials = 1000
        for _ in range(trials):
            h = cn_vector(rng, n)
            beam = analog_beamform(h, default_array, k=4)
            combined = abs(np.vdot(h, beam)) ** 2
            single = float(np.max(np.abs(cb.conj().T @ h) ** 2))
            wins += combined >= single
        assert wins / trials >= 0.95

    def test_phase_rotation_invariance(self, default_array):
        rng = np.random.default_rng(5)
        h = cn_vector(rng, default_array.n_elements)
        baseline = analog_beamform(h, default_array, k=4)
        for alpha in (0.3, 1.7, 4.0):
            # same codewords, so the beam turns with the channel
            rotated = analog_beamform(h * np.exp(1j * alpha), default_array, k=4)
            assert np.allclose(rotated, baseline * np.exp(1j * alpha), atol=1e-12)
            gain_r = abs(np.vdot(h * np.exp(1j * alpha), rotated))
            gain_b = abs(np.vdot(h, baseline))
            assert gain_r == pytest.approx(gain_b, rel=1e-12)

    @pytest.mark.parametrize("n_x,n_y", [(8, 8), (1, 7), (5, 3)])
    def test_ranking_follows_codeword_scores(self, n_x, n_y):
        # every prefix of the ranking (the stable sort of the N x N
        # codebook's scores, so the lower index wins a tie) picks the
        # beam, to close_beams' tolerance: at most 6.5e-15 was seen
        array = ArrayConfig(n_x=n_x, n_y=n_y, n_sub_x=1, n_sub_y=1)
        cb = build_codebook(array)
        n = n_x * n_y
        rng = np.random.default_rng(12)
        for _ in range(50):
            h = cn_vector(rng, n) * 10.0 ** rng.uniform(-8.0, 3.0)
            ranking = ref_links.codeword_ranking(h, cb)
            for k in range(1, n + 1):
                assert close_beams(analog_beamform(h, array, k=k),
                                   combination(h, cb, ranking[:k]))

    def test_tie_break_lower_index(self):
        # h = [1, 0] scores exactly 0.5 on both codewords of the real
        # 2-point DFT: the lower index must win the tie
        array = ArrayConfig(n_x=2, n_y=1, n_sub_x=1, n_sub_y=1)
        cb = build_codebook(array)
        h = np.array([1.0, 0.0])
        scores = np.abs(cb.conj().T @ h) ** 2
        assert scores[0] == scores[1]  # exact tie
        beam = analog_beamform(h, array, k=1)
        assert np.allclose(beam, cb[:, 0], atol=1e-15)  # codeword 0, not 1

    def test_degenerate_entry_gets_phase_zero(self):
        # both codewords of a 2 x 1 array reproduce h = [1, 0], and the
        # second entry combines to exactly zero: 1/2 - 1/2
        array = ArrayConfig(n_x=2, n_y=1, n_sub_x=1, n_sub_y=1)
        beam = analog_beamform(np.array([1.0, 0.0]), array, k=2)
        assert np.allclose(np.abs(beam), 1.0 / math.sqrt(2.0))
        assert beam[1] == 1.0 / math.sqrt(2.0)

    def test_rejects_bad_inputs(self, default_array):
        with pytest.raises(ValueError):
            analog_beamform(np.zeros(64), default_array, k=4)
        with pytest.raises(ValueError):
            analog_beamform(np.ones(64), default_array, k=0)
        with pytest.raises(ValueError):
            analog_beamform(np.ones(63), default_array, k=4)


def mixed_channels(codebook, n_links, seed):
    """Channels of four kinds, drawn at random: complex Gaussian at scales
    from 1e-8 to 1e3; a scaled standard basis vector, whose codeword
    scores tie exactly for the first vector and to rounding for the
    others; a scaled codeword; a repeat of the channel before."""
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
    """Every channel's beam from the stacked analog stage is the
    one-channel construction with the N x N codebook to rounding, and
    has the same bits alone as in the stack."""

    @settings(max_examples=150, deadline=None)
    @given(n_x=st.integers(1, 6), n_y=st.integers(1, 6), k_share=st.floats(0.0, 1.0),
           n_links=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    @example(n_x=1, n_y=1, k_share=0.0, n_links=5, seed=0)  # one element
    @example(n_x=8, n_y=8, k_share=0.0, n_links=0, seed=1)  # no channel
    @example(n_x=8, n_y=8, k_share=0.0, n_links=1, seed=2)  # k = 1
    @example(n_x=8, n_y=8, k_share=1.0, n_links=17, seed=3)  # k = N
    @example(n_x=16, n_y=16, k_share=0.012, n_links=20, seed=4)  # wide-array
    def test_equals_per_channel_reference(self, n_x, n_y, k_share, n_links, seed):
        # to close_beams' tolerance; at most 1.5e-14 was seen.  A basis
        # channel e_i with i > 0 ties every codeword to rounding only, so
        # its beam is checked against the codewords the stage chose, which
        # must be a top-k set of the reference's scores to rounding
        array = ArrayConfig(n_x=n_x, n_y=n_y)
        cb = build_codebook(array)
        n = n_x * n_y
        k = 1 + round(k_share * (n - 1))
        h = mixed_channels(cb, n_links, seed)
        beams = analog_beamform(h, array, k=k)
        chosen, _ = beamforming._top_codewords(h, array, k)
        assert beams.shape == h.shape
        for row, beam, top in zip(h, beams, chosen):
            assert same_bits(analog_beamform(row, array, k=k), beam)  # the one-row case
            if np.count_nonzero(row) == 1 and row[0] == 0.0:
                scores = np.abs(cb.T @ row.conj()) ** 2
                assert scores[top].min() >= np.delete(scores, top).max(initial=0.0) * (1 - 1e-12)
            else:
                top = ref_links.codeword_ranking(row, cb)[:k]
            assert close_beams(beam, combination(row, cb, top))

    def test_basis_channel_ties_every_codeword(self):
        # the tie the strategy relies on: e_0 scores every codeword
        # exactly alike, in the reference and in the stage, so the
        # lowest indices win at every k
        for n_x, n_y in [(4, 2), (16, 16), (1, 7), (5, 3)]:
            array = ArrayConfig(n_x=n_x, n_y=n_y)
            n = n_x * n_y
            h = np.eye(n)[0] * (0.3 - 0.7j)
            scores = np.abs(build_codebook(array).T @ h.conj()) ** 2
            assert np.all(scores == scores[0])
            for k in range(1, n + 1):
                chosen, _ = beamforming._top_codewords(h[None], array, k)
                assert chosen.tolist() == [list(range(k))]

    def test_stack_shape_and_zero_channel(self, default_array):
        h = mixed_channels(build_codebook(default_array), 6, 9).reshape(2, 3, -1)
        beams = analog_beamform(h, default_array, k=4)
        assert beams.shape == h.shape
        assert same_bits(beams[1, 2], analog_beamform(h[1, 2], default_array, k=4))
        h[1, 2] = 0.0
        with pytest.raises(ValueError, match=r"channel vector at \(1, 2\) is zero"):
            analog_beamform(h, default_array, k=4)

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
