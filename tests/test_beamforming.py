import math

import numpy as np
import pytest

from coopsat.beamforming import analog_beamform, build_codebook, regularized_zf
from coopsat.channel import ArrayConfig
from coopsat.network import equal_power_beams, hybrid_beams


def cn_vector(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


class TestCodebook:
    def test_1x1(self):
        cb = build_codebook(ArrayConfig(n_x=1, n_y=1, n_sub_x=1, n_sub_y=1))
        assert np.allclose(cb.matrix, [[1.0]])

    def test_2point(self):
        cb = build_codebook(ArrayConfig(n_x=2, n_y=1, n_sub_x=1, n_sub_y=1))
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(cb.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("nx,ny", [(2, 2), (4, 4), (8, 8), (8, 4)])
    def test_unitary(self, nx, ny):
        cb = build_codebook(ArrayConfig(n_x=nx, n_y=ny, n_sub_x=1, n_sub_y=1))
        n = nx * ny
        assert np.max(np.abs(cb.matrix.conj().T @ cb.matrix - np.eye(n))) <= 1e-10


class TestAnalogBeamform:
    def test_channel_equal_to_codeword(self, default_array):
        cb = build_codebook(default_array)
        for col in (0, 7, 33):
            h = cb.matrix[:, col]
            beam = analog_beamform(h, cb, k=4)
            assert col in beam.codeword_indices
            assert beam.codeword_indices[0] == col  # highest score first
            gain = abs(np.vdot(h, beam.entries)) ** 2
            assert gain == pytest.approx(1.0, abs=1e-10)

    def test_full_codebook_reconstructs_channel(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(1)
        n = default_array.n_elements
        h = cn_vector(rng, n)
        beam = analog_beamform(h, cb, k=n)
        d_k = cb.matrix[:, list(beam.codeword_indices)]
        combined = d_k @ beam.coefficients
        assert np.allclose(combined, h, atol=1e-10)  # complete basis

    def test_equal_amplitude_entries(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(2)
        n = default_array.n_elements
        for _ in range(20):
            beam = analog_beamform(cn_vector(rng, n), cb, k=4)
            assert np.allclose(np.abs(beam.entries), 1.0 / math.sqrt(n), atol=1e-12)
            assert np.linalg.norm(beam.entries) == pytest.approx(1.0, abs=1e-12)

    def test_least_squares_residual_orthogonality(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(3)
        h = cn_vector(rng, default_array.n_elements)
        beam = analog_beamform(h, cb, k=4)
        d_k = cb.matrix[:, list(beam.codeword_indices)]
        residual = h - d_k @ beam.coefficients
        assert np.max(np.abs(d_k.conj().T @ residual)) <= 1e-10

    def test_gain_beats_best_single_codeword(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(4)
        n = default_array.n_elements
        wins = 0
        trials = 1000
        for _ in range(trials):
            h = cn_vector(rng, n)
            beam = analog_beamform(h, cb, k=4)
            combined = abs(np.vdot(h, beam.entries)) ** 2
            single = float(np.max(np.abs(cb.matrix.conj().T @ h) ** 2))
            wins += combined >= single
        assert wins / trials >= 0.95

    def test_phase_rotation_invariance(self, default_array):
        cb = build_codebook(default_array)
        rng = np.random.default_rng(5)
        h = cn_vector(rng, default_array.n_elements)
        for alpha in (0.3, 1.7, 4.0):
            rotated = analog_beamform(h * np.exp(1j * alpha), cb, k=4)
            baseline = analog_beamform(h, cb, k=4)
            assert rotated.codeword_indices == baseline.codeword_indices
            gain_r = abs(np.vdot(h * np.exp(1j * alpha), rotated.entries))
            gain_b = abs(np.vdot(h, baseline.entries))
            assert gain_r == pytest.approx(gain_b, rel=1e-12)

    def test_tie_break_lower_index(self):
        # h = [1, 0] scores exactly 0.5 on both codewords of the real
        # 2-point DFT: the lower index must win the tie
        array = ArrayConfig(n_x=2, n_y=1, n_sub_x=1, n_sub_y=1)
        cb = build_codebook(array)
        h = np.array([1.0, 0.0])
        scores = np.abs(cb.matrix.conj().T @ h) ** 2
        assert scores[0] == scores[1]  # exact tie
        beam = analog_beamform(h, cb, k=1)
        assert beam.codeword_indices == (0,)

    def test_degenerate_entry_gets_phase_zero(self):
        # orthonormal identity codebook reproduces h = [1, 0] exactly,
        # leaving the second entry at modulus zero
        from coopsat.beamforming import Codebook
        cb = Codebook(matrix=np.eye(2, dtype=complex), n_x=2, n_y=1)
        beam = analog_beamform(np.array([1.0, 0.0]), cb, k=2)
        assert np.allclose(np.abs(beam.entries), 1.0 / math.sqrt(2.0))
        assert beam.entries[1] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_rejects_bad_inputs(self, default_array):
        cb = build_codebook(default_array)
        with pytest.raises(ValueError):
            analog_beamform(np.zeros(64), cb, k=4)
        with pytest.raises(ValueError):
            analog_beamform(np.ones(64), cb, k=0)
        with pytest.raises(ValueError):
            analog_beamform(np.ones(63), cb, k=4)


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
        (beams,) = hybrid_beams(inst, {0: (100,)}).values()
        hybrid = inst.beam_matrix(beams)
        w = inst.analog[0, 0][:, None]
        assert np.linalg.norm(hybrid) ** 2 == pytest.approx(80.0, rel=1e-12)
        # collinear with the unit-norm analog beam
        assert abs(np.vdot(w, hybrid)) == pytest.approx(np.linalg.norm(hybrid),
                                                        rel=1e-12)

    @pytest.mark.parametrize("n_users", [1, 2, 4])
    def test_total_power_exact(self, n_users, instance_factory):
        gus = tuple(range(100, 100 + n_users))
        inst = instance_factory(np.random.default_rng(10 + n_users), n_sats=1,
                                n_gus=n_users, n_beams=n_users,
                                visible={g: (0,) for g in gus})
        (beams,) = hybrid_beams(inst, {0: gus}).values()
        total = float(np.sum(np.abs(inst.beam_matrix(beams)) ** 2))
        assert total == pytest.approx(80.0, rel=1e-9)

    def test_zero_product_rejected(self, instance_factory):
        # a zero beam-space channel gives a zero precoder
        inst = instance_factory(np.random.default_rng(14), n_sats=1, n_gus=1,
                                visible={100: (0,)}, channel_scale=0.0)
        with pytest.raises(ValueError, match="identically zero"):
            hybrid_beams(inst, {0: (100,)})

    def test_equal_power_beams_arithmetic(self, instance_factory):
        # P / n per beam: 80 W over 1, 4 and 32 beams of one satellite
        for n_beams, per_beam in ((1, 80.0), (4, 20.0), (32, 2.5)):
            gus = tuple(range(100, 100 + n_beams))
            inst = instance_factory(np.random.default_rng(n_beams), n_sats=1,
                                    n_gus=n_beams, n_beams=n_beams,
                                    visible={g: (0,) for g in gus})
            (beams,) = equal_power_beams(inst, {0: gus}).values()
            w = inst.beam_matrix(beams)
            assert np.sum(np.abs(w) ** 2, axis=0) == pytest.approx(
                [per_beam] * n_beams, rel=1e-12)
