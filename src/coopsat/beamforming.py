"""Hybrid beamforming: DFT-codebook analog stage and regularized
zero-forcing digital stage.

The analog beam for a link is built by scoring every codeword of a 2D
DFT codebook against the channel, least-squares combining the best K,
and projecting the combination back onto the equal-amplitude constraint
of phase-only hardware.  Per satellite, the digital stage inverts the
beam-space channel with a diagonal regularizer.  Its power scaling
eta = P / tr(F^H (A^H A) F), which puts the hybrid product (analog
beams A times digital precoder F) at exactly the satellite transmit
power P, is applied by ``network.hybrid_from_beamspace``.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ArrayConfig


def _dft_unitary(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(k, k) / n) / math.sqrt(n)


def build_codebook(array: ArrayConfig) -> np.ndarray:
    """Unitary 2D DFT codebook (N x N), one codeword per column: the
    Kronecker product of the 1D DFT codebooks of the two array axes."""
    return np.kron(_dft_unitary(array.n_x), _dft_unitary(array.n_y))


def analog_beamform(h, codebook: np.ndarray, k: int = 4) -> np.ndarray:
    """Constant-modulus analog beam (N entries of modulus 1/sqrt(N)) for
    channel ``h`` from the codewords (columns) of ``codebook``.

    Steps: rank codewords by |h^H d|^2 and keep the top ``k`` (ties go to
    the lower index), least-squares combine them, then force every entry
    to modulus 1/sqrt(N) keeping only the phases.  Entries that combine
    to exactly zero get phase zero.
    """
    h = np.asarray(h)
    n = codebook.shape[0]
    if h.shape != (n,):
        raise ValueError(f"channel length {h.shape} does not match codebook size {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    if not np.any(h):
        raise ValueError("channel vector is zero")

    # |D^H h| = |D^T conj(h)|: conjugating h, not the N x N codebook, for
    # every link.  IEEE rounding is sign-symmetric, so the product is the
    # exact conjugate and the scores keep their bits.
    scores = np.abs(codebook.T @ h.conj()) ** 2
    order = np.argsort(-scores, kind="stable")  # stable: lower index wins ties
    selected = order[:k]

    d_k = codebook[:, selected]
    coeff = d_k.conj().T @ h          # least squares; columns are orthonormal
    combined = d_k @ coeff

    mod = np.abs(combined)
    phases = np.where(mod > 0.0, combined / np.where(mod > 0.0, mod, 1.0), 1.0)
    return phases / math.sqrt(n)


def regularized_zf(h_tilde: np.ndarray, tx_power_w: float,
                   beta: float | None = None) -> np.ndarray:
    """Regularized zero-forcing precoder for a square beam-space channel,
    or for each of a stack of them (shape ``(..., n, n)``).

    ``beta=None`` selects n / tx_power (the large-system optimum at the
    unit noise power of the normalized channel); ``beta=0`` is plain
    channel inversion, falling back to the pseudo-inverse when the
    channel is singular.  Power scaling is not applied here: see
    ``network.hybrid_from_beamspace``.
    """
    h_tilde = np.asarray(h_tilde)
    if h_tilde.ndim < 2 or h_tilde.shape[-1] != h_tilde.shape[-2]:
        raise ValueError(f"beam-space channel must be square, got {h_tilde.shape}")
    n = h_tilde.shape[-1]
    if beta is None:
        beta = n / tx_power_w
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    if beta == 0.0:
        return np.linalg.pinv(h_tilde)
    gram = h_tilde @ h_tilde.conj().swapaxes(-1, -2) + beta * np.eye(n)
    # H^H (H H^H + beta I)^-1, using the hermitian structure of the Gram
    return np.linalg.solve(gram, h_tilde).conj().swapaxes(-1, -2)

