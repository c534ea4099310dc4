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
from functools import cache

import numpy as np

from .channel import ArrayConfig

# Channels per block of the analog stage (see ``analog_beamform``): at
# 16 x 16 elements, larger blocks are no faster and raise peak memory.
_BLOCK = 8


def _dft_unitary(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(k, k) / n) / math.sqrt(n)


@cache
def build_codebook(array: ArrayConfig) -> np.ndarray:
    """Unitary 2D DFT codebook (N x N), one codeword per column: the
    Kronecker product of the 1D DFT codebooks of the two array axes.
    Built once per array layout and shared, so it is read-only."""
    codebook = np.kron(_dft_unitary(array.n_x), _dft_unitary(array.n_y))
    codebook.flags.writeable = False
    return codebook


def analog_beamform(h, codebook: np.ndarray, k: int = 4) -> np.ndarray:
    """Constant-modulus analog beams (N entries of modulus 1/sqrt(N)) for
    the channels ``h`` (..., N), one per channel, from the codewords
    (columns) of ``codebook``.  One channel (N,) is the one-row case.

    Steps, per channel: rank codewords by |h^H d|^2 and keep the top
    ``k`` (ties go to the lower index), least-squares combine them, then
    force every entry to modulus 1/sqrt(N) keeping only the phases.
    Entries that combine to exactly zero get phase zero.

    The channels go through in blocks of ``_BLOCK``, so working memory is
    O(block x N x k), never channels x N x N.  Each product is a stacked
    matrix-vector product, which calls the BLAS gemv of the one-channel
    product with the same memory layout, so a beam has the same bits
    alone as in any stack; a stack-by-matrix product (``H.conj() @
    codebook``) would call gemm and round differently.
    """
    h = np.asarray(h)
    n = codebook.shape[0]
    if h.shape[-1:] != (n,):
        raise ValueError(f"channel length {h.shape} does not match codebook size {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    zero = ~h.any(axis=-1)
    if zero.any():
        raise ValueError("channel vector is zero" if h.ndim == 1 else
                         f"channel vector at {tuple(np.argwhere(zero)[0].tolist())} is zero")

    flat = h.reshape(-1, n)
    beams = np.empty(flat.shape, dtype=complex)
    for start in range(0, len(flat), _BLOCK):
        block = flat[start:start + _BLOCK]
        # |D^H h| = |D^T conj(h)|: conjugating h, not the N x N codebook.
        # IEEE rounding is sign-symmetric, so the product is the exact
        # conjugate and the scores keep their bits.
        scores = np.abs(codebook.T @ block.conj()[:, :, None])[:, :, 0] ** 2
        order = np.argsort(-scores, axis=1, kind="stable")  # lower index wins ties
        # the selected codewords of each channel as an N x k matrix whose
        # rows are contiguous, as ``codebook[:, selected]`` of one channel
        d_k = codebook[:, order[:, :k]].transpose(1, 0, 2)
        coeff = d_k.conj().swapaxes(1, 2) @ block[:, :, None]  # least squares
        combined = (d_k @ coeff)[:, :, 0]

        # unit modulus: both parts times 1 / |x|, then times 1 / sqrt(N).
        # numpy divides by a real d as (re + im * 0) and (im - re * 0)
        # times 1 / d: the same bits, but for a -0.0 part, which the
        # division may turn into +0.0.
        mod = np.abs(combined)
        parts = combined.view(float).reshape(*mod.shape, 2)
        inverse = 1.0 / np.where(mod > 0.0, mod, 1.0)
        parts[..., 0] *= inverse
        parts[..., 1] *= inverse
        combined[mod == 0.0] = 1.0
        parts *= 1.0 / math.sqrt(n)
        beams[start:start + _BLOCK] = combined
    return beams.reshape(h.shape)


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

