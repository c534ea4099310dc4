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


@cache
def _dft(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix; shared, so read-only."""
    dft = np.fft.fft(np.eye(n), norm="ortho")
    dft.flags.writeable = False
    return dft


def _top_codewords(h: np.ndarray, array: ArrayConfig, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (L x k, increasing) of the top ``k`` codewords of each of
    the channels ``h`` (L x N), and their least-squares coefficients."""
    n_x, n_y, n = array.n_x, array.n_y, array.n_elements
    coeffs = (_dft(n_x).conj().T @ (h.reshape(-1, n_x, n_y) @ _dft(n_y).conj())).reshape(-1, n)
    scores = np.abs(coeffs) ** 2
    top = np.argpartition(scores, n - k, axis=1)[:, n - k:]
    rows = np.arange(len(h))[:, None]
    kth = scores[rows, top].min(axis=1, keepdims=True)
    for row in np.flatnonzero(np.count_nonzero(scores >= kth, axis=1) > k):
        top[row] = np.argsort(-scores[row], kind="stable")[:k]  # lower index wins ties
    top.sort(axis=1)
    return top, coeffs[rows, top]


def analog_beamform(h, array: ArrayConfig, k: int = 4) -> np.ndarray:
    """Constant-modulus analog beams (N entries of modulus 1/sqrt(N)) for
    the channels ``h`` (..., N) of ``array``, one per channel, from the
    codewords of its 2D DFT codebook D = kron(A, B), where A and B are
    the unitary DFTs of the n_x and n_y axes.  One channel (N,) is the
    one-row case.

    Steps, per channel: rank codewords by |d^H h|^2 and keep the top
    ``k`` (ties go to the lower index), least-squares combine them, then
    force every entry to modulus 1/sqrt(N) keeping only the phases.
    Entries that combine to exactly zero get phase zero.

    With the channel as an n_x x n_y matrix H (entry p * n_y + q of h is
    H[p, q]), codeword kx * n_y + ky scores |z[kx, ky]|^2 for
    z = A^T conj(H) B: two small products per channel score them all.
    They run as conj(z) = A^H H conj(B), whose entries are also the
    least-squares coefficients d^H h, since D is unitary.  The top ``k``
    come from a partition (sorting every row is 4x slower at N = 256); a
    channel whose k-th score ties one outside it is ranked by a stable
    sort instead.  The chosen codewords combine from their per-axis
    columns: A[:, kx] times the coefficients (n_x x k), times B[:, ky]^T
    (k x n_y).

    Every product is a stacked ``np.matmul``, one BLAS call of the same
    shape per channel, so a beam has the same bits alone as in any
    stack; it matches the one-channel construction with the N x N
    codebook (``tests/reference_links.py``) to rounding, not bit for bit.
    """
    h = np.asarray(h)
    n = array.n_elements
    if h.shape[-1:] != (n,):
        raise ValueError(f"channel length {h.shape} does not match array size {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    zero = ~h.any(axis=-1)
    if zero.any():
        raise ValueError("channel vector is zero" if h.ndim == 1 else
                         f"channel vector at {tuple(np.argwhere(zero)[0].tolist())} is zero")

    top, coeffs = _top_codewords(h.reshape(-1, n), array, k)
    kx, ky = np.divmod(top, array.n_y)
    left = _dft(array.n_x).T[kx] * coeffs[:, :, None]
    combined = np.matmul(left.swapaxes(1, 2), _dft(array.n_y).T[ky]).reshape(-1, n)

    # unit modulus, in place: both parts times 1 / |x|, then times 1 / sqrt(N)
    mod = np.abs(combined)
    parts = combined.view(float).reshape(*mod.shape, 2)
    inverse = 1.0 / np.where(mod > 0.0, mod, 1.0)
    parts[..., 0] *= inverse
    parts[..., 1] *= inverse
    combined[mod == 0.0] = 1.0
    parts *= 1.0 / math.sqrt(n)
    return combined.reshape(h.shape)


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

