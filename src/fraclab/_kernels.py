"""Whole-series convolution and the direct history sums.

Every fractional operator in this package reduces to discrete convolutions
with power-law weights.  Whole-series transforms in ``fracops`` use
:func:`causal_conv`, a blocked convolution: the diagonal blocks are direct
sums (one matrix product), the lagged blocks go through FFTs and are
summed lag by lag (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput.
6 (1985) 532-541), so it costs O(n B + n^2 / B) for blocks of B samples
and keeps causality exact.

The ``hist_dot_*`` kernels are the direct O(j) history sums
``sum_k w[j - k] row_k`` that the time stepper once made at every step j.
The stepper now keeps an exact window plus a sum-of-exponentials tail
instead (``solver.MemorySum``), so these kernels serve as the test
oracles it is checked against.  Each function has one numpy
implementation.

``BACKEND`` and the flag beside it are fixed constants kept only because
the benchmark's child process (``perfbench/child.py``) reports them; the
benchmark changes only on its own, so they go when it next does.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Only perfbench/child.py reads these; the next benchmark change retires them.
BACKEND = "numpy"
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# causal convolution: out[j] = sum_m w[m] * v[j - m], j = 0..nout-1
# ---------------------------------------------------------------------------

# Samples per block.  Lag 0 costs O(n B) and the lagged spectra O(n^2 / B).
# Median ms on one BLAS thread of a 2-vCPU Xeon, random w and v of length n,
# nout = n, the block sizes interleaved:
#
#     n       2^10   2^11   2^12   2^13   2^14   2^15    2^16
#     B=64   0.134  0.217  0.497  1.284  4.166  14.16   70.71
#     B=128  0.098  0.161  0.315  0.782  2.088  7.525   34.91
#     B=256  0.108  0.156  0.305  0.575  1.318  4.335   19.03
#     B=512  0.212  0.387  0.468  0.751  1.272  3.090   11.28
#
# verify's 125 convolutions have n = 1024-4097, where 128 and 256 cost the
# same, and the 256^2 Toeplitz copy raised verify's peak RSS by 0.6 MB.
_BLOCK = 128


def causal_conv(w: np.ndarray, v: np.ndarray, nout: int) -> np.ndarray:
    """First ``nout`` terms of the convolution of ``w`` and ``v``.

    ``v`` is cut into blocks of ``B = _BLOCK`` samples, and output block
    ``i`` sums the products of the ``v`` blocks ``k <= i`` with the
    Toeplitz block of ``w`` at lag ``d = i - k``.  Lag 0 is direct: each
    block of ``v`` times the lower-triangular Toeplitz block of ``w[:B]``,
    one matrix product.  Lags ``d >= 1`` go through FFTs of size ``2B``
    (overlap-save): the spectra of the ``v`` blocks times those of the
    ``w`` segments ``w[dB-B+1 : dB+B]`` are summed lag by lag, each output
    block's sum is inverted once, and its samples ``B-1 .. 2B-2`` are kept.

    The error is roundoff relative to each block's own products, not to
    the whole series, and causality is exact: a block of ``v`` that is all
    zero has an all-zero spectrum and adds only to later output blocks, so
    a zero prefix of ``v`` gives exact zeros.  Outputs past
    ``len(w) + len(v) - 1`` are exact zeros too.  ``numpy.fft`` is
    imported only when ``nout > B``.
    """
    b = _BLOCK
    nb = -(-nout // b)
    vb = np.zeros((nb, b))
    k = min(v.shape[0], nout)
    vb.ravel()[:k] = v[:k]
    # w behind b - 1 zeros: wp[b - 1 + m] = w[m]
    wp = np.zeros(b - 1 + nb * b)
    k = min(w.shape[0], nb * b)
    wp[b - 1 : b - 1 + k] = w[:k]
    # row c of the lower-triangular Toeplitz block holds w[r - c], r = 0..b-1;
    # copied, since matmul on the strided view is ~2x slower than copy + BLAS
    out = vb @ np.ascontiguousarray(sliding_window_view(wp[: 2 * b - 1], b)[::-1])
    if nb > 1:
        from numpy.fft import irfft, rfft

        vf = rfft(vb[:-1], 2 * b)
        wf = rfft(sliding_window_view(wp, 2 * b - 1)[b::b], 2 * b)  # lags 1..nb-1
        acc = np.zeros_like(vf)  # row i - 1 collects output block i
        for d in range(nb - 1):
            acc[d:] += vf[: nb - 1 - d] * wf[d]
        out[1:] += irfft(acc, 2 * b)[:, b - 1 : 2 * b - 1]
    out = out.ravel()[:nout]
    out[w.shape[0] + v.shape[0] - 1 :] = 0.0
    return out


# ---------------------------------------------------------------------------
# history dots: sum_{k=lo}^{hi-1} wrev[off + k] * rows[k, :]
# (weights pre-reversed by the caller so the slice is contiguous)
# ---------------------------------------------------------------------------

def hist_dot_real(wrev, off, rows, lo, hi):
    if hi <= lo:
        return np.zeros(rows.shape[1])
    return np.dot(wrev[off + lo : off + hi], rows[lo:hi])


def hist_dot_complex(wrev, off, rows, lo, hi):
    if hi <= lo:
        return np.zeros(rows.shape[1], dtype=np.complex128)
    return np.dot(wrev[off + lo : off + hi], rows[lo:hi])
