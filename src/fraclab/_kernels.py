"""Whole-series convolution and the direct history sums.

Every fractional operator in this package reduces to discrete convolutions
with power-law weights.  Whole-series transforms in ``fracops`` use
:func:`causal_conv`, an exact blocked lower-triangular Toeplitz product
run as BLAS-3 matrix products.

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
from numpy.lib.stride_tricks import as_strided

# Only perfbench/child.py reads these; the next benchmark change retires them.
BACKEND = "numpy"
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# causal convolution: out[j] = sum_m w[m] * v[j - m], j = 0..nout-1
# ---------------------------------------------------------------------------

# Rows per block of the Toeplitz product.  On one BLAS thread of a 2-vCPU
# Xeon, 64 beat 32 and 128 for n = 2^11..2^14.
_BLOCK = 64


def causal_conv(w: np.ndarray, v: np.ndarray, nout: int) -> np.ndarray:
    """First ``nout`` terms of the convolution of ``w`` and ``v``.

    ``v`` is cut into blocks of ``_BLOCK`` samples, each reversed, and the
    lower block triangle of the Toeplitz matrix of ``w`` is applied one
    block diagonal at a time: block diagonal ``d`` is the Hankel matrix
    ``H[d][c, r] = w[d*B + r + c - (B-1)]``, a strided view of ``w`` padded
    with ``B-1`` leading zeros.  Every output sums the same products
    ``w[m] * v[j-m]`` as the direct sum, in another order, plus products
    with padded zeros, so a zero prefix of ``v`` gives exact zeros.
    """
    b = _BLOCK
    nb = -(-nout // b)
    vb = np.zeros(nb * b)
    k = min(v.shape[0], nout)
    vb[:k] = v[:k]
    vrev = vb.reshape(nb, b)[:, ::-1].copy()
    wp = np.zeros(nb * b + b - 1)
    k = min(w.shape[0], nb * b)
    wp[b - 1 : b - 1 + k] = w[:k]
    s = wp.itemsize
    hankel = as_strided(wp, shape=(nb, b, b), strides=(b * s, s, s), writeable=False)
    out = np.zeros((nb, b))
    for d in range(nb):
        out[d:] += vrev[: nb - d] @ hankel[d]
    return out.ravel()[:nout]


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
