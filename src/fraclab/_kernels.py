"""Whole-series convolution and backend dispatch for the direct history sums.

Every fractional operator in this package reduces to discrete convolutions
with power-law weights.  Whole-series transforms in ``fracops`` use
:func:`causal_conv`, an exact blocked lower-triangular Toeplitz product
run as BLAS-3 matrix products.  It has one implementation whatever the
backend.

The ``hist_dot_*`` kernels are the direct O(j) history sums
``sum_k w[j - k] row_k`` that the time stepper once made at every step j.
The stepper now keeps an exact window plus a sum-of-exponentials tail
instead (``solver.MemorySum``), so these kernels serve as the test
oracles it is checked against.  Each has two interchangeable
implementations:

* ``numba``: ``@njit``-compiled loops (used when numba imports cleanly),
* ``numpy``: sliced BLAS calls, no compilation step.

The environment variable ``FRACLAB_BACKEND`` selects between them, with
values ``numba``, ``numpy``, or ``auto`` (default: ``auto``, which prefers
numba when available).  The chosen backend is exposed as ``BACKEND``.
Both paths produce identical results to rounding.
"""

from __future__ import annotations

import os

import numpy as np
from numpy.lib.stride_tricks import as_strided

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def _resolve_backend() -> str:
    req = os.environ.get("FRACLAB_BACKEND", "auto").strip().lower()
    if req not in ("auto", "numba", "numpy"):
        raise ValueError(
            f"FRACLAB_BACKEND must be 'numba', 'numpy', or 'auto', got {req!r}"
        )
    if req == "numpy":
        return "numpy"
    if req == "numba" and not HAVE_NUMBA:
        raise ImportError("FRACLAB_BACKEND=numba but numba is not importable")
    return "numba" if HAVE_NUMBA else "numpy"


BACKEND = _resolve_backend()


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

def hist_dot_real_np(wrev, off, rows, lo, hi):
    if hi <= lo:
        return np.zeros(rows.shape[1])
    return np.dot(wrev[off + lo : off + hi], rows[lo:hi])


@njit(cache=True)
def hist_dot_real_nb(wrev, off, rows, lo, hi):  # pragma: no cover - compiled
    m = rows.shape[1]
    out = np.zeros(m)
    for k in range(lo, hi):
        c = wrev[off + k]
        for i in range(m):
            out[i] += c * rows[k, i]
    return out


def hist_dot_complex_np(wrev, off, rows, lo, hi):
    if hi <= lo:
        return np.zeros(rows.shape[1], dtype=np.complex128)
    return np.dot(wrev[off + lo : off + hi], rows[lo:hi])


@njit(cache=True)
def hist_dot_complex_nb(wrev, off, rows, lo, hi):  # pragma: no cover - compiled
    m = rows.shape[1]
    out = np.zeros(m, dtype=np.complex128)
    for k in range(lo, hi):
        c = wrev[off + k]
        for i in range(m):
            out[i] += c * rows[k, i]
    return out


if BACKEND == "numba":
    hist_dot_real = hist_dot_real_nb
    hist_dot_complex = hist_dot_complex_nb
else:
    hist_dot_real = hist_dot_real_np
    hist_dot_complex = hist_dot_complex_np


def warmup():
    """Trigger JIT compilation on tiny inputs so timed runs stay clean."""
    w = np.array([1.0, 0.5, 0.25])
    v = np.array([1.0, 2.0, 3.0])
    causal_conv(w, v, 3)
    rows_r = np.ones((3, 2))
    rows_c = np.ones((3, 2), dtype=np.complex128)
    hist_dot_real(w, 0, rows_r, 0, 3)
    hist_dot_complex(w, 0, rows_c, 0, 3)
