"""Backend dispatch for the whole-series convolution and the direct history sums.

Every fractional operator in this package reduces to discrete convolutions
with power-law weights.  Whole-series transforms in ``fracops`` use
:func:`causal_conv`, an O(n^2) sum.  The ``hist_dot_*`` kernels are the
direct O(j) history sums ``sum_k w[j - k] row_k`` that the time stepper
once made at every step j.  The stepper now keeps an exact window plus a
sum-of-exponentials tail instead (``solver.MemorySum``), so these kernels
serve as the reference it is tested against.  Each kernel has two
interchangeable implementations:

* ``numba``: ``@njit``-compiled loops (used when numba imports cleanly),
* ``numpy``: sliced BLAS calls, no compilation step.

Selection is controlled by the environment variable ``FRACLAB_BACKEND``
with values ``numba``, ``numpy``, or ``auto`` (default: ``auto``, which
prefers numba when available).  The chosen backend is exposed as
``BACKEND``.  Both paths produce identical results to rounding; the
benchmark script under ``benchmarks/`` compares their throughput.
"""

from __future__ import annotations

import os

import numpy as np

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

def causal_conv_np(w: np.ndarray, v: np.ndarray, nout: int) -> np.ndarray:
    full = np.convolve(w, v)
    out = np.zeros(nout)
    m = min(nout, full.shape[0])
    out[:m] = full[:m]
    return out


@njit(cache=True)
def causal_conv_nb(w, v, nout):  # pragma: no cover - compiled
    out = np.zeros(nout)
    nw = w.shape[0]
    nv = v.shape[0]
    for j in range(nout):
        lo = j - nv + 1
        if lo < 0:
            lo = 0
        hi = j + 1
        if hi > nw:
            hi = nw
        acc = 0.0
        for m in range(lo, hi):
            acc += w[m] * v[j - m]
        out[j] = acc
    return out


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
    causal_conv = causal_conv_nb
    hist_dot_real = hist_dot_real_nb
    hist_dot_complex = hist_dot_complex_nb
else:
    causal_conv = causal_conv_np
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
