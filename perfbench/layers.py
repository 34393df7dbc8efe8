"""Per-layer tracing from outside the package.

Wraps the public functions of each fraclab module at every name that refers
to them (so ``from .fracops import l1_weights`` in ``solver`` is traced
too) and aggregates, per layer, calls, busy time, self time and errors.
Busy time counts only the outermost call of a layer, so nested calls inside
one layer (``rl_right_derivative`` calling ``rl_left_derivative``) are not
counted twice.  Self time is busy time net of the traced calls made inside
it.  Byte and multiply-add counts are computed from argument shapes, not
measured.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

from fraclab import _kernels, fraclap, fracops, harness, identities, solver, testfn

STEP_BINS = 10


class _Layer:
    __slots__ = ("calls", "busy", "self_time", "errors", "depth", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.depth = 0
        self.work = 0


def _hist_dot_bytes(args) -> int:
    wrev, _off, rows, lo, hi = args
    k = max(hi - lo, 0)
    row = rows.shape[1] * rows.itemsize
    return k * (row + wrev.itemsize) + row


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _causal_conv_macs(args) -> int:
    # sum over outputs j < nout of the terms m in [max(0, j-nv+1), min(j, nw-1)],
    # in closed form so that counting costs no time inside the caller's span
    w, v, nout = args
    a, b = w.shape[0] - 1, v.shape[0] - 1
    n = min(nout, a + b + 1)
    upper = _tri(n - 1) if n <= a + 1 else _tri(a) + (n - 1 - a) * a
    lower = _tri(n - 1 - b) if n > b + 1 else 0
    return upper - lower + n


def _public_functions(module):
    return [f for name, f in vars(module).items()
            if inspect.isfunction(f) and not name.startswith("_")
            and f.__module__ == module.__name__]


class Tracer:
    """Installs wrappers into the imported fraclab modules and aggregates."""

    def __init__(self):
        self.layers = {}
        self._open = []  # child-time accumulator of each open span
        self.buffers = []

    def wrap(self, name, fn, work=None):
        layer = self.layers.setdefault(name, _Layer())
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            layer.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                layer.errors += 1
                raise
            finally:
                dt = clock() - t0
                layer.depth -= 1
                open_spans.pop()
                layer.calls += 1
                layer.self_time += dt - child[0]
                if layer.depth == 0:
                    layer.busy += dt
                if open_spans:
                    open_spans[-1][0] += dt
                if work is not None:
                    layer.work += work(args)

        return traced

    def _patch_everywhere(self, name, fn, work=None):
        """Replace ``fn`` at every fraclab module attribute bound to it."""
        wrapped = self.wrap(name, fn, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fraclab" or mod_name.startswith("fraclab."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)

    def install(self):
        self._patch_everywhere("kernels.hist_dot_complex", _kernels.hist_dot_complex,
                               _hist_dot_bytes)
        self._patch_everywhere("kernels.hist_dot_real", _kernels.hist_dot_real,
                               _hist_dot_bytes)
        self._patch_everywhere("kernels.causal_conv", _kernels.causal_conv,
                               _causal_conv_macs)
        # several functions may feed one layer; they share its aggregate
        for fn in (fracops.l1_weights, fracops.rect_weights):
            self._patch_everywhere("fracops.weights", fn)
        for fn in (fracops.rl_integral, fracops.caputo_left, fracops.rl_left_derivative,
                   fracops.rl_integral_right, fracops.rl_right_derivative,
                   fracops.caputo_right):
            self._patch_everywhere("fracops.operators", fn)
        for fn in (fraclap.apply_spectral, fraclap.apply_singular_integral,
                   fraclap.lemma_kk_check):
            self._patch_everywhere("fraclap." + fn.__name__, fn)
        for fn in _public_functions(testfn):
            self._patch_everywhere("testfn", fn)
        for fn in (identities.check_ibp, identities.check_composition_int,
                   identities.check_composition_derivs):
            self._patch_everywhere("identities.check", fn)
        solver._Channel.step = self.wrap("solver.step", solver._Channel.step)
        self._patch_fft()
        self._patch_history()
        harness.build_spec = self.wrap("harness.build_spec", harness.build_spec)
        harness._REGISTRY = tuple(
            (name, tol, self.wrap("harness.verify." + name, fn))
            for name, tol, fn in harness._REGISTRY
        )

    def _patch_fft(self):
        layout = solver._mode_layout
        tracer = self

        def traced_layout(grid):
            k2, shape, fwd, inv = layout(grid)
            return (k2, shape, tracer.wrap("solver.fft", fwd),
                    tracer.wrap("solver.fft", inv))

        self.layers.setdefault("solver.fft", _Layer())
        solver._mode_layout = traced_layout

    def _patch_history(self):
        buffers = self.buffers

        class CountedBuffer(solver.HistoryBuffer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                buffers.append(self)

        solver.HistoryBuffer = CountedBuffer

    def metrics(self, stamps) -> dict:
        out = {}
        for name, layer in self.layers.items():
            out[name + ".calls"] = layer.calls
            out[name + ".busy_s"] = layer.busy
            out[name + ".errors"] = layer.errors
            if name in ("fracops.operators", "solver.step"):
                out[name + ".self_s"] = layer.self_time
        for name in ("kernels.hist_dot_complex", "kernels.hist_dot_real"):
            out[name + ".computed_bytes"] = self.layers[name].work
        out["kernels.causal_conv.computed_macs"] = self.layers["kernels.causal_conv"].work
        out.update(step_bins(stamps))
        allocated = sum(b.rows.shape[0] for b in self.buffers)
        out["solver.history_bytes"] = sum(b.rows.nbytes for b in self.buffers)
        out["solver.history.used_ratio"] = (
            sum(len(b) for b in self.buffers) / allocated if allocated else 0.0)
        return out


def step_bins(stamps: dict) -> dict:
    """Mean wall ms per step in ``STEP_BINS`` equal bins of the step index.

    ``stamps[j]`` is the clock when step ``j`` finished; step 1 has no
    start stamp and is left out.
    """
    last = max(stamps)
    sums = [0.0] * STEP_BINS
    counts = [0] * STEP_BINS
    for j in range(2, last + 1):
        b = min((j - 1) * STEP_BINS // last, STEP_BINS - 1)
        sums[b] += stamps[j] - stamps[j - 1]
        counts[b] += 1
    return {f"solver.step_ms.bin{b}": 1e3 * sums[b] / counts[b] if counts[b] else 0.0
            for b in range(STEP_BINS)}


def late_step_ms(stamps: dict) -> float:
    """Mean wall ms per step over the last 10% of the steps taken."""
    last = max(stamps)
    k = max(1, round(0.1 * last))
    k = min(k, last - 1)
    return 1e3 * (stamps[last] - stamps[last - k]) / k


def install_step_clock(stamps: dict):
    """Record the clock at the end of every solver step, keyed by step index.

    The system stepper advances two channels per index; the second stamp
    overwrites the first, so consecutive stamps span whole iterations.
    """
    step = solver._Channel.step
    clock = time.perf_counter

    def stamped(self, j, src_hat):
        out = step(self, j, src_hat)
        stamps[j] = clock()
        return out

    solver._Channel.step = stamped


def kernel_cases(seed: int, repeats: int = 7) -> dict:
    """Median time of the active kernels on solver-shaped inputs, in us.

    The shapes are those of ``benchmarks/bench_kernels.py``: a 4096-step
    history of 1-D M=256 rows (real, and complex rfft rows of width 129),
    and a whole-series convolution of length 2^14.
    """
    rng = np.random.default_rng(seed)
    n = 2**14
    w = rng.standard_normal(n)
    v = rng.standard_normal(n)
    rows_r = rng.standard_normal((4096, 256))
    rows_c = np.ascontiguousarray(
        rng.standard_normal((4096, 129)) + 1j * rng.standard_normal((4096, 129)))
    wr = rng.standard_normal(8192)
    cases = {
        "kernels.case.hist_dot_real_4096x256.us":
            lambda: _kernels.hist_dot_real(wr, 0, rows_r, 0, 4096),
        "kernels.case.hist_dot_complex_4096x129.us":
            lambda: _kernels.hist_dot_complex(wr, 0, rows_c, 0, 4096),
        "kernels.case.causal_conv_16384.us": lambda: _kernels.causal_conv(w, v, n),
    }
    out = {}
    for name, call in cases.items():
        call()  # warm: page in, compile when numba is active
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        times.sort()
        out[name] = 1e6 * times[len(times) // 2]
    return out
