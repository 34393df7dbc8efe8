#!/usr/bin/env python3
"""Throughput comparison of the numba and numpy kernel backends.

Times the three kernels on solver-shaped inputs, one fractional operator
built on them, and a short time-stepper loop, each under both
implementations.  The loop swap works because every caller reaches the
kernels through module attributes.  The stepper sums its history with
``solver.MemorySum`` and calls none of these kernels, so its two columns
differ only by noise.

Usage: python benchmarks/bench_kernels.py [--repeats N] [--steps N]
"""

import argparse
import time

import numpy as np

from fraclab import _kernels, fracops
from fraclab.exponents import ParamSet
from fraclab.fraclap import SpaceGrid
from fraclab.fracops import TimeGrid, TimeSeries
from fraclab.solver import BumpSpec, SimConfig, run

BACKENDS = {
    "numpy": (_kernels.causal_conv_np, _kernels.hist_dot_real_np,
              _kernels.hist_dot_complex_np),
}
if _kernels.HAVE_NUMBA:
    BACKENDS["numba"] = (_kernels.causal_conv_nb, _kernels.hist_dot_real_nb,
                         _kernels.hist_dot_complex_nb)


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def swapped(names):
    conv, dr, dc = names
    saved = (_kernels.causal_conv, _kernels.hist_dot_real,
             _kernels.hist_dot_complex)
    _kernels.causal_conv, _kernels.hist_dot_real, _kernels.hist_dot_complex = (
        conv, dr, dc)
    return saved


def bench_kernels(repeats: int):
    rng = np.random.default_rng(0)
    n = 2**14
    w = rng.standard_normal(n)
    v = rng.standard_normal(n)
    rows_r = rng.standard_normal((4096, 256))
    rows_c = np.ascontiguousarray(
        rng.standard_normal((4096, 129)) + 1j * rng.standard_normal((4096, 129)))
    wr = rng.standard_normal(8192)

    cases = [
        ("causal_conv n=%d" % n, lambda f: f(w, v, n), 0),
        ("hist_dot_real 4096x256", lambda f: f(wr, 0, rows_r, 0, 4096), 1),
        ("hist_dot_complex 4096x129", lambda f: f(wr, 0, rows_c, 0, 4096), 2),
    ]
    results = {}
    for label, call, idx in cases:
        results[label] = {}
        for name, fns in BACKENDS.items():
            fn = fns[idx]
            call(fn)  # warm (JIT compile / page in)
            results[label][name] = best_of(lambda: call(fn), repeats)
    return results


def bench_operator(repeats: int):
    f = TimeSeries.from_callable(TimeGrid(1.0, 2**13), lambda t: t**2 * (1.0 - t) ** 4)
    results = {}
    for name, fns in BACKENDS.items():
        saved = swapped(fns)
        try:
            fracops.caputo_left(f, 0.5)  # warm
            results[name] = best_of(lambda: fracops.caputo_left(f, 0.5), repeats)
        finally:
            swapped(saved)
    return {"caputo_left n=8192": results}


def bench_solver(steps: int):
    cfg = SimConfig(
        ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0),
        SpaceGrid(1, 20.0, 256),
        TimeGrid(2.0, steps),
        BumpSpec(4.0, 1.0),
    )
    results = {}
    for name, fns in BACKENDS.items():
        saved = swapped(fns)
        try:
            t0 = time.perf_counter()
            run(cfg)
            results[name] = time.perf_counter() - t0
        finally:
            swapped(saved)
    return {"solver run M=256 steps=%d" % steps: results}


def render(table: dict) -> str:
    names = sorted(BACKENDS)
    header = f"{'case':<34}" + "".join(f"{n:>12}" for n in names)
    if "numba" in BACKENDS:
        header += f"{'speedup':>9}"
    lines = [header, "-" * len(header)]
    for label, times in table.items():
        row = f"{label:<34}"
        for n in names:
            row += f"{times[n] * 1e3:>10.2f}ms"
        if "numba" in BACKENDS:
            row += f"{times['numpy'] / times['numba']:>8.2f}x"
        lines.append(row)
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats per case (best-of)")
    ap.add_argument("--steps", type=int, default=2000,
                    help="time steps for the solver case")
    args = ap.parse_args()

    _kernels.warmup()
    print(f"backends: {', '.join(sorted(BACKENDS))} "
          f"(active: {_kernels.BACKEND})\n")
    table = {}
    table.update(bench_kernels(args.repeats))
    table.update(bench_operator(args.repeats))
    table.update(bench_solver(args.steps))
    print(render(table))


if __name__ == "__main__":
    main()
