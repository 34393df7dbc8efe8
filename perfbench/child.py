"""One benchmark operation in a fresh interpreter.

Usage: python perfbench/child.py '<operation as JSON>'

The operation names the workload, whether to trace, and the parent's
monotonic clock reading when it started this process.  The program's
inputs arrive as ``FRACLAB_<SECTION>_<KEY>`` environment overrides and are
resolved by the harness's own spec builder.  Prints one JSON line with the
outputs to check, the clock reading when set-up ended, the main call's wall
time, the late-step cost, peak RSS and, when traced, per-layer metrics.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _environment() -> dict:
    import numpy as np
    from fraclab import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": _kernels.BACKEND,
        "have_numba": _kernels.HAVE_NUMBA,
    }


def _sim_result(res) -> dict:
    return {
        "status": res.status,
        "steps": res.steps_taken,
        "blowup_time": None if res.blowup_time is None else float(res.blowup_time),
        "final_supnorm": float(res.trace.values[-1]),
    }


def main() -> int:
    op = json.loads(sys.argv[1])
    import layers
    from fraclab import harness, solver

    if op["workload"] == "kernels":
        print(json.dumps({"layers": layers.kernel_cases(op["seed"]),
                          "environment": _environment()}))
        return 0

    tracer = None
    if op["trace"]:
        tracer = layers.Tracer()
        tracer.install()
    stamps = {}
    layers.install_step_clock(stamps)

    mode = op["mode"]
    spec = harness.build_spec(argparse.Namespace(
        mode=mode, config=None, out=None, tol=None, jobs=None, seed=None))
    if mode == "verify":
        def call():
            report = harness.verify_all(spec)
            return {"checks": [(r.name, bool(r.passed)) for r in report.results]}
    else:
        system = mode == "system-sweep"
        cfg = solver.SimConfig(
            params=spec.system_params if system else spec.params,
            space=spec.space, time=spec.time, bump=spec.bump,
            threshold=spec.threshold, snapshot_every=spec.snapshot_every,
        )

        def call():
            res = solver.run_system(cfg) if system else (solver.run(cfg),)
            return {"results": [_sim_result(r) for r in res]}

    t_ready = _now()
    t0 = time.perf_counter()
    outputs = call()
    run_s = time.perf_counter() - t0

    result = {
        "t_ready": t_ready,
        "run_s": run_s,
        "late_step_ms": layers.late_step_ms(stamps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "outputs": outputs,
        "environment": _environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(stamps)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
