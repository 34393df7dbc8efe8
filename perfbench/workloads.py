"""Workload inputs, recorded reference outputs and the output checks.

Standard library only: the bench driver imports this without numpy, and
each operation's child process imports it to build its inputs.

Why these four workloads:

* ``sim-1d``: scalar run, 1-D M=256, default parameters, to blow-up at step
  2966.  The ``hist_dot_*`` history sums take most of the wall time, so
  this is where O(1)-per-step history must show.
* ``sim-2d``: scalar run, 2-D 64^2, 500 steps without blow-up.  The FFT
  pair, ``|u|^p`` and the implicit solve take a larger share, and history
  rows are ~100 KB per step, so memory-layer changes show here.  At 1000
  steps each late step streams ~100 MB, and on a shared 2-vCPU Xeon host
  its time swung by 2x with other processes' memory traffic; at 500 steps
  it stayed within a few percent.
* ``system-1d``: the coupled pair, 1-D M=256.  Same layers used
  differently (two channels, cross-read sources, twice the buffers).  With
  the symmetric default parameters it reproduces the ``sim-1d`` blow-up
  time exactly.
* ``verify``: the verification battery.  Whole-series operators and
  ``causal_conv`` dominate; the solver runs one 16-step zero run, so
  history-sum changes should leave it unchanged.  Its ``late_step_ms`` is
  the last two steps of that zero run.

The seed varies inputs without varying cost.  Solver workloads move the
bump centre by a whole number of grid cells: the periodic spectral scheme
is translation invariant, so the outputs must match one recorded reference
to rounding.  ``verify`` draws a fresh verification seed per operation.
"""

from __future__ import annotations

import random

WORKLOADS = ("sim-1d", "sim-2d", "system-1d", "verify")

# Relative tolerance on recorded reference values (the history-sum gate).
REL_TOL = 1e-8

# Config overrides as FRACLAB_<SECTION>_<KEY> environment values, applied on
# top of the package defaults (alpha1=0.5, p=2, h=1e-3, bump width 1, box
# half-length 20 x width).
_CONFIG = {
    "sim-1d": {},
    "sim-2d": {
        "PARAMS_DIM": "2",
        "SPACE_POINTS": "64",
        "TIME_HORIZON": "0.5",
        "TIME_STEPS": "500",
    },
    "system-1d": {},
    "verify": {},
}

# Harness mode whose spec builder resolves the workload's inputs.
MODE = {
    "sim-1d": "simulate",
    "sim-2d": "simulate",
    "system-1d": "system-sweep",
    "verify": "verify",
}

REFERENCES = {
    "sim-1d": {"results": 1, "status": "BlowUp", "steps": 2966,
               "blowup_time": 2.9652495994381267},
    "sim-2d": {"results": 1, "status": "Completed", "steps": 500,
               "final_supnorm": 1.489021871875174},
    "system-1d": {"results": 2, "status": "BlowUp", "steps": 2966,
                  "blowup_time": 2.9652495994381267},
    "verify": {"checks": 9},
}

# Default box: half-length 20, bump support radius 2, so the centre may move
# up to 18 in each direction; cells are 40/points wide.
_HALF_LENGTH = 20.0
_SUPPORT = 2.0


def op_inputs(workload: str, seed: int):
    """Endless stream of per-operation environment overrides for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    base = {"FRACLAB_" + k: v for k, v in _CONFIG[workload].items()}
    points = int(_CONFIG[workload].get("SPACE_POINTS", "256"))
    cell = 2.0 * _HALF_LENGTH / points
    max_cells = int((_HALF_LENGTH - _SUPPORT) / cell)
    while True:
        env = dict(base)
        if workload == "verify":
            env["FRACLAB_VERIFY_SEED"] = str(rng.randrange(2**31))
        else:
            env["FRACLAB_BUMP_CENTER"] = repr(rng.randint(-max_cells, max_cells) * cell)
        yield env


def _rel_err(got, want) -> float:
    return abs(got - want) / abs(want)


def check(workload: str, out: dict, ref: dict | None = None) -> list:
    """Problems with one operation's outputs; empty when they match ``ref``."""
    ref = REFERENCES[workload] if ref is None else ref
    problems = []
    if workload == "verify":
        checks = out["checks"]
        failed = [name for name, passed in checks if not passed]
        if failed:
            problems.append(f"verify checks failed: {failed}")
        if len(checks) != ref["checks"]:
            problems.append(f"{len(checks)} verify checks ran, expected {ref['checks']}")
        return problems
    if len(out["results"]) != ref["results"]:
        problems.append(f"{len(out['results'])} results, expected {ref['results']}")
    for i, res in enumerate(out["results"]):
        if res["status"] != ref["status"]:
            problems.append(f"result {i}: status {res['status']}, expected {ref['status']}")
        if res["steps"] != ref["steps"]:
            problems.append(f"result {i}: {res['steps']} steps, expected {ref['steps']}")
        for key in ("blowup_time", "final_supnorm"):
            if key not in ref:
                continue
            got = res[key]
            if got is None or _rel_err(got, ref[key]) > REL_TOL:
                problems.append(f"result {i}: {key} {got!r}, expected {ref[key]!r} "
                                f"to rel {REL_TOL:g}")
    return problems
