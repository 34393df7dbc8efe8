#!/usr/bin/env python3
"""fraclab benchmark: time to answer, late-step cost and peak RSS.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sim-1d,sim-2d,system-1d,verify} \\
        --seed N --seconds S --trace {0,1}

Runs a closed loop of operations for about ``--seconds``: each operation is
one fresh interpreter (``perfbench/child.py``) that imports the package,
builds its spec, makes the workload's main call and exits; the next starts
when the previous one has ended.  The seed fixes every operation's inputs
(see ``workloads.py``).  Each output is checked against a recorded
reference.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the operations.  ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics (medians over the traced
ones), the kernel cases, and the tracing overhead on ``run_s``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SRC = os.path.join(ROOT, "src")

# One BLAS thread per workload process: with the default of one thread per
# core, history-sum time varied by more than 2x between identical runs.
BLAS_THREADS = 1
# Every invocation must end within 180 s, whatever an operation does.
DEADLINE_S = 170.0

LIMITS = (
    "numba is not measured unless it is importable (see environment.have_numba)",
    "peak RSS is ru_maxrss read inside each operation's process; /usr/bin/time is not used",
    "no cache dropping and no CPU pinning: operations share the machine as found",
    "computed_bytes and computed_macs come from argument shapes, not counters",
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_sha() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha:
        return sha
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    model = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(idx, f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level}-{kind}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "git_sha": _git_sha(),
    }


def spawn(op: dict, overrides: dict, timeout: float):
    """Run one operation; return (result or None, problems)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACLAB_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    env.update(overrides)
    t_spawn = _now()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(op)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, timeout=max(timeout, 1.0), text=True,
        )
    except subprocess.TimeoutExpired:
        return None, [f"operation exceeded {timeout:.0f} s"]
    if proc.returncode != 0:
        return None, [f"operation exited with code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "t_ready" in result:
        result["setup_s"] = result["t_ready"] - t_spawn
    return result, []


class Loop:
    """Closed loop of operations with a time budget and a failure count."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inputs = workloads.op_inputs(workload, seed)
        self.start = _now()
        self.attempted = 0
        self.problems = []
        self.environment = None

    def op(self, traced: bool):
        self.attempted += 1
        op = {"workload": self.workload, "mode": workloads.MODE[self.workload],
              "trace": traced}
        result, problems = spawn(op, next(self.inputs), self._left())
        if result is not None:
            self.environment = self.environment or result["environment"]
            problems = workloads.check(self.workload, result["outputs"])
        if problems:
            self.problems.append(problems)
            return None
        return result

    def kernel_cases(self):
        self.attempted += 1
        result, problems = spawn(
            {"workload": "kernels", "seed": self.seed}, {}, self._left())
        if problems:
            self.problems.append(problems)
            return None
        return result["layers"]

    def _left(self) -> float:
        return DEADLINE_S - (_now() - self.start)

    def more(self, cycle_walls: list) -> bool:
        # start another cycle only if a typical one fits the budget and the
        # slowest one so far fits well before the deadline
        elapsed = _now() - self.start
        return (elapsed + statistics.median(cycle_walls) <= self.seconds
                and self._left() > 2 * max(cycle_walls))


def _median(rows: list, key: str) -> float:
    return statistics.median(r[key] for r in rows)


def measure(workload: str, seed: int, seconds: int, trace: bool):
    loop = Loop(workload, seed, seconds)
    plain, traced, cycle_walls = [], [], []
    cases = loop.kernel_cases() if trace else None
    while True:
        t0 = _now()
        result = loop.op(traced=False)
        if result is not None:
            plain.append(result)
        if trace:
            result = loop.op(traced=True)
            if result is not None:
                traced.append(result)
        cycle_walls.append(_now() - t0)
        if not loop.more(cycle_walls):
            break
    return loop, plain, traced, cases


def end_to_end(plain: list) -> dict:
    return {name: _median(plain, name)
            for name in ("setup_s", "run_s", "late_step_ms", "peak_rss_mb")}


def per_layer(plain: list, traced: list, cases: dict) -> dict:
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    out.update(cases)
    out["trace.run_s"] = _median(traced, "run_s")
    out["trace.untraced_run_s"] = _median(plain, "run_s")
    out["trace.overhead_frac"] = out["trace.run_s"] / out["trace.untraced_run_s"] - 1.0
    return out


def _declared(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def report(values: dict, kind: str) -> dict:
    """Order ``values`` as BENCHMARK.json declares them, with units."""
    declared = _declared(kind)
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise SystemExit(f"metric names disagree with BENCHMARK.json {kind}: "
                         f"missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "fraclab", "__init__.py")):
        print(f"error: no fraclab sources under {SRC}", file=sys.stderr)
        return 2

    loop, plain, traced, cases = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    failed = len(loop.problems)
    for problems in loop.problems:
        print("FAILED: " + "; ".join(problems), file=sys.stderr)
    if not plain or (args.trace and (not traced or cases is None)):
        print("error: no operation succeeded, nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = report(per_layer(plain, traced, cases), "per_layer")
    else:
        metrics = report(end_to_end(plain), "end_to_end")
    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} operations "
          f"({len(plain)} untraced, {len(traced)} traced), {failed} failed, "
          f"closed loop, one process each")
    print(f"failed_frac = {failed / loop.attempted:.4g} share")
    for name, m in metrics.items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        if not args.trace and len(plain) > 1:
            q1, _, q3 = statistics.quantiles([r[name] for r in plain], n=4)
            line += f"  (median of {len(plain)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    if not args.trace:
        print("samples: " + json.dumps({k: [r[k] for r in plain] for k in metrics}))
    print("machine: " + json.dumps(machine()))
    print("environment: " + json.dumps(loop.environment))
    print("limits: " + json.dumps(LIMITS))
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
