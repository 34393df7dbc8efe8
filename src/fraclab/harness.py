r"""Command-line front end: verification suite, exponent queries, runs, sweeps.

Configuration is a flat INI file (sections per module, key = value), any
entry of which can be overridden through the environment as
``FRACLAB_<SECTION>_<KEY>`` (e.g. ``FRACLAB_TIME_STEPS=2000``).  The
``--tol``, ``--seed``, ``--jobs``, ``--out`` flags override both.  Any
``FRACLAB_*`` name that is not a config key is refused.

``simulate``, ``sweep`` and ``system-sweep`` share the one run that
:func:`run_config` builds and checks while the spec is resolved, so a run
the solver would refuse exits 2 before any row runs; a ``Failed`` sweep
row means that row's run failed.  :func:`main` prints each mode's text and
writes ``--out`` in one place.

Exit codes: 0 success (including a run that detects blow-up, which is a
result, not a failure); 1 verification suite failure; 2 invalid flags,
config, or parameters; 3 numerical failure (divergence, no blow-up found
while tuning, step-size guard).
"""

from __future__ import annotations

import argparse
import configparser
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import exponents, fraclap, fracops, identities, solver, testfn
from .errors import FraclabError, NoInteriorMinimumError, NumericsError, ParameterError
from .exponents import ParamSet, SystemParamSet
from .fraclap import SpaceGrid
from .fracops import TimeGrid
from .solver import BumpSpec, SimConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICS = 3

_MODES = ("verify", "exponent", "simulate", "sweep", "system-sweep")

_DEFAULTS = {
    "params": {
        "alpha1": "0.5", "alpha2": "0.3", "gamma": "0.25",
        "sigma": "0.5", "delta": "0.7", "p": "2.0",
        "dim": "1", "mode": "strict",
    },
    "system": {
        "beta1": "0.5", "beta2": "0.3", "gamma2": "0.25",
        "sigma2": "0.5", "delta2": "0.7", "q": "2.0",
    },
    "space": {"points": "256", "half_length": ""},
    "time": {"horizon": "50.0", "steps": "50000"},
    "bump": {"amplitude": "4.0", "width": "1.0", "center": "0.0"},
    "run": {"threshold": "1e8", "snapshot_every": "0", "amplitude_policy": "fixed"},
    "sweep": {"p_values": "1.5, 2, 3"},
    "exponent": {"radius": "1.0"},
    "verify": {"seed": "7", "tol": ""},
}


def _fmt(x) -> str:
    if x is None:
        return ""
    return "%.12g" % x


# ---------------------------------------------------------------- config


def load_config(path: str | None) -> configparser.ConfigParser:
    """Defaults, then the file, then FRACLAB_<SECTION>_<KEY> overrides.

    Values are read literally: ``%`` is not interpolation syntax."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(_DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ParameterError(f"config file not found: {path}")
        probe = configparser.ConfigParser(interpolation=None)
        try:
            probe.read(path)
        except configparser.Error as exc:
            raise ParameterError(f"config file {path} is not valid INI: {exc}")
        for sec in probe.sections():
            if sec not in _DEFAULTS:
                raise ParameterError(
                    f"unknown config section [{sec}]; known: {sorted(_DEFAULTS)}"
                )
            for key in probe[sec]:
                if key not in _DEFAULTS[sec]:
                    raise ParameterError(
                        f"unknown key {key!r} in [{sec}]; known: "
                        f"{sorted(_DEFAULTS[sec])}"
                    )
        cp.read(path)
    for name, value in os.environ.items():
        if not name.startswith("FRACLAB_"):
            continue
        section, _, key = name[len("FRACLAB_"):].lower().partition("_")
        if key not in _DEFAULTS.get(section, ()):
            where = f"in [{section}]" if section in _DEFAULTS else f"of {sorted(_DEFAULTS)}"
            raise ParameterError(f"environment override {name} names no config key {where}")
        cp[section][key] = value
    return cp


def _as_number(cp, sec: str, key: str) -> float:
    raw = cp[sec][key]
    try:
        return float(raw)
    except ValueError:
        raise ParameterError(f"[{sec}] {key} must be a number, got {raw!r}")


def _as_float(cp, sec: str, key: str) -> float:
    value = _as_number(cp, sec, key)
    if not math.isfinite(value):
        raise ParameterError(f"[{sec}] {key} must be finite, got {cp[sec][key]!r}")
    return value


def _as_int(cp, sec: str, key: str) -> int:
    raw = cp[sec][key]
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"[{sec}] {key} must be an integer, got {raw!r}")


def _build_params(cp) -> ParamSet:
    return ParamSet(
        alpha1=_as_float(cp, "params", "alpha1"),
        alpha2=_as_float(cp, "params", "alpha2"),
        gamma=_as_float(cp, "params", "gamma"),
        sigma=_as_float(cp, "params", "sigma"),
        delta=_as_float(cp, "params", "delta"),
        p=_as_float(cp, "params", "p"),
        dim=_as_int(cp, "params", "dim"),
        mode=cp["params"]["mode"].strip(),
    )


def _build_system(cp) -> SystemParamSet:
    # block one reuses [params]; block two comes from [system]
    return SystemParamSet(
        alpha1=_as_float(cp, "params", "alpha1"),
        alpha2=_as_float(cp, "params", "alpha2"),
        gamma1=_as_float(cp, "params", "gamma"),
        sigma1=_as_float(cp, "params", "sigma"),
        delta1=_as_float(cp, "params", "delta"),
        beta1=_as_float(cp, "system", "beta1"),
        beta2=_as_float(cp, "system", "beta2"),
        gamma2=_as_float(cp, "system", "gamma2"),
        sigma2=_as_float(cp, "system", "sigma2"),
        delta2=_as_float(cp, "system", "delta2"),
        p=_as_float(cp, "params", "p"),
        q=_as_float(cp, "system", "q"),
        dim=_as_int(cp, "params", "dim"),
    )


def _build_bump(cp) -> BumpSpec:
    return BumpSpec(
        amplitude=_as_float(cp, "bump", "amplitude"),
        width=_as_float(cp, "bump", "width"),
        center=_as_float(cp, "bump", "center"),
    )


def _build_space(cp, dim: int, bump: BumpSpec) -> SpaceGrid:
    points = _as_int(cp, "space", "points")
    if cp["space"]["half_length"].strip() == "":
        return solver.default_space_grid(dim, bump, points)
    # SpaceGrid refuses a non-finite length with its own message
    return SpaceGrid(dim, _as_number(cp, "space", "half_length"), points)


def _build_time(cp) -> TimeGrid:
    return TimeGrid(_as_float(cp, "time", "horizon"), _as_int(cp, "time", "steps"))


def _parse_p_values(raw: str) -> tuple:
    items = [s.strip() for s in raw.replace(";", ",").split(",") if s.strip()]
    try:
        values = tuple(float(s) for s in items)
    except ValueError:
        raise ParameterError(f"sweep p values must be numbers, got {raw!r}")
    for v in values:
        if not 1.0 < v < math.inf:
            raise ParameterError(f"sweep powers must be finite and exceed 1, got {v}")
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ParameterError(
                "sweep powers must be strictly ascending (duplicates rejected), "
                f"got {values}"
            )
    return values


# ---------------------------------------------------------------- spec


@dataclass
class ExperimentSpec:
    """One resolved invocation: mode plus everything the mode needs."""

    mode: str
    params: ParamSet | None = None
    system_params: SystemParamSet | None = None
    space: SpaceGrid | None = None
    time: TimeGrid | None = None
    bump: BumpSpec | None = None
    sweep_p: tuple = ()  # empty is legal in sweep modes: a header-only CSV
    out: str | None = None
    tol: float | None = None
    jobs: int | None = None
    seed: int = 7
    threshold: float = 1e8
    snapshot_every: int = 0
    amplitude_policy: str = "fixed"
    radius: float = 1.0
    config: SimConfig | None = None  # the checked run, in the run modes

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        # only verify reads the tolerance and the seed, so only verify
        # refuses bad ones
        if self.mode == "verify":
            if self.tol is not None and not 0.0 <= self.tol < math.inf:
                raise ParameterError(
                    f"tolerance must be finite and nonnegative, got {self.tol}"
                )
            if self.seed < 0:
                raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if self.jobs is not None and self.jobs < 1:
            raise ParameterError(f"jobs must be at least 1, got {self.jobs}")
        if self.amplitude_policy not in ("fixed", "double"):
            raise ParameterError(
                f"amplitude_policy must be 'fixed' or 'double', "
                f"got {self.amplitude_policy!r}"
            )
        # sweep rows run every p at the configured amplitude and keep only
        # the sup-norm trace, so these settings would be silently dropped
        if self.mode in ("sweep", "system-sweep"):
            if self.amplitude_policy != "fixed":
                raise ParameterError(
                    f"amplitude_policy {self.amplitude_policy!r} applies to "
                    f"simulate only; {self.mode} needs 'fixed'"
                )
            if self.snapshot_every > 0:
                raise ParameterError(
                    f"snapshot_every applies to simulate only; {self.mode} "
                    f"needs 0, got {self.snapshot_every}"
                )


def build_spec(args) -> ExperimentSpec:
    cp = load_config(args.config)
    mode = args.mode
    seed = args.seed if args.seed is not None else _as_int(cp, "verify", "seed")
    tol = args.tol
    if tol is None and cp["verify"]["tol"].strip():
        tol = _as_float(cp, "verify", "tol")
    common = dict(
        mode=mode, out=args.out, tol=tol, jobs=args.jobs, seed=seed,
        threshold=_as_float(cp, "run", "threshold"),
        snapshot_every=_as_int(cp, "run", "snapshot_every"),
        amplitude_policy=cp["run"]["amplitude_policy"].strip(),
        radius=_as_float(cp, "exponent", "radius"),
    )
    if mode == "verify":
        return ExperimentSpec(**common)
    if mode == "exponent":
        return ExperimentSpec(
            params=_build_params(cp), system_params=_build_system(cp), **common
        )
    bump = _build_bump(cp)
    system = mode == "system-sweep"
    params = _build_system(cp) if system else _build_params(cp)
    spec = ExperimentSpec(
        params=None if system else params,
        system_params=params if system else None,
        space=_build_space(cp, params.dim, bump),
        time=_build_time(cp),
        bump=bump,
        sweep_p=() if mode == "simulate" else _parse_p_values(cp["sweep"]["p_values"]),
        **common,
    )
    spec.config = run_config(spec)
    return spec


def run_config(spec: ExperimentSpec) -> SimConfig:
    """The run ``simulate`` advances and a sweep varies in ``p``.

    Built once, while the spec is resolved: the config refuses a bad
    threshold or amplitude, and rendering the bump once refuses a bump that
    does not fit its box, before any run starts."""
    config = SimConfig(
        params=spec.system_params if spec.mode == "system-sweep" else spec.params,
        space=spec.space, time=spec.time, bump=spec.bump,
        threshold=spec.threshold, snapshot_every=spec.snapshot_every,
    )
    spec.bump.render(spec.space)
    return config


# ---------------------------------------------------------------- verify


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    slope: float | None = None
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        s = f"[{tag}] {self.name:<24} residual={self.residual:.3e}  tol={self.tol:.3e}"
        if self.slope is not None:
            s += f"  slope={self.slope:+.2f}"
        if self.detail:
            s += f"  ({self.detail})"
        return s


@dataclass(frozen=True)
class VerifyReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [r.line() for r in self.results]
        n_ok = sum(r.passed for r in self.results)
        lines.append(f"{n_ok}/{len(self.results)} checks passed")
        return "\n".join(lines)


# The verify checks: fn(tol, rng) -> CheckResult.  Keyword arguments set the
# strength, verify's as defaults; the acceptance suite runs some stronger.


def _tf(eta: int) -> testfn.TestFunctionParams:
    return testfn.TestFunctionParams(eta=eta, horizon=1.0, theta=3.0, p=2.0)


def check_power_rule(tol, rng) -> CheckResult:
    params = _tf(8)
    sizes = (2**10, 2**11, 2**12)
    errs = []
    for n in sizes:
        closed = testfn.phi1_right_derivative_closed(params, 0.7, n)
        numeric = fracops.rl_right_derivative(testfn.phi1(params, n), 0.7)
        lo, hi = int(0.05 * n), int(0.95 * n) + 1
        scale = float(np.max(np.abs(closed.values[lo:hi])))
        errs.append(
            float(np.max(np.abs(numeric.values[lo:hi] - closed.values[lo:hi])) / scale)
        )
    slope = float(np.polyfit(np.log2(sizes), np.log2(errs), 1)[0]) * -1.0
    monotone = errs[0] > errs[1] > errs[2]
    return CheckResult(
        "power-rule-phi1", errs[-1] <= tol and monotone, errs[-1], tol, slope
    )


def check_ibp(tol, rng) -> CheckResult:
    n = 2**12
    grid = TimeGrid(1.0, n)
    f = fracops.TimeSeries.from_callable(grid, lambda t: t**2)
    g = testfn.phi1(_tf(4), n)
    rep = identities.check_ibp(f, g, 0.5)
    res = rep.final_residual
    return CheckResult("integration-by-parts", res <= tol, res, tol, rep.slope)


def _random_smooth(rng, n: int) -> fracops.TimeSeries:
    # low-order polynomial with positive coefficients times a high-order
    # vanishing factor: smooth, order-8 flat at the right endpoint
    a = rng.uniform(0.5, 1.5, size=4)
    grid = TimeGrid(1.0, n)
    t = grid.nodes()
    vals = (a[0] + a[1] * t + a[2] * t**2 + a[3] * t**3) * (1.0 - t) ** 8
    return fracops.TimeSeries(grid, vals)


def check_comp_int(tol, rng, *, draws=6) -> CheckResult:
    worst, worst_slope = 0.0, math.inf
    for _ in range(draws):
        f = _random_smooth(rng, 2**12)
        q = float(rng.uniform(0.3, 0.7))
        p = q + float(rng.uniform(0.2, 0.8))
        rep = identities.check_composition_int(f, p, q)
        worst = max(worst, rep.final_residual)
        worst_slope = min(worst_slope, rep.slope)
    return CheckResult(
        "composition-integral", worst <= tol and worst_slope > 0.0,
        worst, tol, worst_slope,
    )


def check_comp_derivs(tol, rng, *, draws=6) -> CheckResult:
    worst, worst_slope = 0.0, math.inf
    for _ in range(draws):
        f = _random_smooth(rng, 2**12)
        q = float(rng.uniform(0.2, 0.45))
        p = float(rng.uniform(0.2, 0.45))
        rep = identities.check_composition_derivs(f, p, q)
        worst = max(worst, rep.final_residual)
        worst_slope = min(worst_slope, rep.slope)
    return CheckResult(
        "composition-derivative", worst <= tol and worst_slope > 0.0,
        worst, tol, worst_slope,
    )


def check_scaling(tol, rng, *, steps=2**12) -> CheckResult:
    worst = 0.0
    pp = 2.0  # conjugate of p = 2
    for theta_d in (0.5, 1.3):
        for predicted, quad in (
            (1.0 - theta_d, lambda T: testfn.lemma3_integral_one_quad(
                8, theta_d, T, steps)),
            (1.0 - pp * theta_d, lambda T: testfn.lemma3_integral_two_quad(
                8, theta_d, 2.0, T, steps)),
        ):
            measured = math.log2(quad(2.0) / quad(1.0))
            worst = max(worst, abs(measured - predicted))
    return CheckResult("lemma3-scaling", worst <= tol, worst, tol)


_PROBES = (0.0, 0.5, 1.0, 1.5)


def check_laplacian(tol, rng) -> CheckResult:
    grid = SpaceGrid(1, 8.0, 512)
    f = fraclap.Field.from_radial(grid, testfn.bump_profile)
    spectral = fraclap.apply_spectral(f, 0.5)
    psi = lambda x: testfn.bump_profile(abs(x))
    sing = np.array(
        [fraclap.apply_singular_integral(psi, x, 0.5) for x in _PROBES]
    )
    axis = grid.axis()
    spec_at = np.array(
        [spectral.values[int(np.argmin(np.abs(axis - x)))] for x in _PROBES]
    )
    res = float(np.max(np.abs(spec_at - sing)) / np.max(np.abs(sing)))
    return CheckResult("laplacian-cross-method", res <= tol, res, tol)


def check_kk(tol, rng) -> CheckResult:
    psi = lambda r: testfn.bump_profile(r)
    base = fraclap.lemma_kk_check(psi, 0.5, 2.0)
    fine = fraclap.lemma_kk_check(psi, 0.5, 2.0, rule=fraclap.DEFAULT_RULE.refined())
    ok = all(
        math.isfinite(v)
        for v in (base.c1_estimate, base.c2_estimate, fine.c1_estimate,
                  fine.c2_estimate)
    )
    res = max(
        abs(fine.c1_estimate - base.c1_estimate) / abs(base.c1_estimate),
        abs(fine.c2_estimate - base.c2_estimate) / abs(base.c2_estimate),
    )
    return CheckResult("laplacian-constants", ok and res <= tol, res, tol)


def check_exponents(tol, rng) -> CheckResult:
    pairs = []
    r = exponents.critical_exponent_scalar(1, 0.5, 0.25, 0.5, p=10.0)
    pairs.append((r.value, 10.0))
    flags_ok = r.critical_flag
    pairs.append((exponents.critical_exponent_scalar(1, 0.5, 0.25, 0.6).value,
                  math.inf))
    pairs.append((exponents.critical_exponent_scalar(1, 0.5, 0.25, 0.7).value,
                  math.inf))
    sym = SystemParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 0.5, 0.3, 0.25, 0.5, 0.7,
                         2.0, 2.0)
    pairs.append((exponents.system_dimension_bound(sym).bound, 7.0 / 3.0))
    base = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)
    pairs.append((exponents.local_nonexistence_exponent(base), -3.25))
    pairs.append((exponents.global_decay_exponent(base),
                  (14.0 / 15.0) * 3.25))
    tmin = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 5.0)
    pairs.append((exponents.t_natural(tmin, 1.0), 2.3593045340150596))
    res = 0.0
    for got, want in pairs:
        if math.isinf(want):
            res = max(res, 0.0 if math.isinf(got) else math.inf)
        else:
            res = max(res, abs(got - want))
    return CheckResult("exponent-table", flags_ok and res <= tol, res, tol)


def check_zero(tol, rng, *, horizon=0.016, steps=16) -> CheckResult:
    cfg = SimConfig(
        params=ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0),
        space=SpaceGrid(1, 20.0, 64),
        time=TimeGrid(horizon, steps),
        bump=BumpSpec(0.0, 1.0),
    )
    result = solver.run(cfg)
    res = float(np.max(np.abs(result.trace.values)))
    ok = result.status == "Completed" and res <= tol
    return CheckResult("zero-fixed-point", ok, res, tol)


_REGISTRY = (
    ("power-rule-phi1", 0.01, check_power_rule),
    ("integration-by-parts", 0.01, check_ibp),
    ("composition-integral", 0.02, check_comp_int),
    ("composition-derivative", 0.02, check_comp_derivs),
    ("lemma3-scaling", 0.02, check_scaling),
    ("laplacian-cross-method", 0.02, check_laplacian),
    ("laplacian-constants", 0.10, check_kk),
    ("exponent-table", 1e-12, check_exponents),
    ("zero-fixed-point", 1e-12, check_zero),
)


def verify_all(spec: ExperimentSpec) -> VerifyReport:
    """Run every registered identity/scaling/bound check at default strength.

    ``spec.tol`` (when set) replaces each check's default tolerance.  The
    acceptance suite calls the same check functions with larger sizes,
    more draws or longer runs.  The blow-up reproduction is deliberately
    not in the registry (it is an experiment, not an identity).
    """
    rng = np.random.default_rng(spec.seed)
    results = []
    for name, default_tol, fn in _REGISTRY:
        tol = spec.tol if spec.tol is not None else default_tol
        results.append(fn(tol, rng))
    return VerifyReport(tuple(results))


# ---------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class SweepRow:
    """One sweep result; ``message`` is a Failed row's error text (not in
    the CSV)."""

    p: float
    p_star: float
    status: str
    blowup_time: float | None
    final_supnorm: float
    message: str = ""

    def csv(self) -> str:
        return ",".join((
            _fmt(self.p), _fmt(self.p_star), self.status,
            _fmt(self.blowup_time), _fmt(self.final_supnorm),
        ))


CSV_HEADER = "p,p_star,status,blowup_time,final_supnorm"


def _sweep_row(task) -> SweepRow:
    config, p_star = task
    p = config.params.p
    try:
        if isinstance(config.params, SystemParamSet):
            results = solver.run_system(config)
        else:
            results = (solver.run(config),)
    except FraclabError as exc:
        return SweepRow(p, p_star, "Failed", None, float("nan"), str(exc))
    first = results[0]
    bt = first.blowup_time if first.status == "BlowUp" else None
    final = max(float(r.trace.values[-1]) for r in results)
    return SweepRow(p, p_star, first.status, bt, final)


# Thread-count variables of the BLAS pools a sweep worker's numpy may start.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _run_tasks(tasks, worker, jobs: int | None) -> list:
    """Run ``worker`` over ``tasks`` in order on ``jobs`` processes
    (default: one per CPU)."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    # Workers are fresh interpreters that read their BLAS thread count when
    # they import numpy: one each, unless the user chose a count.  Forked
    # workers would each start one BLAS thread per core, oversubscribing the
    # CPUs ``jobs`` times over.
    unset = [name for name in _BLAS_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            return list(pool.map(worker, tasks))  # map preserves input order
    finally:
        for name in unset:
            del os.environ[name]


def sweep(spec: ExperimentSpec) -> list:
    """One run per requested p of the spec's run, otherwise identical,
    ordered by p.  The p_star column holds the critical exponent, or for
    the system (q fixed) the dimension bound, the nearest analogue of a
    critical threshold there."""
    tasks = []
    for p in spec.sweep_p:
        params = replace(spec.config.params, p=p)
        if isinstance(params, SystemParamSet):
            p_star = exponents.system_dimension_bound(params).bound
        else:
            p_star = exponents.critical_exponent(params).value
        tasks.append((replace(spec.config, params=params), p_star))
    return _run_tasks(tasks, _sweep_row, spec.jobs)


def render_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


# ---------------------------------------------------------------- queries


def exponent_query(spec: ExperimentSpec) -> str:
    pr = spec.params
    lines = [
        "inputs: " + " ".join(
            f"{k}={_fmt(getattr(pr, k))}"
            for k in ("alpha1", "alpha2", "gamma", "sigma", "delta", "p")
        ) + f" dim={pr.dim}",
    ]
    rep = exponents.critical_exponent(pr)
    line = f"p_star = {_fmt(rep.value)} (denominator = {_fmt(rep.denominator)})"
    if rep.critical_flag:
        line += " [p sits exactly at the threshold]"
    lines.append(line)
    if rep.proof_side_condition:
        lines.append(f"note: {rep.proof_side_condition}")
    lines.append(f"local_exponent = {_fmt(exponents.local_nonexistence_exponent(pr))}")
    lines.append(f"decay_exponent = {_fmt(exponents.global_decay_exponent(pr))}")
    try:
        tn = exponents.t_natural(pr, spec.radius)
        lines.append(f"t_natural(radius={_fmt(spec.radius)}) = {_fmt(tn)}")
    except NoInteriorMinimumError as exc:
        lines.append(f"t_natural: no interior minimum ({exc})")
    sp = spec.system_params
    bound = exponents.system_dimension_bound(sp)
    lines.append(
        f"system inputs: q={_fmt(sp.q)} beta1={_fmt(sp.beta1)} "
        f"beta2={_fmt(sp.beta2)} gamma2={_fmt(sp.gamma2)} "
        f"sigma2={_fmt(sp.sigma2)} delta2={_fmt(sp.delta2)}"
    )
    lines.append(
        f"dimension_bound = {_fmt(bound.bound)} "
        f"(branches {_fmt(bound.branch_one)}, {_fmt(bound.branch_two)})"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- simulate


def _grid_header(title: str, space: SpaceGrid, time_grid: TimeGrid,
                 columns: str) -> list:
    return [
        f"# fraclab {title}",
        f"# dim={space.dim} points={space.points} "
        f"half_length={_fmt(space.half_length)} spacing={_fmt(space.spacing)}",
        f"# horizon={_fmt(time_grid.horizon)} steps={time_grid.steps} "
        f"h={_fmt(time_grid.h)}",
        f"# columns: {columns}",
    ]


def render_snapshots(space: SpaceGrid, time_grid: TimeGrid, snaps) -> str:
    """Delimited text: metadata header lines, then one row (t, values...)
    per snapshot, 12 significant digits, row-major flattening in 2-D."""
    lines = _grid_header("snapshots", space, time_grid,
                         "t value[i] (grid values flattened row-major)")
    for t, field in snaps:
        row = [_fmt(t)] + [_fmt(v) for v in field.values.ravel()]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def render_trace(space: SpaceGrid, result) -> str:
    grid = result.trace.grid
    lines = _grid_header("sup-norm trace", space, grid, "t supnorm")
    t = grid.nodes()
    for i, v in enumerate(result.trace.values):
        lines.append(f"{_fmt(t[i])} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def simulate(spec: ExperimentSpec) -> tuple:
    """Advance the spec's run: (summary, trace or snapshot text, exit code)."""
    amplitude = spec.bump.amplitude
    if spec.amplitude_policy == "double":
        amplitude, result = solver.tune_amplitude(spec.config, amplitude)
    else:
        result = solver.run(spec.config)
    lines = [
        f"status = {result.status}",
        f"amplitude = {_fmt(amplitude)}",
        f"blowup_time = {_fmt(result.blowup_time)}",
        f"final_supnorm = {_fmt(float(result.trace.values[-1]))}",
        f"steps_taken = {result.steps_taken}",
    ]
    saved = ""
    if spec.out:
        saved = (render_snapshots(spec.space, spec.time, result.snapshots)
                 if result.snapshots else render_trace(spec.space, result))
        lines.append(f"wrote {spec.out}")
    code = EXIT_NUMERICS if result.status == "Diverged" else EXIT_OK
    return "\n".join(lines) + "\n", saved, code


def _outcome(spec: ExperimentSpec) -> tuple:
    """(stdout text, the text ``--out`` saves, exit code) of one mode."""
    if spec.mode == "verify":
        report = verify_all(spec)
        text = report.render() + "\n"
        return text, text, EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED
    if spec.mode == "exponent":
        text = exponent_query(spec)
        return text, text, EXIT_OK
    if spec.mode == "simulate":
        return simulate(spec)
    rows = sweep(spec)
    for row in rows:
        if row.status == "Failed":
            print(f"warning: p={_fmt(row.p)}: {row.message}", file=sys.stderr)
    text = render_csv(rows)
    return text, text, EXIT_OK


# ---------------------------------------------------------------- main


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Numerical laboratory for a damped time-space fractional "
                    "wave equation with a memory-in-time source.",
    )
    # each mode registers only its own flags, so argparse refuses the rest
    parser.set_defaults(tol=None, jobs=None, seed=None)
    sub = parser.add_subparsers(dest="mode", required=True)
    helps = {
        "verify": "run the registered identity/scaling/bound checks",
        "exponent": "print the critical-exponent table for the configured "
                    "parameters",
        "simulate": "advance one run and report its outcome",
        "sweep": "run a sweep over source powers p, emit CSV",
        "system-sweep": "sweep the coupled system over p (q fixed), emit CSV",
    }
    for name in _MODES:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="INI config file")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write the report/CSV/trace here as well")
        if name == "verify":
            sp.add_argument("--tol", type=float, default=None,
                            help="override every verification tolerance")
            sp.add_argument("--seed", type=int, default=None,
                            help="seed for randomized verification inputs")
        if name in ("sweep", "system-sweep"):
            sp.add_argument("--jobs", type=int, default=None, metavar="N",
                            help="sweep worker processes (default: CPU count)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        spec = build_spec(args)
        text, saved, code = _outcome(spec)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except FraclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(saved)
    print(text, end="")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
