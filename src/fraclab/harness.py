r"""Command-line front end: verification suite, exponent queries, runs, sweeps.

Configuration is a flat INI file (sections per module, key = value), any
entry of which can be overridden through the environment as
``FRACLAB_<SECTION>_<KEY>`` (e.g. ``FRACLAB_TIME_STEPS=2000``).  The
``--tol``, ``--seed``, ``--out`` flags override both.  Any
``FRACLAB_*`` name that is not a config key is refused.

:data:`config._DEFAULTS` is the schema: every key and its typed default.
:func:`build_spec` converts each section a mode reads by those types and
passes it by keyword to the constructor it feeds; ``[system]``, whose keys
follow ``ParamSet``'s fields, builds the system's second ``ParamSet`` block
in ``[params]``' dimension.  A bad ``--out`` is refused there too, before
any work.

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
import math
import os
import random
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import exponents, fraclap, fracops, solver
from .config import _DEFAULTS, load_config
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

def _fmt(x) -> str:
    if x is None:
        return ""
    return "%.12g" % x


# ---------------------------------------------------------------- config


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


def _section(cp, sec: str) -> dict:
    """Every key of ``[sec]``, converted by the type of its default."""
    values = {}
    for key, default in _DEFAULTS[sec].items():
        raw = cp[sec][key]
        if isinstance(default, tuple):
            values[key] = _parse_p_values(raw)
        elif default == "" and not raw.strip():
            values[key] = None
        elif isinstance(default, str) and default:
            values[key] = raw.strip()
        elif isinstance(default, int):
            try:
                values[key] = int(raw)
            except ValueError:
                raise ParameterError(f"[{sec}] {key} must be an integer, got {raw!r}")
        else:
            try:
                values[key] = float(raw)
            except ValueError:
                raise ParameterError(f"[{sec}] {key} must be a number, got {raw!r}")
            # SpaceGrid refuses a non-finite half_length with its own message
            if not math.isfinite(values[key]) and key != "half_length":
                raise ParameterError(f"[{sec}] {key} must be finite, got {raw!r}")
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
        # refused before any work, so a run never ends in a failed write
        if self.out is not None and (os.path.isdir(self.out) or not os.path.isdir(
                os.path.dirname(self.out) or ".")):
            raise ParameterError(
                f"--out {self.out} must name a file in an existing directory"
            )
        if self.amplitude_policy not in ("fixed", "double"):
            raise ParameterError(
                f"amplitude_policy must be 'fixed' or 'double', "
                f"got {self.amplitude_policy!r}"
            )
        # simulate writes snapshots only to --out; without it they would be dropped
        if self.mode == "simulate" and self.snapshot_every > 0 and not self.out:
            raise ParameterError(f"snapshot_every {self.snapshot_every} needs --out, "
                                 f"where simulate writes the snapshots")
        # an empty path would otherwise be read as no --out and skip the write
        if self.out == "":
            raise ParameterError("--out must name a file, got ''")
        # only simulate tunes the amplitude and keeps snapshots, so every
        # other mode would silently drop these settings
        if self.mode != "simulate":
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
        # verify and exponent run nothing, so they would drop a threshold too
        default = _DEFAULTS["run"]["threshold"]
        if self.mode in ("verify", "exponent") and self.threshold != default:
            raise ParameterError(f"threshold applies to simulate and the sweeps only; "
                                 f"{self.mode} needs {default:g}, got {self.threshold:g}")


def build_spec(args) -> ExperimentSpec:
    """One pass over the config sections ``args.mode`` reads, each feeding
    its constructor by keyword (``[system]`` by position); flags override
    ``[verify]``."""
    cp = load_config(args.config)
    mode = args.mode
    verify = _section(cp, "verify")
    fields = dict(
        mode=mode, out=args.out,
        seed=verify["seed"] if args.seed is None else args.seed,
        tol=verify["tol"] if args.tol is None else args.tol,
        **_section(cp, "run"), **_section(cp, "exponent"),
    )
    if mode == "verify":
        return ExperimentSpec(**fields)
    params = _section(cp, "params")
    if mode == "system-sweep" and params["mode"] != "strict":
        raise ParameterError(
            f"system-sweep needs [params] mode 'strict' (the system has no "
            f"permissive mode), got {params['mode']!r}"
        )
    first = ParamSet(**params)
    if mode != "system-sweep":
        fields["params"] = first
    if mode in ("exponent", "system-sweep"):
        system = _section(cp, "system")  # checked also where it goes unused
        # the system's blocks are [params] and [system], whose keys follow
        # ParamSet's fields; it has strict orderings only, so a permissive
        # exponent table leaves it out
        if first.mode == "strict":
            try:
                second = ParamSet(*system.values(), dim=first.dim)
            except ParameterError as exc:
                raise ParameterError(f"[system] block two: {exc}")
            fields["system_params"] = SystemParamSet(first, second)
    if mode == "exponent":
        return ExperimentSpec(**fields)
    bump = BumpSpec(**_section(cp, "bump"))
    space = _section(cp, "space")
    if space["half_length"] is None:
        grid = solver.default_space_grid(params["dim"], bump, space["points"])
    else:
        grid = SpaceGrid(params["dim"], **space)
    spec = ExperimentSpec(
        bump=bump, space=grid, time=TimeGrid(**_section(cp, "time")),
        sweep_p=() if mode == "simulate" else _section(cp, "sweep")["p_values"],
        **fields,
    )
    spec.config = run_config(spec)
    return spec


def run_config(spec: ExperimentSpec) -> SimConfig:
    """The run ``simulate`` advances and a sweep varies in ``p``.

    Built once, while the spec is resolved: the config refuses a bad
    threshold or amplitude, rendering the bump once refuses a bump that
    does not fit its box, and a damping or source order whose memory order
    1 - order rounds to 1 is refused by its key, before any run starts."""
    params = spec.system_params if spec.mode == "system-sweep" else spec.params
    blocks = (params.first, params.second) if isinstance(params, SystemParamSet) else (params,)
    keys = (("[params]", "alpha2", "gamma"), ("[system]", "beta2", "gamma2"))
    for block, (section, *names) in zip(blocks, keys):
        for key, order in zip(names, (block.alpha2, block.gamma)):
            if 1.0 - order == 1.0:
                raise ParameterError(f"{section} {key} {order:g} is too small: its memory "
                                     f"order 1 - {key} rounds to 1")
    config = SimConfig(
        params=params, space=spec.space, time=spec.time, bump=spec.bump,
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

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        s = f"[{tag}] {self.name:<24} residual={self.residual:.3e}  tol={self.tol:.3e}"
        if self.slope is not None:
            s += f"  slope={self.slope:+.2f}"
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


# The verify checks: fn(tol, rng) -> CheckResult, where ``rng`` is the
# ``random.Random`` the composition checks draw their inputs from.  Keyword
# arguments set the strength, verify's as defaults; the acceptance suite runs
# some stronger.  Only the checks that use ``identities`` or ``testfn`` load them.


def check_power_rule(tol, rng) -> CheckResult:
    from . import identities, testfn
    sizes = (2**10, 2**11, 2**12)
    errs = []
    for n in sizes:
        closed = testfn.phi1_right_derivative_closed(8, 1.0, 0.7, n)
        numeric = fracops.rl_right_derivative(testfn.phi1(8, 1.0, n), 0.7)
        lo, hi = int(0.05 * n), int(0.95 * n) + 1
        scale = float(np.max(np.abs(closed.values[lo:hi])))
        errs.append(
            float(np.max(np.abs(numeric.values[lo:hi] - closed.values[lo:hi])) / scale)
        )
    slope = identities._slope(sizes, errs)
    monotone = errs[0] > errs[1] > errs[2]
    return CheckResult(
        "power-rule-phi1", errs[-1] <= tol and monotone, errs[-1], tol, slope
    )


def check_ibp(tol, rng) -> CheckResult:
    from . import identities, testfn
    n = 2**12
    grid = TimeGrid(1.0, n)
    f = fracops.TimeSeries.from_callable(grid, lambda t: t**2)
    g = testfn.phi1(4, 1.0, n)
    rep = identities.check_ibp(f, g, 0.5)
    res = rep.final_residual
    return CheckResult("integration-by-parts", res <= tol, res, tol, rep.slope)


def _random_smooth(rng, n: int) -> fracops.TimeSeries:
    # low-order polynomial whose four positive coefficients are scalar draws
    # from ``rng``, a ``random.Random``, times a high-order vanishing factor:
    # smooth, order-8 flat at the right endpoint
    a = [rng.uniform(0.5, 1.5) for _ in range(4)]
    grid = TimeGrid(1.0, n)
    t = grid.nodes()
    vals = (a[0] + a[1] * t + a[2] * t**2 + a[3] * t**3) * (1.0 - t) ** 8
    return fracops.TimeSeries(grid, vals)


def _composition(name, identity, orders, tol, rng, draws) -> CheckResult:
    # worst residual and slope of ``identity(f, p, q)`` over random draws,
    # each of a smooth f, then of the orders ``orders(rng)`` returns; ``rng``
    # is a ``random.Random``, so verify never loads numpy.random (~6 MB)
    worst, worst_slope = 0.0, math.inf
    for _ in range(draws):
        f = _random_smooth(rng, 2**12)
        rep = identity(f, *orders(rng))
        worst = max(worst, rep.final_residual)
        worst_slope = min(worst_slope, rep.slope)
    return CheckResult(name, worst <= tol and worst_slope > 0.0, worst, tol, worst_slope)


def check_comp_int(tol, rng, *, draws=6) -> CheckResult:
    from . import identities
    def orders(rng):  # q in [0.3, 0.7), then p above it by 0.2 to 0.8
        q = rng.uniform(0.3, 0.7)
        return q + rng.uniform(0.2, 0.8), q

    return _composition("composition-integral", identities.check_composition_int,
                        orders, tol, rng, draws)


def check_comp_derivs(tol, rng, *, draws=6) -> CheckResult:
    from . import identities
    def orders(rng):  # q, then p, each in [0.2, 0.45)
        q = rng.uniform(0.2, 0.45)
        return rng.uniform(0.2, 0.45), q

    return _composition("composition-derivative", identities.check_composition_derivs,
                        orders, tol, rng, draws)


def check_scaling(tol, rng, *, steps=2**12) -> CheckResult:
    from . import testfn
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
    f = fraclap.Field.from_radial(grid, solver.bump_profile)
    spectral = fraclap.apply_spectral(f, 0.5)
    psi = lambda x: solver.bump_profile(abs(x))
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
    base = fraclap.lemma_kk_check(solver.bump_profile, 0.5, 2.0)
    fine = fraclap.lemma_kk_check(solver.bump_profile, 0.5, 2.0, refined=True)
    # both estimates are finite: lemma_kk_check raises on a divergent one
    res = max(
        abs(fine.c1_estimate - base.c1_estimate) / abs(base.c1_estimate),
        abs(fine.c2_estimate - base.c2_estimate) / abs(base.c2_estimate),
    )
    return CheckResult("laplacian-constants", res <= tol, res, tol)


def check_exponents(tol, rng) -> CheckResult:
    base = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)
    r = exponents.critical_exponent(replace(base, p=10.0))
    pairs = [(r.value, 10.0)]
    flags_ok = r.critical_flag
    for sigma in (0.6, 0.7):
        sigma_row = replace(base, sigma=sigma, delta=0.8)
        pairs.append((exponents.critical_exponent(sigma_row).value, math.inf))
    sym = SystemParamSet(base, base)
    pairs.append((exponents.system_dimension_bound(sym).bound, 7.0 / 3.0))
    pairs.append((exponents.local_nonexistence_exponent(base), -3.25))
    pairs.append((exponents.global_decay_exponent(base),
                  (14.0 / 15.0) * 3.25))
    pairs.append((exponents.t_natural(replace(base, p=5.0), 1.0), 2.3593045340150596))
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
    rng = random.Random(spec.seed)
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


def sweep(spec: ExperimentSpec) -> list:
    """One run per requested p of the spec's run, otherwise identical,
    ordered by p; for the system, p is the first block's.  The runs are
    the stop groups of one :func:`solver.march`.  The p_star column holds
    the critical exponent, or for the system (q fixed) the dimension bound,
    the nearest analogue of a critical threshold there."""
    params, p_stars = [], []
    for p in spec.sweep_p:
        pr = spec.config.params
        if isinstance(pr, SystemParamSet):
            params.append(replace(pr, first=replace(pr.first, p=p)))
            p_stars.append(exponents.system_dimension_bound(params[-1]).bound)
        else:
            params.append(replace(pr, p=p))
            p_stars.append(exponents.critical_exponent(params[-1]).value)
    try:
        outcomes = solver.march(spec.config, params) if params else []
    except FraclabError as exc:  # a failure every row shares
        outcomes = [exc] * len(params)
    rows = []
    for p, p_star, results in zip(spec.sweep_p, p_stars, outcomes):
        if isinstance(results, FraclabError):
            rows.append(SweepRow(p, p_star, "Failed", None, float("nan"), str(results)))
            continue
        first = results[0]
        bt = first.blowup_time if first.status == "BlowUp" else None
        final = max(float(r.trace.values[-1]) for r in results)
        rows.append(SweepRow(p, p_star, first.status, bt, final))
    return rows


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
    if sp is None:
        lines.append(f"system: not evaluated; the system needs [params] mode "
                     f"'strict', got {pr.mode!r}")
        return "\n".join(lines) + "\n"
    bound = exponents.system_dimension_bound(sp)
    two = sp.second
    lines.append(
        f"system inputs: q={_fmt(two.p)} beta1={_fmt(two.alpha1)} "
        f"beta2={_fmt(two.alpha2)} gamma2={_fmt(two.gamma)} "
        f"sigma2={_fmt(two.sigma)} delta2={_fmt(two.delta)}"
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
    parser.set_defaults(tol=None, seed=None)
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
    except MemoryError as exc:
        print(f"error: the run does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if spec.out:
        try:
            with open(spec.out, "w") as fh:
                fh.write(saved)
        except OSError as exc:
            print(f"error: cannot write --out {spec.out}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_BAD_CONFIG
    print(text, end="")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
