r"""IMEX spectral time stepper for the damped fractional wave problem.

The second-order-in-time equation is advanced as the first-order pair

.. math::

    u_t = v, \qquad
    D^{a_1}_{0|t} v = -(-\Delta)^\sigma u - (-\Delta)^\delta I^{1-a_2}_{0|t} v
                      + I^{1-\gamma}_{0|t} |u|^p,

which is equivalent to the original problem because the composite
derivative of order 1+a_1 acts as D^{a_1} on u_t and the damping
derivative of order a_2 acts as I^{1-a_2} on u_t.  Per Fourier mode the
update treats the current-step weight of every memory operator and the
diffusion term implicitly (a scalar 2x2 solve folded into one division),
with all history sums and the nonlinear source explicit.  The linear
update is then unconditionally stable mode by mode: every coefficient in
the implicit denominator is nonnegative.

The scalar equation (C = 1 component, sourced by its own ``|u|^p``) and
the two-component system (C = 2; ``|v|^p`` sources ``u`` and ``|u|^q``
sources ``v``) share one stepper that advances all components together on
``(C, modes)`` arrays, and :func:`detect_blowup` alone reads blow-up times.

Each component carries three memory sums ``sum_k w[j - k] row_k``: the L1
Caputo sum over velocity increments, the damping integral over velocity
panel means, and the source integral over ``|u|^p``, held in mode space
(the sum is linear, so summing the rfft of each row needs no FFT of its
own).  The Caputo and damping sums start with a zero row, which adds
exactly zero, so all 3C sums hold the same number of rows and form one
stacked :class:`MemorySum` that appends, sums and folds in lock step; a
step makes one inverse and one forward FFT for all components.  Summed
directly the sums would cost O(j) at step j and keep every row; a
:class:`MemorySum` keeps the newest ``WINDOW`` = 32 to ``WINDOW + BLOCK``
= 64 rows exact and folds older ones, ``BLOCK`` = 32 at a time, into a
sum-of-exponentials (SOE) state (:func:`fracops.soe_weights`; Jiang,
Zhang, Zhang & Zhang, CiCP 21, 2017) of 84 to 119 terms, read each step
through a rank-r projection, r = 10 to 13 (Beylkin & Monzon, ACHA 28,
2010).  Cost per step and memory are then fixed whatever the step index
or the horizon.  Each fit is checked when built and certified in the tests
to relative error 1e-9 against ``l1_weights``/``rect_weights``, for orders
in [0.05, 0.95] and up to 1e5 steps, and the rank-r tail against the full
one to 1e-12.  A run of at most 64 steps never folds, so it sums exactly
as the direct sums (``_kernels.hist_dot_*``, the tests' reference) do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, ParameterError
from .exponents import ParamSet, SystemParamSet
from .fraclap import Field, SpaceGrid
from .fracops import TimeGrid, TimeSeries, l1_weights, rect_weights, soe_weights
from .testfn import bump_profile


@dataclass(frozen=True)
class BumpSpec:
    """Initial-velocity profile: amplitude * psi(|x - center| / width).

    The canonical bump has support radius 2, so the support radius here is
    ``2 * width``.  Nonnegative amplitudes keep the velocity admissible
    for the blow-up theorems.
    """

    amplitude: float
    width: float
    center: float = 0.0

    def __post_init__(self):
        if self.width <= 0.0:
            raise ParameterError(f"width must be positive, got {self.width}")

    def render(self, grid: SpaceGrid) -> Field:
        x = grid.axis()
        if grid.dim == 1:
            dist = np.abs(x - self.center)
        else:
            c = self.center if isinstance(self.center, tuple) else (self.center,) * 2
            dist = np.hypot(x[:, None] - c[0], x[None, :] - c[1])
        if np.max(np.abs(np.atleast_1d(self.center))) + 2.0 * self.width > grid.half_length:
            raise ParameterError("bump support does not fit inside the box")
        return Field(grid, self.amplitude * bump_profile(dist / self.width))


def default_space_grid(dim: int, bump: BumpSpec, points: int) -> SpaceGrid:
    """Box sized so wrap-around stays negligible: half-length 20x bump width."""
    return SpaceGrid(dim, 20.0 * bump.width, points)


@dataclass
class SimConfig:
    """Everything one run needs.

    ``bump`` is the initial velocity; ``u0`` (default zero, as the blow-up
    results assume) the initial datum.  ``bump2``/``v0_init`` are the second
    component's data (``bump2`` defaults to ``bump``) and are only read by
    :func:`run_system`; they are validated like the first component's.
    ``theorem_mode`` enforces the nonnegative-velocity hypothesis.
    ``snapshot_every`` > 0 stores every k-th state of every component for
    post-hoc analysis; 0 stores none.
    """

    params: object
    space: SpaceGrid
    time: TimeGrid
    bump: BumpSpec
    bump2: BumpSpec | None = None
    u0: Field | None = None
    v0_init: Field | None = None
    threshold: float = 1e8
    nonlinearity: bool = True
    theorem_mode: bool = True
    snapshot_every: int = 0

    def __post_init__(self):
        if not self.threshold > 0.0:
            raise ParameterError(f"threshold must be positive, got {self.threshold}")
        if self.snapshot_every < 0:
            raise ParameterError(
                f"snapshot_every must be nonnegative, got {self.snapshot_every}"
            )
        bumps = [b for b in (self.bump, self.bump2) if b is not None]
        if self.theorem_mode and min(b.amplitude for b in bumps) < 0.0:
            raise ParameterError("theorem mode requires nonnegative initial velocities")
        for name, datum in (("u0", self.u0), ("v0_init", self.v0_init)):
            if datum is not None and datum.grid != self.space:
                raise ParameterError(f"{name} lives on a different grid")
            if datum is not None and datum.sup_norm() >= self.threshold:
                raise ParameterError(
                    f"threshold must exceed the initial sup-norm of {name}"
                )


@dataclass
class SimResult:
    """Outcome of a run.

    ``status`` is Completed, BlowUp, or Diverged.  ``blowup_time`` holds
    the linearly interpolated threshold crossing for BlowUp and the first
    non-finite node for Diverged (both from :func:`detect_blowup`).  The
    sup-norm trace is truncated at the stopping step, so its grid covers
    [0, t_stop].  ``snapshots`` lists (t, Field) pairs when the config's
    ``snapshot_every`` is positive, else None.
    """

    trace: TimeSeries
    status: str
    blowup_time: float | None = None
    snapshots: list | None = None
    steps_taken: int = 0


# Rows of every memory sum kept exact (WINDOW to WINDOW + BLOCK of them), and
# rows folded into the sum-of-exponentials state at once.
WINDOW = 32
BLOCK = 32
# Singular values of the tail-coefficient block kept, relative to the largest.
TAIL_RANK_RTOL = 1e-13


class HistoryBuffer:
    """Per-step rows, oldest first, in one preallocated array."""

    def __init__(self, width: int, capacity: int):
        self._rows = np.zeros((capacity, width))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def append(self, row: np.ndarray):
        self._rows[self._count] = row
        self._count += 1

    def drop_oldest(self, count: int):
        """Forget the ``count`` oldest rows; the others move to the front."""
        keep = self._count - count
        self._rows[:keep] = self._rows[count : self._count]
        self._count = keep


class MemorySum:
    """A stack of S sums ``sum_k w_s[lag_s + age_k] * row_k[s]``, s < S.

    ``families`` gives each sum's ``(kind, order, lag)``; ``w_s`` are the
    ``kind`` (``"l1"``/``"rect"``) weights of ``order`` up to index
    ``steps + lag``, and ``age`` is 0 for the newest row.  :meth:`append`
    adds one ``(S, width)`` row to every sum, so all fill and fold in lock
    step; complex rows are held as float pairs.  The newest ``WINDOW`` to
    ``WINDOW + BLOCK`` rows sit in one window, summed against the exact
    weights by one batched product that reads each sum's columns in place.
    A full window folds its oldest ``BLOCK`` rows, one sum at a time, into
    that sum's sum-of-exponentials state ``S[i] = sum e^{-x_i d_k} row_k``.
    A sum's tail is the coefficient row picked by the window's fill times
    ``S``; the ``BLOCK`` x terms block of those rows is cut at the first
    fold to its r = 10 to 13 singular triplets above ``TAIL_RANK_RTOL``
    times the largest, ``U_r Sigma_r V_r^T``.  Each fold projects ``P =
    V_r^T S`` and each step adds ``(U_r Sigma_r)[fill] @ P``, batched over
    the stack.  Term counts and ranks are padded to the stack's largest
    with zero rows, so padded state and projection rows stay exactly 0.
    """

    def __init__(self, families, width: int, dtype, steps: int):
        self._dtype = np.dtype(dtype)
        self._cols = width * (2 if self._dtype.kind == "c" else 1)
        # reversed, so that the weights of the n newest rows are [..., -n:]
        self._wrev = np.array([
            (l1_weights if kind == "l1" else rect_weights)(order, lag + WINDOW + BLOCK)
            [lag:][::-1] for kind, order, lag in families
        ])[:, None, :]
        self._window = HistoryBuffer(len(families) * self._cols, capacity=WINDOW + BLOCK)
        self._fits = [(k, order, lag + WINDOW + 1, steps + lag) for k, order, lag in families]
        self._state = None
        self.ranks = (0,) * len(families)

    def append(self, row: np.ndarray):
        if len(self._window) == WINDOW + BLOCK:
            self._fold()
        self._window.append(np.ravel(row).view(np.float64))

    def _build_tail(self):
        parts = []
        for kind, order, first, last in self._fits:
            x, c = soe_weights(kind, order, first, last)
            # a window of WINDOW + 1 + f rows puts the newest folded row at
            # weight index first + f
            tail = c * np.exp(-np.outer(np.arange(first, first + BLOCK), x))
            u, sv, vt = np.linalg.svd(tail, full_matrices=False)
            r = int(np.count_nonzero(sv > TAIL_RANK_RTOL * sv[0]))
            # the newest folded row has offset 0 in S; at the next fold every
            # offset grows by BLOCK
            parts.append((np.exp(-BLOCK * x)[:, None],
                          np.exp(-np.outer(x, np.arange(BLOCK - 1.0, -1.0, -1.0))),
                          u[:, :r] * sv[:r], vt[:r]))
        self.ranks = tuple(basis.shape[0] for *_, basis in parts)
        self._decay, self._fold_w, self._coef, self._basis = map(_zero_padded, zip(*parts))
        self._state = np.zeros(self._fold_w.shape[:2] + (self._cols,))
        self._proj = np.empty(self._basis.shape[:2] + (self._cols,))

    def _fold(self):
        if self._state is None:
            self._build_tail()
        else:
            self._state *= self._decay
        old = self._window.rows[:BLOCK].reshape(BLOCK, len(self._fits), self._cols)
        # one sum at a time: a batched product would allocate S x terms rows
        for s, state in enumerate(self._state):
            state += self._fold_w[s] @ old[:, s]
        np.matmul(self._basis, self._state, out=self._proj)
        self._window.drop_oldest(BLOCK)

    @property
    def nbytes(self) -> int:
        """Bytes held: the window's rows, the SOE states and their projections."""
        tail = () if self._state is None else (self._state, self._proj)
        return sum(a.nbytes for a in (self._window.rows, *tail))

    def total(self) -> np.ndarray:
        """The S sums over every row appended so far, as ``(S, width)``."""
        n, count = len(self._window), len(self._fits)
        rows = self._window.rows[:n].reshape(n, count, self._cols).transpose(1, 0, 2)
        out = np.matmul(self._wrev[:, :, WINDOW + BLOCK - n :], rows)
        if self._state is not None:
            out += np.matmul(self._coef[:, n - WINDOW - 1, None], self._proj)
        return out.reshape(count, self._cols).view(self._dtype)


def _zero_padded(arrays) -> np.ndarray:
    """Stack 2-D arrays, padding each with zeros to the largest shape."""
    out = np.zeros((len(arrays),) + tuple(map(max, zip(*(a.shape for a in arrays)))))
    for dst, a in zip(out, arrays):
        dst[: a.shape[0], : a.shape[1]] = a
    return out


def _mode_layout(grid: SpaceGrid):
    # rfft layout: squared wavenumbers flattened, plus transform closures over
    # the trailing space axes, so that they batch over leading ones
    m = grid.points
    if grid.dim == 1:
        kr = 2.0 * math.pi * np.fft.rfftfreq(m, d=grid.spacing)
        k2 = kr**2
        fwd = np.fft.rfft
        inv = lambda a: np.fft.irfft(a, n=m)
    else:
        kx = 2.0 * math.pi * np.fft.fftfreq(m, d=grid.spacing)
        ky = 2.0 * math.pi * np.fft.rfftfreq(m, d=grid.spacing)
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        fwd = lambda a: np.fft.rfftn(a, axes=(-2, -1))
        inv = lambda a: np.fft.irfftn(a, s=(m, m), axes=(-2, -1))
    return k2.ravel(), k2.shape, fwd, inv


class _Channel:
    """The C components of the first-order system, advanced together.

    ``comps[i]`` is ``(alpha1, alpha2, sigma, delta, gamma, power, u0, v0)``;
    component i's source is I^{1-gamma}|u_{feeds[i]}|^power.  At step j the
    stacked history holds, per component, a zero row and v_k - v_{k-1} for
    0 < k < j (weights b), a zero row and (v_{k-1} + v_k)/2 (weights w),
    and the rfft of the source's |.|^power row of every state k < j.
    """

    def __init__(self, space, time, comps, feeds):
        self.h = h = time.h
        k2, shape, self.fwd, self.inv = _mode_layout(space)
        count = len(comps)
        self.mode_shape, self.feeds = (count,) + shape, feeds
        coefs, families = [], []
        for alpha1, alpha2, sigma, delta, gamma, *_ in comps:
            c1 = h ** (-alpha1) / math.gamma(2.0 - alpha1)
            q2 = h ** (1.0 - alpha2) / math.gamma(2.0 - alpha2)
            lsig, ldel = k2**sigma, k2**delta
            # c1 and cg as (C, 1) columns
            coefs.append(([c1], [h ** (1.0 - gamma) / math.gamma(2.0 - gamma)], lsig,
                          ldel * q2, c1 + 0.5 * q2 * ldel + 0.5 * h * lsig))
            families.append((("l1", alpha1, 1), ("rect", 1.0 - alpha2, 2),
                             ("rect", 1.0 - gamma, 1)))
        self.c1, self.cg, self.lsig, self.qdel, self.denom = map(np.array, zip(*coefs))
        self.powers = [c[5] for c in comps]
        self.u0 = np.array([c[6] for c in comps])
        self.uhat, self.vhat = (
            self.fwd(np.array(a)).reshape(count, -1).astype(np.complex128)
            for a in (self.u0, [c[7] for c in comps]))
        # kind-major: every Caputo sum, then every damping sum, then the sources
        self.history = MemorySum([f[k] for k in range(3) for f in families], k2.size,
                                 np.complex128, time.steps)
        # the next row to append; its source part stays 0 while the source is off
        self._row = np.zeros((3, count, k2.size), dtype=np.complex128)
        first = self._source_rows(np.abs(self.u0))[None]
        self.history.append(np.concatenate((self._row[:2], first)))

    def _source_rows(self, mag: np.ndarray) -> np.ndarray:
        # a Python-float exponent keeps numpy's fast path for squares
        power = np.array([mag[k] ** p for k, p in zip(self.feeds, self.powers)])
        return self.fwd(power).reshape(len(self.feeds), -1)

    def step(self, j: int, source: bool):
        """Advance from node j - 1 to node j, with the source if ``source``;
        returns the new states and their sup-norms."""
        caputo, damping, src = self.history.total().reshape(3, len(self.feeds), -1)
        vhat = self.vhat
        rhs = (
            self.c1 * vhat
            - self.c1 * caputo
            - self.qdel * (0.5 * vhat + damping)
            - self.lsig * (self.uhat + 0.5 * self.h * vhat)
        )
        if source:
            rhs += self.cg * src
        vnew = rhs / self.denom
        row = self._row
        row[0], row[1] = vnew - vhat, 0.5 * (vnew + vhat)
        self.uhat += self.h * row[1]  # the trapezoidal rule on v
        self.vhat = vnew
        u = self.inv(self.uhat.reshape(self.mode_shape))
        mag = np.abs(u)
        if source:
            row[2] = self._source_rows(mag)
        self.history.append(row)
        return u, mag.reshape(len(mag), -1).max(axis=1).tolist()


def detect_blowup(trace: TimeSeries, threshold: float):
    """First threshold crossing of a sup-norm trace, linearly interpolated.

    A non-finite entry counts as a crossing at its own node.  Returns None
    when the trace stays finite and below threshold throughout.
    """
    vals, grid = trace.values, trace.grid
    hit = ~np.isfinite(vals) | (vals >= threshold)
    j = int(np.argmax(hit))
    if not hit[j]:
        return None
    # grid.nodes()[k] without building the array: k * h, the horizon at the end
    if not np.isfinite(vals[j]):
        return float(grid.horizon if j == grid.steps else j * grid.h)
    if j == 0:
        return 0.0
    a, b = vals[j - 1], vals[j]
    frac = (threshold - a) / (b - a) if b > a else 1.0
    return float((j - 1) * grid.h + frac * grid.h)


def _march(config: SimConfig, stepper: _Channel):
    """Advance the stepper's components; one :class:`SimResult` each.

    All components stop at the first step where a sup-norm is non-finite
    (Diverged) or reaches the threshold (BlowUp) and report the same status
    and time: :func:`detect_blowup` of the first component, in order, that
    is non-finite, or failing that the first that crossed.  With the
    nonlinearity off, a per-step sup-norm growth beyond 10x in any
    component trips a step-size error: the implicit linear update is
    dissipative mode by mode, so such growth can only mean the time step is
    too coarse.
    """
    space, time = config.space, config.time
    n, h, threshold = time.steps, time.h, config.threshold
    nonlinear, every = config.nonlinearity, config.snapshot_every
    prev = [float(np.abs(u).max()) for u in stepper.u0]
    traces = np.zeros((len(prev), n + 1))  # pages past the stop step stay untouched
    traces[:, 0] = prev
    snaps = [[(0.0, Field(space, u.copy()))] if every else None for u in stepper.u0]
    for j in range(1, n + 1):
        states, sups = stepper.step(j, nonlinear)
        traces[:, j] = sups
        stop = not all(sup < threshold for sup in sups)  # a nan stops too
        # the blow-up state is kept even off the cadence; a non-finite one is not
        if every and (stop or j % every == 0) and all(map(math.isfinite, sups)):
            for snap, u in zip(snaps, states):
                snap.append((h * j, Field(space, u.copy())))
        if stop:
            break
        if not nonlinear:
            for sup, before in zip(sups, prev):
                if before > 0.0 and sup > 10.0 * before:
                    raise NumericsError(
                        f"sup-norm grew {sup / before:.2f}x in one linear step at "
                        f"t={h * j:.3g}; reduce the time step"
                    )
        prev = sups
    else:
        return [SimResult(TimeSeries(time, tr), "Completed", None, sn, n)
                for tr, sn in zip(traces, snaps)]
    if j < 2:
        raise NumericsError(
            "run ended before step 2; the step size is far too coarse for "
            "these data (reduce h or the amplitude)"
        )
    diverged = not all(map(math.isfinite, sups))
    hit = [not math.isfinite(sup) if diverged else sup >= threshold for sup in sups]
    first = TimeSeries(time, traces[hit.index(True)], diverged)
    t_star = detect_blowup(first, threshold)
    grid = time if j == n else TimeGrid(h * j, j)
    status = "Diverged" if diverged else "BlowUp"
    return [
        SimResult(TimeSeries(grid, tr[: j + 1].copy(), diverged), status, t_star, sn, j)
        for tr, sn in zip(traces, snaps)
    ]


def _checked_params(config: SimConfig, kind, message):
    pr = config.params
    if not isinstance(pr, kind):
        raise ParameterError(message)
    if pr.dim != config.space.dim:
        raise ParameterError("params.dim and space.dim disagree")
    return pr


def _initial(space: SpaceGrid, datum: Field | None) -> np.ndarray:
    return datum.values if datum is not None else np.zeros(space.shape())


def run(config: SimConfig) -> SimResult:
    """Advance the scalar problem; stop at blow-up, divergence, or horizon.

    The source is I^{1-gamma}|u|^p: one component fed by itself.  Zero data
    is preserved exactly (every update is a linear combination of zeros).
    """
    pr = _checked_params(config, ParamSet, "run() needs a scalar ParamSet")
    space = config.space
    comp = (pr.alpha1, pr.alpha2, pr.sigma, pr.delta, pr.gamma, pr.p,
            _initial(space, config.u0), config.bump.render(space).values)
    return _march(config, _Channel(space, config.time, [comp], [0]))[0]


def run_system(config: SimConfig):
    """Advance the cross-coupled pair; the components stop together.

    Sources are I^{1-gamma1}|v|^p for the first component and
    I^{1-gamma2}|u|^q for the second: two components, each fed by the
    other.  If either sup-norm crosses the threshold both results report
    BlowUp at the same interpolated time.
    """
    pr = _checked_params(config, SystemParamSet, "run_system() needs a SystemParamSet")
    space = config.space
    bump2 = config.bump2 if config.bump2 is not None else config.bump
    comp_u = (pr.alpha1, pr.alpha2, pr.sigma1, pr.delta1, pr.gamma1, pr.p,
              _initial(space, config.u0), config.bump.render(space).values)
    comp_v = (pr.beta1, pr.beta2, pr.sigma2, pr.delta2, pr.gamma2, pr.q,
              _initial(space, config.v0_init), bump2.render(space).values)
    return tuple(_march(config, _Channel(space, config.time, [comp_u, comp_v], [1, 0])))


def tune_amplitude(config: SimConfig, start: float, max_doublings: int = 12):
    """Double the velocity amplitude until the run reports blow-up.

    Returns (amplitude, result) for the first amplitude that blows up
    within the horizon.  This is an experiment policy, not a statement
    about the threshold: with an admissible power every amplitude blows up
    eventually, but possibly beyond any affordable horizon.
    """
    if start <= 0.0:
        raise ParameterError(f"starting amplitude must be positive, got {start}")
    amp = start
    for _ in range(max_doublings):
        result = run(replace(config, bump=replace(config.bump, amplitude=amp)))
        if result.status == "BlowUp":
            return amp, result
        amp *= 2.0
    raise NumericsError(
        f"no blow-up detected after {max_doublings} doublings from {start}"
    )
