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

The scalar equation and the two-component system share one step loop over
channels, one channel per component: the scalar source reads its own
``|u|^p``, and the system's two sources read each other's (``|v|^p`` for
``u``, ``|u|^q`` for ``v``).  The loop stops at the first non-finite or
threshold-crossing sup-norm, and :func:`detect_blowup` alone reads the
blow-up time from the traces.

Each channel carries three memory sums ``sum_k w[j - k] row_k``: the L1
Caputo sum over velocity increments, the damping integral over velocity
panel means, and the source integral over ``|u|^p``.  Summed directly they
cost O(j) at step j, O(n^2) per run, and keep every row.  A
:class:`MemorySum` instead keeps the newest ``WINDOW`` = 32 to
``WINDOW + BLOCK`` = 64 rows and sums them with the exact weights.  Older
rows are folded, ``BLOCK`` = 32 at a time, into a sum-of-exponentials (SOE)
state, one row per exponential term (:func:`fracops.soe_weights`; Jiang,
Zhang, Zhang & Zhang, CiCP 21, 2017).  That is 84 terms for 3000 steps, 112
for 5e4 and 119 for 1e5.  Each step reads the tail through a rank-r
projection of that state instead of the state itself: the coefficient rows
the window's fill can pick span a space of numerical rank r = 10 to 13
(singular values above ``TAIL_RANK_RTOL`` = 1e-13 of the largest; Beylkin &
Monzon, ACHA 28, 2010).  The cost per step and the memory are then fixed by
``WINDOW``, ``BLOCK``, the term count and r, whatever the step index or the
horizon.  Each fit is checked when it is built and certified in the tests
to relative error 1e-9 against ``l1_weights``/``rect_weights``, for orders
in [0.05, 0.95] and up to 1e5 steps, and the rank-r tail is tested against
the full one to 1e-12.  A run of at most 64 steps never folds, so it sums
exactly as the direct sums do; the direct sums (``_kernels.hist_dot_*``)
remain as the reference in the tests.
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
    """Per-step rows, oldest first, in one contiguous array.

    Grows by doubling when full; :class:`MemorySum` sizes its window so that
    it never does.
    """

    def __init__(self, width: int, dtype=np.float64, capacity: int = 1024):
        self._rows = np.zeros((capacity, width), dtype=dtype)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def append(self, row: np.ndarray):
        if self._count == self._rows.shape[0]:
            grown = np.zeros(
                (2 * self._rows.shape[0], self._rows.shape[1]), dtype=self._rows.dtype
            )
            grown[: self._count] = self._rows
            self._rows = grown
        self._rows[self._count] = row
        self._count += 1

    def drop_oldest(self, count: int):
        """Forget the ``count`` oldest rows; the others move to the front."""
        keep = self._count - count
        self._rows[:keep] = self._rows[count : self._count]
        self._count = keep


class MemorySum:
    """``sum_k w[lag + age_k] * row_k`` over every row appended so far.

    ``age`` is 0 for the newest row and ``w`` are the ``kind`` weights of
    ``order`` (``"l1"``: :func:`l1_weights`, ``"rect"``: :func:`rect_weights`),
    for weight indices up to ``steps + lag``.  The newest rows, ``WINDOW`` to
    ``WINDOW + BLOCK`` of them, are summed against the exact weights.  When
    the window is full, its oldest ``BLOCK`` rows are folded into the
    sum-of-exponentials state ``S[i] = sum e^{-x_i d_k} row_k`` (one real
    GEMM; complex rows are read as pairs of floats) and dropped.

    The tail of the sum is the coefficient row picked by the window's fill
    times ``S``.  The ``BLOCK`` x terms block of those rows has numerical
    rank r of 10 to 13, so at the first fold it is cut to its r singular
    triplets above ``TAIL_RANK_RTOL`` times the largest, ``U_r Sigma_r
    V_r^T``.  Each fold then projects ``P = V_r^T S`` (r rows), and each
    step sums ``(U_r Sigma_r)[fill] @ P``, reading r rows instead of one per
    term.  ``S`` is kept for the next fold.  The fit is built at the first
    fold, so runs of at most ``WINDOW + BLOCK`` = 64 rows sum exactly.
    """

    def __init__(self, kind: str, order: float, lag: int, width: int, dtype,
                 steps: int):
        weights = l1_weights if kind == "l1" else rect_weights
        # reversed, so that the weights of the n newest rows are _wrev[-n:]
        self._wrev = weights(order, lag + WINDOW + BLOCK)[lag:][::-1].copy()
        self._window = HistoryBuffer(width, dtype, capacity=WINDOW + BLOCK)
        self._fit = (kind, order, lag + WINDOW + 1, steps + lag)
        self._complex = np.dtype(dtype).kind == "c"
        self._state = None
        self.rank = 0

    def append(self, row: np.ndarray):
        if len(self._window) == WINDOW + BLOCK:
            self._fold()
        self._window.append(row)

    def _fold(self):
        if self._state is None:
            x, c = soe_weights(*self._fit)
            first = self._fit[2]
            # the newest folded row has offset 0 in S; at the next fold every
            # offset grows by BLOCK
            self._decay = np.exp(-BLOCK * x)[:, None]
            self._fold_w = np.exp(-np.outer(x, np.arange(BLOCK - 1.0, -1.0, -1.0)))
            # a window of WINDOW + 1 + f rows puts the newest folded row at
            # weight index first + f
            tail = c * np.exp(-np.outer(np.arange(first, first + BLOCK), x))
            u, sv, vt = np.linalg.svd(tail, full_matrices=False)
            self.rank = int(np.count_nonzero(sv > TAIL_RANK_RTOL * sv[0]))
            self._coef = u[:, : self.rank] * sv[: self.rank]
            self._basis = vt[: self.rank].copy()
            width = self._window.rows.shape[1] * (2 if self._complex else 1)
            self._state = np.zeros((x.size, width))
            self._proj = np.empty((self.rank, width))
        else:
            self._state *= self._decay
        self._state += self._fold_w @ self._window.rows[:BLOCK].view(np.float64)
        np.matmul(self._basis, self._state, out=self._proj)
        self._window.drop_oldest(BLOCK)

    @property
    def nbytes(self) -> int:
        """Bytes of history held: the window's rows, the SOE state and its
        projection."""
        if self._state is None:
            return self._window.rows.nbytes
        return self._window.rows.nbytes + self._state.nbytes + self._proj.nbytes

    def total(self) -> np.ndarray:
        n = len(self._window)
        out = np.dot(self._wrev[WINDOW + BLOCK - n :], self._window.rows[:n])
        if self._state is not None:
            tail = self._coef[n - WINDOW - 1] @ self._proj
            out += tail.view(np.complex128) if self._complex else tail
        return out


def _mode_layout(grid: SpaceGrid):
    # rfft layout: squared wavenumbers flattened, plus transform closures
    m = grid.points
    if grid.dim == 1:
        kr = 2.0 * math.pi * np.fft.rfftfreq(m, d=grid.spacing)
        k2 = kr**2
        shape = k2.shape
        fwd = np.fft.rfft
        inv = lambda a: np.fft.irfft(a, n=m)
    else:
        kx = 2.0 * math.pi * np.fft.fftfreq(m, d=grid.spacing)
        ky = 2.0 * math.pi * np.fft.rfftfreq(m, d=grid.spacing)
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        shape = k2.shape
        fwd = np.fft.rfftn
        inv = lambda a: np.fft.irfftn(a, s=(m, m), axes=(0, 1))
    return k2.ravel(), shape, fwd, inv


class _Channel:
    """One component of the first-order system, advanced in mode space."""

    def __init__(self, space, time, alpha1, alpha2, sigma, delta,
                 src_gamma, store_power, u0_vals, v0_vals):
        self.space = space
        self.h = time.h
        n = time.steps
        k2, self.mode_shape, self.fwd, self.inv = _mode_layout(space)
        self.c1 = self.h ** (-alpha1) / math.gamma(2.0 - alpha1)
        self.q2 = self.h ** (1.0 - alpha2) / math.gamma(2.0 - alpha2)
        self.cg = self.h ** (1.0 - src_gamma) / math.gamma(2.0 - src_gamma)
        self.lsig = k2**sigma
        self.ldel = k2**delta
        self.denom = self.c1 + 0.5 * self.q2 * self.ldel + 0.5 * self.h * self.lsig
        k = k2.shape[0]
        self.uhat = self.fwd(u0_vals).ravel().astype(np.complex128)
        self.vhat = self.fwd(v0_vals).ravel().astype(np.complex128)
        # at step j: dv holds v_k - v_{k-1} for k < j, weighted b_{j-k};
        # pv holds (v_k + v_{k+1})/2 for k < j - 1, weighted w_{j-k}
        self.dv = MemorySum("l1", alpha1, 1, k, np.complex128, n)
        self.pv = MemorySum("rect", 1.0 - alpha2, 2, k, np.complex128, n)
        # I^{1-src_gamma} of the |.|^p rows its producer feeds in, one per step
        self.source = MemorySum("rect", 1.0 - src_gamma, 1, u0_vals.size, np.float64, n)
        self.store_power = store_power
        self.u0 = u0_vals
        self.power = np.abs(u0_vals.ravel()) ** store_power  # of the newest state

    def source_hat(self) -> np.ndarray:
        raw = self.cg * self.source.total()
        return self.fwd(raw.reshape(self.space.shape())).ravel()

    def step(self, j: int, src_hat) -> np.ndarray:
        """Advance from node j - 1 to node j; ``src_hat`` is the source or None."""
        hist1 = self.dv.total()
        hist2 = self.pv.total()
        rhs = (
            self.c1 * self.vhat
            - self.c1 * hist1
            - self.ldel * self.q2 * (0.5 * self.vhat + hist2)
            - self.lsig * (self.uhat + 0.5 * self.h * self.vhat)
        )
        if src_hat is not None:
            rhs = rhs + src_hat
        vnew = rhs / self.denom
        self.uhat = self.uhat + 0.5 * self.h * (vnew + self.vhat)
        self.dv.append(vnew - self.vhat)
        self.pv.append(0.5 * (vnew + self.vhat))
        self.vhat = vnew
        u = self.inv(self.uhat.reshape(self.mode_shape))
        self.power = np.abs(u.ravel()) ** self.store_power
        return u


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


def _march(config: SimConfig, channels, feeds):
    """Advance ``channels`` together; one :class:`SimResult` per channel.

    Channel i's source sums the ``|.|^p`` rows of channel ``feeds[i]``.
    All channels stop at the first step where a sup-norm is non-finite
    (Diverged) or reaches the threshold (BlowUp) and report the same status
    and time: :func:`detect_blowup` of the first channel, in channel order,
    that is non-finite, or failing that the first that crossed.  With the
    nonlinearity off, a per-step sup-norm growth beyond 10x in any channel
    trips a step-size error: the implicit linear update is dissipative mode
    by mode, so such growth can only mean the time step is too coarse.
    """
    space, time = config.space, config.time
    n, h, threshold = time.steps, time.h, config.threshold
    nonlinear, every = config.nonlinearity, config.snapshot_every
    traces = [np.zeros(n + 1) for _ in channels]
    prev = [float(np.max(np.abs(ch.u0))) for ch in channels]
    for tr, sup in zip(traces, prev):
        tr[0] = sup
    snaps = [[(0.0, Field(space, ch.u0.copy()))] if every else None
             for ch in channels]
    # loop-invariant lookups: the source feeds and the bound step methods
    fed = [(ch.source.append, channels[k]) for ch, k in zip(channels, feeds)]
    source_hats = [ch.source_hat for ch in channels]
    steps = [ch.step for ch in channels]
    srcs = [None] * len(channels)
    for j in range(1, n + 1):
        if nonlinear:
            # every source reads its producer's newest row before any steps
            for append, producer in fed:
                append(producer.power)
            srcs = [source_hat() for source_hat in source_hats]
        states = [step(j, src) for step, src in zip(steps, srcs)]
        sups = [float(np.abs(u).max()) for u in states]
        stop = False
        for tr, sup in zip(traces, sups):
            tr[j] = sup
            if not sup < threshold:  # also true for nan
                stop = True
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

    The source is I^{1-gamma}|u|^p: one channel fed by itself.  Zero data
    is preserved exactly (every update is a linear combination of zeros).
    """
    pr = _checked_params(config, ParamSet, "run() needs a scalar ParamSet")
    space = config.space
    ch = _Channel(
        space, config.time, pr.alpha1, pr.alpha2, pr.sigma, pr.delta,
        pr.gamma, pr.p, _initial(space, config.u0), config.bump.render(space).values,
    )
    return _march(config, [ch], [0])[0]


def run_system(config: SimConfig):
    """Advance the cross-coupled pair; the components stop together.

    Sources are I^{1-gamma1}|v|^p for the first component and
    I^{1-gamma2}|u|^q for the second: two channels, each fed by the other.
    If either sup-norm crosses the threshold both results report BlowUp at
    the same interpolated time.
    """
    pr = _checked_params(config, SystemParamSet, "run_system() needs a SystemParamSet")
    space, time = config.space, config.time
    bump2 = config.bump2 if config.bump2 is not None else config.bump
    ch_u = _Channel(
        space, time, pr.alpha1, pr.alpha2, pr.sigma1, pr.delta1,
        pr.gamma1, pr.q, _initial(space, config.u0), config.bump.render(space).values,
    )
    ch_v = _Channel(
        space, time, pr.beta1, pr.beta2, pr.sigma2, pr.delta2,
        pr.gamma2, pr.p, _initial(space, config.v0_init), bump2.render(space).values,
    )
    return tuple(_march(config, [ch_u, ch_v], [1, 0]))


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
