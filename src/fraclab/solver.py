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
A sweep is one :func:`march` too: each of its runs is a stop group of
components, a scalar run one and a system run its pair, that stops at its
own blow-up or divergence with its trace cut there.  A stopped
group is stepped on until the last one stops (every product is batched per
component and every transform is per row, so it cannot reach the others),
and a sweep holds every run's history at once.

Each component carries three memory sums ``sum_k w[j - k] row_k``: the L1
Caputo sum over velocity increments, the damping integral over velocity
panel means, and the source integral over ``|u|^p``, held in mode space
(the sum is linear, so summing the modes of each row needs no transform
of its own), each row scaled on entry by its term's per-mode factor in the
update, which needs only their sum.  The Caputo and damping sums start with a zero
row, which adds exactly zero, so all 3C sums hold the same number of rows
and form one :class:`MemorySum` of C groups of three that fills, sums each
group and folds in lock step; a step writes its rows in place into the
next window slot and makes one inverse and one forward transform for all
components.  Every run steps as its bumps moved to the grid node nearest
their shared centre (:func:`nearest_node`).  Those data and the constant
``u0`` stay even about the node on each axis (every operator acts on a
mode through |k|, and ``|u|^p`` is pointwise), so a run steps on the
samples at offsets 0 ... M/2 from it alone, in the real cosine modes of
:func:`fraclap.cosine_layout`.  In 2-D they also stay symmetric under the
swap of the axes (the bumps are radial), so a run advances only the
triangle i <= j of the symmetric mode matrix, half the columns.  Summed
directly the sums would cost O(j) at step j and keep every row; a
:class:`MemorySum` keeps the newest ``WINDOW`` = 8 to ``WINDOW + BLOCK`` =
24 rows exact and folds older ones, ``BLOCK`` = 16 at a time, into a
reduced sum-of-exponentials (SOE) state.  The SOE fit of each sum's weights
(:func:`fracops.soe_weights`; Jiang, Zhang, Zhang & Zhang, CiCP 21, 2017)
has 70 to 133 terms, and only a group's total is read: the read
functionals of its three fits together span only r' = 40 to 68
dimensions (500 to 50 000 steps), and each group keeps one state in those
(Baffet & Hesthaven, SINUM 55, 2017).  Each fold precomputes every group's
reads for the next ``BLOCK`` steps, so a step sums only the rows appended
since; cost per step and memory are fixed whatever the step index or
horizon.  Each fit is checked when built and certified in the tests to
relative error 1e-9 against ``l1_weights``/``rect_weights``, for orders in
[0.05, 0.95] and up to 1e5 steps, and each sum's reads through the reduced
tail against its full fit's to 1e-12.  A run of at
most ``WINDOW + BLOCK - 1`` = 23 steps never folds, so it sums exactly as
the tests' reference, one direct sum per group in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, ParameterError
from .exponents import ParamSet, SystemParamSet
from .fraclap import Field, SpaceGrid, cosine_layout
# no run steps on the rfft layout; perfbench/layers.py still wraps this name
from .fraclap import rfft_layout as _mode_layout
from .fracops import TimeGrid, TimeSeries, l1_weights, rect_weights, soe_weights


def bump_profile(r):
    """Canonical mollifier: exp(1 - 1/(1-(r/2)^2)) for r < 2, else 0.

    Normalized to 1 at the origin; smooth, compactly supported in radius 2,
    and strictly decreasing in (0, 2).
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 2.0
    q = (r[inside] / 2.0) ** 2
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - q))
    return out


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
        if not self.width > 0.0:
            raise ParameterError(f"width must be positive, got {self.width}")
        if np.any(np.isnan(self.center)):
            raise ParameterError(f"center must be a number, got {self.center}")

    def render(self, grid: SpaceGrid) -> Field:
        if np.max(np.abs(np.atleast_1d(self.center))) + 2.0 * self.width > grid.half_length:
            raise ParameterError(f"bump support does not fit inside the box (centre "
                                 f"{self.center}, half_length {grid.half_length:g})")
        return Field(grid, self.amplitude * bump_profile(grid.radius(self.center) / self.width))


def default_space_grid(dim: int, bump: BumpSpec, points: int) -> SpaceGrid:
    """Box sized so wrap-around stays negligible: half-length 20x bump width."""
    return SpaceGrid(dim, 20.0 * bump.width, points)


@dataclass
class SimConfig:
    """Everything one run needs.

    ``bump`` is the initial velocity, and ``u0`` the initial datum, one
    constant for every component (default zero, as the blow-up results
    assume).  ``bump2`` is the second component's initial velocity (default
    ``bump``, whose centre it must share: a run steps about the node of
    :func:`nearest_node`), read by :func:`march` for every
    ``SystemParamSet`` entry (``run_system`` and each ``system-sweep`` row).
    Negative initial velocities are refused: the blow-up theorems assume
    nonnegative ones.
    ``snapshot_every`` > 0 stores every k-th state of every component for
    post-hoc analysis; 0 stores none.
    """

    params: object
    space: SpaceGrid
    time: TimeGrid
    bump: BumpSpec
    bump2: BumpSpec | None = None
    u0: float = 0.0
    threshold: float = 1e8
    nonlinearity: bool = True
    snapshot_every: int = 0

    def __post_init__(self):
        if not self.threshold > 0.0:
            raise ParameterError(f"threshold must be positive, got {self.threshold}")
        if self.snapshot_every < 0:
            raise ParameterError(
                f"snapshot_every must be nonnegative, got {self.snapshot_every}"
            )
        if min(b.amplitude for b in (self.bump, self.bump2) if b is not None) < 0.0:
            raise ParameterError("the blow-up theorems assume nonnegative initial velocities")
        if not abs(self.u0) < self.threshold:  # a nan too
            raise ParameterError(f"u0 must be finite and below the threshold, got {self.u0}")
        at = lambda b: self.space.coords(b.center)
        if self.bump2 is not None and at(self.bump2) != at(self.bump):
            raise ParameterError(f"bump2 must share bump's centre {self.bump.center}, "
                                 f"got {self.bump2.center}")


@dataclass
class SimResult:
    """Outcome of a run.

    ``status`` is Completed, BlowUp, or Diverged.  ``blowup_time`` holds
    the linearly interpolated threshold crossing for BlowUp and the first
    non-finite node for Diverged (both from :func:`detect_blowup`).  The
    sup-norm trace is cut at its stop group's stopping step, so its grid
    covers [0, t_stop].  ``snapshots`` lists (t, Field) pairs when the
    config's ``snapshot_every`` is positive, else None.
    """

    trace: TimeSeries
    status: str
    blowup_time: float | None = None
    snapshots: list | None = None
    steps_taken: int = 0


# Rows of every memory sum kept exact (WINDOW to WINDOW + BLOCK of them), and
# rows folded into the tail state at once.
WINDOW = 8
BLOCK = 16
# Singular values of the sampled read functionals kept, relative to the largest.
SOE_REDUCE_RTOL = 1e-14
# Geometric samples of the read functionals between fill 1 and one fold past
# the horizon.
REDUCE_SAMPLES = 128
# Columns a fold multiplies at once, which bounds its temporaries.
FOLD_SLICE = 1024


class HistoryBuffer:
    """Per-step rows, oldest first, ``count`` of them, in one preallocated array."""

    def __init__(self, width: int, capacity: int):
        self.rows = np.zeros((capacity, width))
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def drop_oldest(self, count: int):
        """Forget the ``count`` oldest rows; the others move to the front."""
        keep = self.count - count
        self.rows[:keep] = self.rows[count : self.count]
        self.count = keep


class MemorySum:
    """G sums, each of K sums ``sum_k w_gc[lag_gc + age_k] * row_k[c, g]``.

    ``groups`` lists each sum's K ``(kind, order, lag)`` families: ``w_gc``
    are the ``kind`` (``"l1"``/``"rect"``) weights of ``order`` up to index
    ``steps + lag``, and ``age`` is 0 for the newest row.  :meth:`slot`
    hands out the next ``(K, G, width)`` row of real columns, as both mode
    layouts give them, to write in place, so all fill and fold in lock step.
    The newest ``WINDOW`` to ``WINDOW + BLOCK`` rows sit in one window.  A full
    window folds its oldest ``BLOCK`` rows, all K kinds at once, into one
    reduced SOE state per group, ``S = sum_k decay^(folds since k) fold_w
    row_k`` of r' terms (:func:`reduced_soe`), built at the first fold.
    The fold then reads, for each fill f < ``BLOCK`` until the next fold,
    all a group has seen: its tail at f times its state plus the ``WINDOW``
    rows it kept times their exact weights at f.  A step adds that read row
    to one batched product, by (age, kind), over the rows written since,
    through views made for each fill; before the first fold it covers the
    whole window.  Term counts are padded to the largest with zero rows,
    which stay 0.
    """

    def __init__(self, groups, width: int, steps: int):
        self._cols = width
        self._shape = g, k = len(groups), len(groups[0])
        # reversed and age-major: the weights of the n newest rows are [..., -n * K:]
        self._wrev = np.array([[
            (l1_weights if kind == "l1" else rect_weights)(order, lag + WINDOW + BLOCK)
            [lag:][::-1] for kind, order, lag in group] for group in groups
        ]).transpose(0, 2, 1).reshape(g, 1, -1)
        self._window = HistoryBuffer(k * g * self._cols, capacity=WINDOW + BLOCK)
        # the window as (G, age * K + kind, cols): a view
        self._rows = self._window.rows.reshape(WINDOW + BLOCK, k, g, self._cols).transpose(
            2, 0, 1, 3).reshape(g, -1, self._cols)
        # each row's K parts, (G, 1, cols) each: a tuple unpacks ~20x faster than an array
        self._slots = [tuple(row.reshape(k, g, 1, self._cols)) for row in self._window.rows]
        self._groups, self._steps = [tuple(group) for group in groups], steps
        self._state = None
        self._views = self._total_views(0)

    def slot(self) -> tuple:
        """The next row's K ``(G, 1, width)`` parts, after a fold if the window
        is full.  A reused slot holds a dropped row: write every part ever
        written, at every step."""
        window = self._window
        if window.count == WINDOW + BLOCK:
            self._fold()
        window.count += 1
        return self._slots[window.count - 1]

    def _total_views(self, kept: int) -> list:
        # total()'s operands at each count n of rows: the weights and rows past
        # the ``kept`` oldest, which the read row at fill n - WINDOW - 1 holds
        k = self._shape[1]
        return [(self._wrev[:, :, (WINDOW + BLOCK - n + kept) * k :],
                 self._rows[:, kept * k : n * k],
                 self._reads[:, n - WINDOW - 1, None] if kept else None)
                for n in range(WINDOW + BLOCK + 1)]

    def _build_tail(self):
        g, k = self._shape
        # each distinct group is reduced once
        reduced = {group: reduced_soe(group, self._steps)
                   for group in dict.fromkeys(self._groups)}
        self._decay, self._fold_w, self._tail = map(
            _zero_padded, zip(*map(reduced.get, self._groups)))
        # kept row i at fill f has age WINDOW + f - i
        self._keep_w = self._wrev[:, 0, k * np.arange(BLOCK)[::-1, None] + np.arange(WINDOW * k)]
        self._state = np.zeros((g, self._tail.shape[2], self._cols))
        self._reads = np.empty((g, BLOCK, self._cols))
        self._views = self._total_views(WINDOW)

    def _fold(self):
        if self._state is None:
            self._build_tail()
        k = self._shape[1]
        self._state *= self._decay[:, :, None]
        # the oldest BLOCK rows, every kind, FOLD_SLICE columns at a time
        for c in range(0, self._cols, FOLD_SLICE):
            cut = slice(c, c + FOLD_SLICE)
            self._state[:, :, cut] += self._fold_w @ self._rows[:, : BLOCK * k, cut]
        np.matmul(self._tail, self._state, out=self._reads)
        self._reads += self._keep_w @ self._rows[:, BLOCK * k :]
        self._window.drop_oldest(BLOCK)

    @property
    def nbytes(self) -> int:
        """Bytes held: the window's rows, the SOE states and the read rows."""
        tail = () if self._state is None else (self._state, self._reads)
        return sum(a.nbytes for a in (self._window.rows, *tail))

    def total(self) -> np.ndarray:
        """The G sums over every row appended so far, as ``(G, 1, width)``."""
        weights, rows, read = self._views[self._window.count]
        out = weights @ rows
        if read is not None:
            out += read
        return out


def reduced_soe(group, steps: int):
    """The summed weights of ``group``'s K ``(kind, order, lag)`` families
    as one reduced sum of exponentials: ``(decay, fold_w, tail)``.

    Family k's :func:`fracops.soe_weights` fit ``x, c`` of its weights from
    ``first = lag + WINDOW + 1`` to ``steps + lag`` is written symmetrically,
    ``w(m + f) = sum sqrt(c) e^{-x m} sqrt(c) e^{-x f}``: a row folded at
    offset d adds ``sqrt(c) e^{-x (first + d)}`` times itself to family k's
    block of the full state, a fold multiplies the state by
    ``e^{-BLOCK x}``, and a read at fill f applies the functional
    ``sqrt(c) e^{-x f}`` of every family at once, which sums the K kinds.
    Sampled at the ``2 BLOCK`` fills a fold and its first decay read and at
    ``REDUCE_SAMPLES`` geometric ones up to ``steps + BLOCK``, each sample
    scaled so its largest family block has unit norm, the read functionals
    of all K families span few dimensions: the right singular vectors V
    above ``SOE_REDUCE_RTOL`` (Baffet & Hesthaven, SINUM 55, 2017).  The
    one-fold decay ``V^T diag(e^{-BLOCK x}) V`` has the squared singular
    values of ``e^{-BLOCK x / 2} V`` as eigenvalues, all in (0, 1), and in
    its eigenbasis Q the r' terms decay one by one again.  ``decay`` holds
    those values, ``fold_w`` (r' x ``BLOCK`` K) the folded rows' ``(VQ)^T
    sqrt(c) e^{-x (first + d)}`` in window order (oldest first, kinds
    interleaved), and ``tail`` (``BLOCK`` x r') the reads ``sqrt(c) e^{-x
    f} VQ``.
    """
    fits = [soe_weights(kind, order, lag + WINDOW + 1, steps + lag)
            for kind, order, lag in group]
    v = _read_space(fits, steps)
    sv, qt = _right_svd(np.vstack([np.exp(-0.5 * BLOCK * x)[:, None] * part
                                   for (x, _), part in zip(fits, v)]))
    # the newest folded row has offset 0, the oldest BLOCK - 1
    ages = np.arange(BLOCK - 1.0, -1.0, -1.0)
    fold_w = np.empty((sv.size, BLOCK, len(group)))
    tail = np.zeros((BLOCK, sv.size))
    for i, ((_, _, lag), (x, c), part) in enumerate(zip(group, fits, v)):
        basis = (part @ qt.T) * np.sqrt(c)[:, None]
        fold_w[:, :, i] = (np.exp(-np.outer(lag + WINDOW + 1 + ages, x)) @ basis).T
        tail += np.exp(-np.outer(np.arange(BLOCK), x)) @ basis
    return sv**2, fold_w.reshape(sv.size, -1), tail


def _read_space(fits, steps: int):
    """V of :func:`reduced_soe`, one family block of rows at a time.

    Each family's samples are reduced on their own first, to their row
    space and their coordinates in it, and then the stacked coordinates:
    the joint sample matrix, and the SVD workspace it would need at the
    first fold, are never formed.
    """
    fills = np.array(sorted({*range(2 * BLOCK), *np.round(
        np.geomspace(1, steps + BLOCK, REDUCE_SAMPLES)).tolist()}))
    spans, coords = zip(*(_sampled_reads(fills, x, c) for x, c in fits))
    # each sample scaled so that its largest family block has unit norm
    scale = np.max([np.linalg.norm(part, axis=1) for part in coords], axis=0)[:, None]
    for part in coords:
        part /= scale
    w = _row_space(np.hstack(coords))
    return [span @ part for span, part in zip(
        spans, np.split(w, np.cumsum([span.shape[1] for span in spans])[:-1]))]


def _sampled_reads(fills, x, c):
    """The functionals ``sqrt(c) e^{-x f}`` at ``fills``, one a row: their
    row space and their coordinates in it."""
    # in place: the first fold's transient sets a 1-D run's peak RSS
    g = np.outer(fills, -x)
    np.exp(g, out=g)
    g *= np.sqrt(c)
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    g /= norm
    span = _row_space(g)
    coords = g @ span
    coords *= norm
    return span, coords


def _row_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning ``a``'s rows to ``SOE_REDUCE_RTOL``."""
    sv, vt = _right_svd(a)
    return vt[sv > SOE_REDUCE_RTOL * sv[0]].T


def _right_svd(a: np.ndarray):
    """The singular values and right singular vectors of ``a``, from its R
    factor when it has more rows than columns."""
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    return sv, vt


def _zero_padded(arrays) -> np.ndarray:
    """Stack arrays, padding each with zeros to the largest shape."""
    out = np.zeros((len(arrays),) + tuple(map(max, zip(*(a.shape for a in arrays)))))
    for dst, a in zip(out, arrays):
        dst[tuple(map(slice, a.shape))] = a
    return out


class _Channel:
    """The C components of the first-order system, advanced together.

    ``comps[i]`` is ``(ParamSet, v0)``: component i is an equation of the
    scalar form from the config's ``u0``, and its source, on with the
    config's ``nonlinearity``, is I^{1-gamma}|u_{feeds[i]}|^p with its own
    gamma and p.  At step j the history holds, in one group per component,
    a zero row and v_k - v_{k-1} for 0 < k < j (weights b), a zero row and
    v_{k-1} + v_k (weights w), and the modes of |u_{feeds[i]}|^p at every
    k < j (0 if off), each scaled by its factor in v_j = a v_{j-1} + b
    u_{j-1} + the group's total, and written in place into the history's
    next slot.  The modes, real columns with one k² each, are those of
    :func:`fraclap.cosine_layout` about the node of :func:`nearest_node`
    (in 2-D a symmetric mode matrix's triangle), the states are its
    samples, and ``unfold`` makes a component's ``u[0]`` a full field.
    Each component is one row, so a step reshapes nothing: the modes,
    ``a``, ``b``, the ``scale`` rows and the history's totals and slot
    parts are ``(C, 1, cols)``, its product's shape, and the samples ``(C,
    1, ...)``, the 1-D cosine products'.  A step is that product, ten
    elementwise updates, one inverse, ``|u|^p`` (one power if the powers
    agree), one forward transform, its row's scale and one reduction for
    the sup-norms.
    """

    def __init__(self, config: SimConfig, comps, feeds):
        h = config.time.h
        node, _, _ = nearest_node(config.space, config.bump)
        k2, self.fwd, self.inv, gather, self.unfold = cosine_layout(config.space, node)
        blocks, v0s = zip(*comps)
        factors, families = [], []
        for pr in blocks:
            c1 = h ** (-pr.alpha1) / math.gamma(2.0 - pr.alpha1)
            qdel = k2**pr.delta * (h ** (1.0 - pr.alpha2) / math.gamma(2.0 - pr.alpha2))
            lsig = k2**pr.sigma
            denom = c1 + 0.5 * qdel + 0.5 * h * lsig
            # the Caputo, damping and source rows' factors, then a and b
            factors.append([t / denom for t in (
                -c1, -0.5 * qdel, h ** (1.0 - pr.gamma) / math.gamma(2.0 - pr.gamma),
                c1 - 0.5 * qdel - 0.5 * h * lsig, -lsig)])
            families.append((("l1", pr.alpha1, 1), ("rect", 1.0 - pr.alpha2, 2),
                             ("rect", 1.0 - pr.gamma, 1)))
        *self.scale, self.a, self.b = np.array(list(zip(*factors)))[:, :, None]
        self.half_h = 0.5 * h
        # |u|^p of each component's feed; a Python-float exponent keeps
        # numpy's fast path for squares
        powers = [pr.p for pr in blocks]
        if len(set(powers)) > 1:
            self.power = lambda mag: np.array([mag[k] ** p for k, p in zip(feeds, powers)])
        elif feeds == list(range(len(feeds))):
            self.power = lambda mag, p=powers[0]: mag ** p
        else:
            self.power = lambda mag, p=powers[0], feeds=np.array(feeds): mag[feeds] ** p
        v0 = gather(np.array(v0s))[:, None]
        u0 = np.full_like(v0, config.u0)
        self.space_axes = tuple(range(1, u0.ndim))
        self.uhat, self.vhat = self.fwd(u0), self.fwd(v0)
        # rows are kind-major: every Caputo row, then every damping row, then the sources
        self.history = MemorySum(families, k2.size, config.time.steps)
        # the window starts zeroed, so the Caputo and damping parts of this
        # row, and the source parts of a run without the source, stay 0
        row = self.history.slot()
        if config.nonlinearity:
            np.multiply(self.fwd(self.power(np.abs(u0))), self.scale[2], out=row[2])

    def step(self, j: int, source: bool):
        """Advance from node j - 1 to node j, with the source if ``source``,
        which must be the config's ``nonlinearity`` at every step; returns
        the new states and their sup-norms."""
        vhat = self.vhat
        vnew = self.history.total()
        vnew += self.a * vhat
        vnew += self.b * self.uhat
        caputo_row, damping_row, source_row = self.history.slot()
        np.multiply(vnew - vhat, self.scale[0], out=caputo_row)
        vhat += vnew  # v_{j-1} + v_j
        np.multiply(vhat, self.scale[1], out=damping_row)
        self.uhat += self.half_h * vhat  # the trapezoidal rule on v
        self.vhat = vnew
        u = self.inv(self.uhat)
        mag = np.abs(u)
        if source:
            np.multiply(self.fwd(self.power(mag)), self.scale[2], out=source_row)
        return u, np.maximum.reduce(mag, axis=self.space_axes).tolist()


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


def nearest_node(grid: SpaceGrid, bump: BumpSpec):
    """``(node, moved, offset)``: the indices of the grid node nearest
    ``bump``'s centre, ``bump`` moved there, and the centre minus the node,
    one per axis.  On the periodic box moving data only translates the
    solution, so a run is its nearest-node run, read on the grid moved by
    ``offset``: the same traces, blow-up time and fields."""
    axis, coords = grid.axis(), grid.coords(bump.center)
    node = tuple(int(np.argmin(np.abs(axis - c))) for c in coords)
    at = tuple(float(axis[i]) for i in node)
    return node, replace(bump, center=at), tuple(c - a for c, a in zip(coords, at))


def _group(config: SimConfig, pr):
    """The components and feeds of ``config``'s run with the parameters
    ``pr``: a ``ParamSet`` is one component fed by itself, a
    ``SystemParamSet`` its two blocks fed crosswise; the bumps sit on the
    grid node nearest their centre."""
    if pr.dim != config.space.dim:
        raise ParameterError("params.dim and space.dim disagree")
    space = config.space
    _, bump, _ = nearest_node(space, config.bump)
    if isinstance(pr, ParamSet):
        return [(pr, bump.render(space).values)], [0]
    bump2 = bump if config.bump2 is None else replace(config.bump2, center=bump.center)
    return [(pr.first, bump.render(space).values),
            (pr.second, bump2.render(space).values)], [1, 0]


@np.errstate(over="ignore", invalid="ignore")
def march(config: SimConfig, params) -> list:
    """``config``'s run once for each entry of ``params`` (a ``ParamSet`` or
    ``SystemParamSet`` each), advanced as the stop groups of one ``_Channel``.

    A group stops at its own first step where a sup-norm is non-finite
    (Diverged) or reaches the threshold (BlowUp); its components report the
    same status and time, :func:`detect_blowup` of the first component, in
    order, that is non-finite, or failing that the first that crossed.
    With the nonlinearity off, a per-step sup-norm growth beyond 10x in a
    component stops its group with a step-size error: the implicit linear
    update is dissipative mode by mode, so such growth can only mean the
    time step is too coarse.  A stopped group is stepped on until the last
    one stops; overflow raises no numpy warning.  Only a snapshot unfolds a
    state to a full field.  Each entry of the result is that run's
    :class:`SimResult` list, one per component, or the
    :class:`NumericsError` that stopped it.
    """
    comps, feeds, spans = [], [], []
    for pr in params:
        group, own = _group(config, pr)
        spans.append(slice(len(comps), len(comps) + len(group)))
        feeds += [len(comps) + f for f in own]
        comps += group
    stepper = _Channel(config, comps, feeds)
    space, time = config.space, config.time
    n, h, threshold = time.steps, time.h, config.threshold
    nonlinear, every = config.nonlinearity, config.snapshot_every
    u0 = np.full(space.shape(), float(config.u0))
    prev = [abs(float(config.u0))] * len(comps)
    traces = np.zeros((len(prev), n + 1))  # pages past the last stop step stay untouched
    traces[:, 0] = prev
    snaps = [[(0.0, Field(space, u0.copy()))] if every else None for _ in comps]
    out = [None] * len(spans)
    live = list(enumerate(spans))
    below = float(threshold).__gt__  # False for a nan
    for j in range(1, n + 1):
        states, sups = stepper.step(j, nonlinear)
        traces[:, j] = sups
        # no group can stop, snapshot or grow too fast
        if nonlinear and all(map(below, sups)) and not (every and j % every == 0):
            continue
        for g, span in live:
            own = sups[span]
            stop = not all(map(below, own))
            # the blow-up state is kept even off the cadence; a non-finite one is not
            if every and (stop or j % every == 0) and all(map(math.isfinite, own)):
                for snap, u in zip(snaps[span], states[span]):
                    snap.append((h * j, Field(space, stepper.unfold(u[0]))))
            grown = [] if nonlinear else [
                sup / before for sup, before in zip(own, prev[span])
                if before > 0.0 and sup > 10.0 * before]
            if stop:
                out[g] = _stopped(time, threshold, traces[span], snaps[span], j)
            elif grown:
                out[g] = NumericsError(f"sup-norm grew {grown[0]:.2f}x in one linear "
                                       f"step at t={h * j:.3g}; reduce the time step")
        live = [(g, span) for g, span in live if out[g] is None]
        if not live:
            break
        prev = sups
    for g, span in live:
        out[g] = [SimResult(TimeSeries(time, tr), "Completed", None, sn, n)
                  for tr, sn in zip(traces[span], snaps[span])]
    return out


def _stopped(time: TimeGrid, threshold: float, traces, snaps, j: int):
    """The results of a group whose sup-norms first went non-finite or
    reached the threshold at step j (the columns past j still zero), or
    the error if j < 2."""
    sups = traces[:, j].tolist()
    if j < 2:
        # a finite state can also have stopped on a threshold below it
        low = (f", or the threshold {threshold:g} is below the sup-norm "
               f"{max(sups):.3g} of step 1" if all(map(math.isfinite, sups)) else "")
        return NumericsError("run ended before step 2; the step size is far too "
                             f"coarse for these data (reduce h or the amplitude){low}")
    diverged = not all(map(math.isfinite, sups))
    hit = [not math.isfinite(sup) if diverged else sup >= threshold for sup in sups]
    first = TimeSeries(time, traces[hit.index(True)], diverged)
    t_star = detect_blowup(first, threshold)
    grid = time if j == time.steps else TimeGrid(time.h * j, j)
    status = "Diverged" if diverged else "BlowUp"
    return [
        SimResult(TimeSeries(grid, tr[: j + 1].copy(), diverged), status, t_star, sn, j)
        for tr, sn in zip(traces, snaps)
    ]


def _one_run(config: SimConfig, kind, message) -> list:
    if not isinstance(config.params, kind):
        raise ParameterError(message)
    (results,) = march(config, [config.params])
    if isinstance(results, NumericsError):
        raise results
    return results


def run(config: SimConfig) -> SimResult:
    """Advance the scalar problem; stop at blow-up, divergence, or horizon.

    The source is I^{1-gamma}|u|^p: one component fed by itself.  Zero data
    is preserved exactly (every update is a linear combination of zeros).
    """
    return _one_run(config, ParamSet, "run() needs a scalar ParamSet")[0]


def run_system(config: SimConfig):
    """Advance the cross-coupled pair as one stop group.

    The system's blocks ``first`` and ``second`` are two components of the
    scalar form, each fed by the other: I^{1-gamma1}|v|^p sources u and
    I^{1-gamma2}|u|^q sources v.  If either sup-norm crosses the threshold
    both results report BlowUp at the same interpolated time, with both
    traces cut at that step.
    """
    return tuple(_one_run(config, SystemParamSet,
                          "run_system() needs a SystemParamSet"))


# Amplitudes :func:`tune_amplitude` tries before it gives up.
MAX_DOUBLINGS = 12


def tune_amplitude(config: SimConfig, start: float):
    """Double the velocity amplitude until the run reports blow-up.

    Returns (amplitude, result) for the first of ``MAX_DOUBLINGS``
    amplitudes that blows up within the horizon.  This is an experiment
    policy, not a statement about the threshold: with an admissible power
    every amplitude blows up eventually, but possibly beyond any affordable
    horizon.
    """
    if start <= 0.0:
        raise ParameterError(f"starting amplitude must be positive, got {start}")
    amp = start
    for _ in range(MAX_DOUBLINGS):
        result = run(replace(config, bump=replace(config.bump, amplitude=amp)))
        if result.status == "BlowUp":
            return amp, result
        amp *= 2.0
    raise NumericsError(
        f"no blow-up detected after {MAX_DOUBLINGS} doublings from {start}"
    )
