"""The solver's memory sums: exact window plus reduced sum-of-exponentials tail.

``solver.MemorySum`` holds groups of sums, each group's members added, and
replaces the direct full-history sums ``_kernels.hist_dot_*``; those stay
as the reference here.  Groups of one are single sums.  The fit of the
weights is certified against ``l1_weights``/``rect_weights``, its
reduction against the full fit, every sum of a stack against its own
direct sum at every step, every group against the sum of its members,
runs that never fold must match the direct sums bit for bit, and whole
runs must keep the blow-up times the direct sums gave.
"""

import argparse
import os
from dataclasses import replace

import numpy as np
import pytest

from fraclab import _kernels, fracops, harness, solver
from fraclab.errors import NumericsError, ParameterError
from fraclab.exponents import ParamSet, SystemParamSet
from fraclab.fraclap import Field, SpaceGrid
from fraclab.fracops import TimeGrid, l1_weights, rect_weights, soe_weights
from fraclab.solver import (BLOCK, WINDOW, BumpSpec, HistoryBuffer, MemorySum, SimConfig,
                            reduced_soe)

WEIGHTS = {"l1": l1_weights, "rect": rect_weights}
# the solver's own families at the default parameters, then the extremes
FAMILIES = [("l1", 0.5, 1), ("rect", 0.7, 2), ("rect", 0.75, 1),
            ("l1", 0.05, 1), ("l1", 0.95, 1), ("rect", 0.05, 2), ("rect", 0.95, 1)]
# every family the fits are certified for
ALL_FAMILIES = [(kind, order, lag) for kind in ("l1", "rect")
                for order in (0.05, 0.25, 0.5, 0.75, 0.95) for lag in (1, 2)]


def ungrouped(families):
    # one group per family: MemorySum then keeps each sum on its own
    return [[family] for family in families]


def append(hist, row):
    # the solver writes each row in place into the sum's next slot, one
    # (G, 1, width) part per kind, complex rows as their float pairs
    parts = hist.slot()
    for part, value in zip(parts, np.reshape(as_floats(row), (len(parts), *parts[0].shape))):
        part[...] = value


def soe_eval(x, c, m):
    out = np.zeros(m.shape)
    for xi, ci in zip(x, c):
        out += ci * np.exp(-xi * m)
    return out


@pytest.mark.parametrize("kind", ["l1", "rect"])
@pytest.mark.parametrize("steps", [200, 3000, 100_000])
def test_soe_weights_certified(kind, steps):
    # every index a tail row can take, for orders across [0.05, 0.95]
    for order in (0.05, 0.25, 0.5, 0.75, 0.95):
        for lag in (1, 2):
            first, last = lag + WINDOW + 1, steps + lag
            x, c = soe_weights(kind, order, first, last)
            m = np.arange(first, last + 1, dtype=float)
            exact = WEIGHTS[kind](order, last + 1)[first:]
            err = np.max(np.abs(soe_eval(x, c, m) / exact - 1.0))
            assert err <= 1e-9, f"{kind} order {order} lag {lag}: rel {err:.2e}"


def test_soe_weights_give_up(monkeypatch):
    # a fit that misses the tolerance is refused, not returned
    monkeypatch.setattr(fracops, "SOE_RTOL", 1e-18)
    with pytest.raises(NumericsError, match="sum-of-exponentials"):
        soe_weights("l1", 0.5, 34, 3001)


def test_soe_weights_at_the_ends_of_the_order_range():
    # 1e-15 from either end still fits; an order whose complement rounds to
    # 0 or 1 is refused, and a fit the quadrature cannot build is a numerics
    # error, both before any numpy warning
    for kind in ("l1", "rect"):
        for order in (1e-15, 1.0 - 1e-15):
            soe_weights(kind, order, WINDOW + 2, 50_001)
    for order in (1e-17, 1.0 - 1e-17):
        with pytest.raises(ParameterError, match=rf"order must lie in \(0,1\), got {order}"):
            soe_weights("rect", order, 10, 101)
    for order in (1e-300, 5e-324):
        with pytest.raises(NumericsError, match=f"l1 weights of order {order} reached"):
            soe_weights("l1", order, 10, 101)


def direct_sum(kind, order, lag, rows, n, dot):
    # sum_k w[lag + n - 1 - k] rows[k] over the first n rows, the way the
    # stepper summed its full histories
    wrev = WEIGHTS[kind](order, n + lag)[::-1].copy()
    return dot(wrev, 0, rows, 0, n)


def random_rows(rng, count, width, pairs=False):
    # nonnegative float rows, like |u|^p; with ``pairs``, complex rows, like
    # the rfft modes that the rfft layout hands out as float pairs
    if pairs:
        return rng.standard_normal((count, width)) + 1j * rng.standard_normal((count, width))
    return rng.random((count, width)) ** 2


def as_floats(rows):
    # the float columns of these rows: a complex row's (real, imaginary) pairs
    return np.ascontiguousarray(rows).view(np.float64)


def totals(hist, pairs=False):
    # the sums' columns, one row per group (total() keeps its product's
    # (G, 1, width) shape), read back as complex numbers when they hold pairs
    out = hist.total()[:, 0]
    return out.view(np.complex128) if pairs else out


@pytest.mark.parametrize("kind,order,lag", FAMILIES)
@pytest.mark.parametrize("pairs", [False, True])
def test_memory_sum_matches_direct_sum(kind, order, lag, pairs, rng):
    # real columns, and complex rows as their float pairs against the
    # complex direct sum
    steps, width = 3000, 7
    rows = random_rows(rng, steps + 1, width, pairs)
    dot = _kernels.hist_dot_complex if pairs else _kernels.hist_dot_real
    hist = MemorySum([[(kind, order, lag)]], as_floats(rows).shape[1], steps)
    assert not np.any(hist.total())
    for n in range(1, steps + 2):  # covers the folds at W+B, W+B+1, ... and k*B
        append(hist, rows[n - 1][None])
        want = direct_sum(kind, order, lag, rows, n, dot)
        err = np.max(np.abs(totals(hist, pairs)[0] - want)) / np.max(np.abs(want))
        assert err <= 1e-9, f"after {n} rows: rel {err:.2e}"


def test_stacked_families_match_their_direct_sums(rng):
    # the seven families have different reduced term counts, so the stack
    # pads its states; every member must still match its own direct sum, and
    # every padded state row must stay exactly zero
    steps, width = 3000, 5
    terms = [reduced_soe(group, steps)[0].size for group in ungrouped(FAMILIES)]
    rows = random_rows(rng, (steps + 1) * len(FAMILIES), width)
    rows = rows.reshape(steps + 1, len(FAMILIES), width)
    hist = MemorySum(ungrouped(FAMILIES), width, steps)
    for n in range(1, steps + 2):
        append(hist, rows[n - 1])
        got = totals(hist)
        for s, (kind, order, lag) in enumerate(FAMILIES):
            want = direct_sum(kind, order, lag, rows[:, s], n, _kernels.hist_dot_real)
            err = np.max(np.abs(got[s] - want)) / np.max(np.abs(want))
            assert err <= 1e-9, f"{kind} {order} {lag} after {n} rows: rel {err:.2e}"
        if n > WINDOW + BLOCK:
            for s, t in enumerate(terms):
                assert np.all(hist._state[s, t:] == 0.0), f"state {s} after {n} rows"
    assert len(set(terms)) > 1 and hist._state.shape[1] == max(terms)


# the Caputo, damping and source families of the two components of
# test_system_matches_direct_history: six distinct orders
SYSTEM_GROUPS = [[("l1", 0.5, 1), ("rect", 0.7, 2), ("rect", 0.75, 1)],
                 [("l1", 0.6, 1), ("rect", 0.6, 2), ("rect", 0.8, 1)]]
# the solver's default group and one of extreme orders: unlike the two
# SYSTEM_GROUPS, their reduced term counts differ (51 and 49 at 3000 steps)
GROUPS = [FAMILIES[:3], FAMILIES[4:]]


def test_grouped_sums_match_their_members(rng):
    # each group's total is its members' totals added, at every fill over
    # several folds, and every padded row of the stacked states stays
    # exactly zero
    steps, width, count = 3000, 5, WINDOW + 6 * BLOCK
    rows = random_rows(rng, count * 6, width).reshape(count, 3, 2, width)
    grouped = MemorySum(GROUPS, width, steps)
    # kind-major, like the rows
    members = MemorySum(ungrouped([f for same in zip(*GROUPS) for f in same]), width, steps)
    terms = [reduced_soe(group, steps)[0].size for group in GROUPS]
    for n in range(1, count + 1):
        append(grouped, rows[n - 1])
        append(members, rows[n - 1])
        want = totals(members).reshape(3, 2, width).sum(axis=0)
        err = np.max(np.abs(totals(grouped) - want)) / np.max(np.abs(want))
        assert err <= 1e-13, f"after {n} rows: rel {err:.2e}"
        if n > WINDOW + BLOCK:
            assert grouped._state.shape == (2, max(terms), width)
            for g, t in enumerate(terms):
                assert np.all(grouped._state[g, t:] == 0.0), f"group {g} after {n} rows"
    assert len(set(terms)) > 1


@pytest.mark.parametrize("pairs", [False, True])
def test_memory_sum_without_fold_is_bit_identical(pairs, rng):
    width, families = 33, FAMILIES[:3]
    rows = random_rows(rng, (WINDOW + BLOCK) * len(families), width, pairs)
    rows = rows.reshape(WINDOW + BLOCK, len(families), width)
    hist = MemorySum(ungrouped(families), as_floats(rows).shape[-1], 10_000)
    for n in range(1, WINDOW + BLOCK + 1):
        append(hist, rows[n - 1])
        got = totals(hist)
        for s, (kind, order, lag) in enumerate(families):
            want = direct_sum(kind, order, lag, as_floats(rows[:, s]), n,
                              _kernels.hist_dot_real)
            assert np.array_equal(got[s], want), f"{kind} {order}: row {n}"


def test_memory_sum_memory_is_flat(rng):
    width, steps = 16, 100_000
    # the solver's three sums of one component, twice over: two groups
    groups = [FAMILIES[:3]] * 2
    hist = MemorySum(groups, width, steps)
    sizes = set()
    for n in range(1, 2001):
        append(hist, random_rows(rng, 6, width))
        if n > WINDOW + BLOCK:
            sizes.add(hist.nbytes)
    assert len(sizes) == 1
    terms = reduced_soe(FAMILIES[:3], steps)[0].size
    # one float per column for each window row of the six sums, and for
    # each state term and each fill's read row of the two groups
    assert sizes.pop() == width * 8 * (6 * (WINDOW + BLOCK) + 2 * (terms + BLOCK))


def test_sim_2d_history_fits_in_4_6_mb():
    # the three summed sums of a 64 x 64 scalar run in the rfft layout (64 x
    # 33 modes, each a pair of real columns) over 500 steps, after the first
    # fold has built the reduced state
    families, width = FAMILIES[:3], 64 * 33 * 2
    hist = MemorySum([families], width, 500)
    zero = np.zeros((len(families), 1, width))
    for _ in range(WINDOW + BLOCK + 1):
        append(hist, zero)
    assert hist.nbytes <= 4.6e6, f"{hist.nbytes / 1e6:.2f} MB"



def test_sim_2d_cosine_history_fits_in_1_2_mb():
    # the same sums in the cosine layout that a 64 x 64 run with its bump on
    # a grid node takes: 33 x 33 real columns per row
    families, width = FAMILIES[:3], 33 * 33
    hist = MemorySum([families], width, 500)
    zero = np.zeros((len(families), 1, width))
    for _ in range(WINDOW + BLOCK + 1):
        append(hist, zero)
    assert hist.nbytes <= 1.2e6, f"{hist.nbytes / 1e6:.2f} MB"


def test_sim_2d_triangle_history_fits_in_0_6_mb(monkeypatch):
    # the history of the command's 2-D run (64 x 64, 500 steps, its bump on
    # the node at 0), as its channel builds it, after the first fold: the
    # rows hold the 33 * 34 / 2 modes i <= j of the mode matrix, symmetric
    # under the swap of the axes, not the 33 x 33 square
    for name in list(os.environ):
        if name.startswith("FRACLAB_"):
            monkeypatch.delenv(name)
    for key, value in (("PARAMS_DIM", "2"), ("SPACE_POINTS", "64"),
                       ("TIME_HORIZON", "0.5"), ("TIME_STEPS", "500")):
        monkeypatch.setenv(f"FRACLAB_{key}", value)
    cfg = harness.run_config(harness.build_spec(argparse.Namespace(
        mode="simulate", config=None, out=None, tol=None, seed=None)))
    channel = solver._Channel(cfg, *solver._group(cfg, cfg.params))
    for j in range(1, WINDOW + BLOCK + 2):
        channel.step(j, True)
    assert channel.history.total().shape == (1, 1, 33 * 34 // 2)
    assert channel.history.nbytes <= 0.6e6, f"{channel.history.nbytes / 1e6:.3f} MB"


def test_sim_1d_cosine_history_fits_in_0_17_mb():
    # the three summed sums of the default 1-D run (M = 256, 50 000 steps,
    # its bump on a grid node) in the cosine layout: 129 real columns per
    # row, half the bytes of the rfft layout's 129 modes as real pairs
    families, cosine = FAMILIES[:3], 256 // 2 + 1
    nbytes = {}
    for width in (cosine, 2 * cosine):
        hist = MemorySum([families], width, 50_000)
        zero = np.zeros((len(families), 1, width))
        for _ in range(WINDOW + BLOCK + 1):
            append(hist, zero)
        nbytes[width] = hist.nbytes
    assert nbytes[cosine] <= 0.17e6, f"{nbytes[cosine] / 1e6:.3f} MB"
    assert 2 * nbytes[cosine] == nbytes[2 * cosine]


@pytest.mark.parametrize("pairs", [False, True])
def test_kept_window_rows_are_read_exactly(pairs, rng):
    # the first fold folds BLOCK zero rows, so its state is exactly zero, and
    # keeps the WINDOW random rows after them; until the next fold, total()
    # reads those through the fold's precomputed rows and the rows appended
    # since directly, and both must carry their exact weights
    width, families, steps = 9, FAMILIES, 3000
    rows = random_rows(rng, (2 * BLOCK + WINDOW) * len(families), width, pairs)
    rows = rows.reshape(2 * BLOCK + WINDOW, len(families), width)
    rows[:BLOCK] = 0.0
    hist = MemorySum(ungrouped(families), as_floats(rows).shape[-1], steps)
    dot = _kernels.hist_dot_complex if pairs else _kernels.hist_dot_real
    for n in range(1, 2 * BLOCK + WINDOW + 1):
        append(hist, rows[n - 1])
        if n <= WINDOW + BLOCK:
            continue
        got = totals(hist, pairs)
        for s, (kind, order, lag) in enumerate(families):
            want = direct_sum(kind, order, lag, rows[:, s], n, dot)
            err = np.max(np.abs(got[s] - want)) / np.max(np.abs(want))
            assert err <= 1e-14, f"{kind} {order} {lag} after {n} rows: rel {err:.2e}"


@pytest.mark.parametrize("steps", [200, 3000, 100_000])
def test_reduced_soe_is_smaller_and_decays(steps):
    # the solver's default group, the other component's of the system, and
    # every certified family alone: fewer terms than the fits (a group's also
    # fewer than its members reduced alone), each decaying by a factor in
    # (0, 1) per fold, and a row of each member folded n folds ago at window
    # position b and read at fill f through the shared tail weighs what that
    # member's own full fit gives its offset, at every n up to the horizon.
    # Far out, rounding of decay**n builds up to ~1e-11; 1e-10 is half the
    # fit's own SOE_RTOL, well inside the 1e-9 certification.
    pos = np.arange(BLOCK)
    for group in [FAMILIES[:3], SYSTEM_GROUPS[1], *ungrouped(ALL_FAMILIES)]:
        fits = [soe_weights(kind, order, lag + WINDOW + 1, steps + lag)
                for kind, order, lag in group]
        decay, fold_w, tail = reduced_soe(group, steps)
        assert decay.size < sum(x.size for x, _ in fits), f"{group}: {decay.size} terms"
        if len(group) > 1:
            alone = sum(reduced_soe([family], steps)[0].size for family in group)
            assert decay.size < alone, f"{group}: {decay.size} terms, {alone} alone"
        assert np.all((decay > 0.0) & (decay < 1.0)), f"{group}"
        for k, ((kind, order, lag), (x, c)) in enumerate(zip(group, fits)):
            first, last = lag + WINDOW + 1, steps + lag
            folds = (last - first - 2 * BLOCK + 2) // BLOCK
            n = np.unique(np.concatenate([np.arange(8),
                                          np.round(np.geomspace(8, folds, 64))])).astype(int)
            got = np.einsum("fi,ni,ib->nfb", tail, decay ** n[:, None],
                            fold_w[:, k :: len(group)])
            m = first + BLOCK * n[:, None, None] + pos[:, None] + pos[::-1]
            err = np.max(np.abs(got / (np.exp(-m[..., None] * x) @ c) - 1.0))
            assert err <= 1e-10, f"{kind} {order} {lag} in {group}: rel {err:.2e}"


@pytest.mark.parametrize("steps", [200, 3000, 100_000])
def test_reduced_tail_matches_full_tail(steps, rng):
    # all twenty families stacked: four folds of nonzero rows, then the
    # WINDOW + 1 zero rows that fold the last of them, so that total() is the
    # reduced tail alone; read at every fill from that fold on, over four
    # folds, it must equal the full T-term fit's tail on the folded rows
    width, count = 3, 4 * BLOCK
    rows = random_rows(rng, count * len(ALL_FAMILIES), width)
    rows = rows.reshape(count, len(ALL_FAMILIES), width)
    hist = MemorySum(ungrouped(ALL_FAMILIES), width, steps)
    for row in rows:
        append(hist, row)
    zero = np.zeros((len(ALL_FAMILIES), width))
    for _ in range(WINDOW + 1):
        append(hist, zero)
    fits = [soe_weights(kind, order, lag + WINDOW + 1, steps + lag)
            for kind, order, lag in ALL_FAMILIES]
    appended, fills = count + WINDOW + 1, []
    for _ in range(4 * BLOCK):
        fill = (appended - WINDOW - BLOCK - 1) % BLOCK
        done = appended - WINDOW - 1 - fill  # rows folded so far
        assert done == count + BLOCK * (len(fills) // BLOCK)
        got = totals(hist)
        for s, ((kind, order, lag), (x, c)) in enumerate(zip(ALL_FAMILIES, fits)):
            m = lag + WINDOW + 1 + fill + (done - 1 - np.arange(count))
            want = (np.exp(-np.outer(m, x)) @ c) @ rows[:, s]
            err = np.max(np.abs(got[s] / want - 1.0))
            assert err <= 1e-12, f"{kind} {order} {lag} fill {fill}: rel {err:.2e}"
        fills.append(fill)
        append(hist, zero)
        appended += 1
    assert fills == list(range(BLOCK)) * 4


@pytest.mark.parametrize("kind,order,lag", FAMILIES)
@pytest.mark.parametrize("pairs", [False, True])
def test_low_rank_tail_matches_full_tail(kind, order, lag, pairs, rng):
    # several folds of nonzero rows, then zero rows until the window holds
    # nothing else: total() is then the tail alone, which must equal the
    # full fit's weights times the folded rows
    steps, width, count = 3000, 5, WINDOW + 4 * BLOCK
    rows = random_rows(rng, count, width)
    if pairs:
        rows = rows + 1j * random_rows(rng, count, width)
    hist = MemorySum([[(kind, order, lag)]], as_floats(rows).shape[1], steps)
    for row in rows:
        append(hist, row[None])
    zero = np.zeros((1, width), dtype=rows.dtype)
    for _ in range(WINDOW + BLOCK):
        append(hist, zero)
    x, c = soe_weights(kind, order, lag + WINDOW + 1, steps + lag)
    appended, fills = count + WINDOW + BLOCK, set()
    for _ in range(2 * BLOCK):
        # the window holds WINDOW + 1 + fill rows, all zero
        fill = (appended - WINDOW - BLOCK - 1) % BLOCK
        done = appended - WINDOW - 1 - fill  # rows folded so far
        assert done >= count
        # weight index of folded row k: first + fill + its offset in S
        m = lag + WINDOW + 1 + fill + (done - 1 - np.arange(count))
        want = (np.exp(-np.outer(m, x)) @ c) @ rows
        err = np.max(np.abs(totals(hist, pairs)[0] - want) / np.abs(want))
        assert err <= 1e-12, f"fill {fill}: rel {err:.2e}"
        fills.add(fill)
        append(hist, zero)
        appended += 1
    assert fills == set(range(BLOCK))


def test_mode_space_source_matches_rfft_of_physical_sum(rng):
    # the solver sums rfft(|u|^p) rows as (real, imaginary) pairs; the sum is
    # linear, so its total must be the rfft of the sum of the physical rows
    steps, points = 500, 64
    family = [[("rect", 0.75, 1)]]
    modes = MemorySum(family, 2 * (points // 2 + 1), steps)
    physical = MemorySum(family, points, steps)
    for n in range(1, steps + 2):
        row = random_rows(rng, 1, points)
        append(modes, np.fft.rfft(row).view(np.float64))
        append(physical, row)
        want = np.fft.rfft(totals(physical)[0])
        err = np.max(np.abs(totals(modes, True)[0] - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"after {n} rows: rel {err:.2e}"


class DirectSum:
    """Stand-in for MemorySum that hands out a fresh slot for every row,
    its K kind parts ``(G, 1, width)`` each, keeps them all, and sums each
    group directly over (age, kind), age-major like MemorySum's window
    product, on the same float columns, into MemorySum's ``(G, 1, width)``
    totals."""

    def __init__(self, groups, width, steps):
        self.cols = width
        self.shape = g, k = len(groups), len(groups[0])
        # each group's reversed weights, age-major: the n newest rows' are [-n * K:]
        self.wrevs = np.array([[WEIGHTS[kind](order, steps + lag + 2)[lag:][::-1]
                                for kind, order, lag in group] for group in groups])
        self.wrevs = self.wrevs.transpose(0, 2, 1).reshape(g, -1)
        self.rows = HistoryBuffer(k * g * self.cols, capacity=steps + 2)

    def slot(self):
        g, k = self.shape
        self.rows.count += 1
        return tuple(self.rows.rows[self.rows.count - 1].reshape(k, g, 1, self.cols))

    def total(self):
        n, (g, k) = self.rows.count, self.shape
        rows = self.rows.rows[:n].reshape(n, k, g, self.cols)
        return np.array([
            _kernels.hist_dot_real(wrev, wrev.size - n * k,
                                   rows[:, :, i].reshape(n * k, self.cols), 0, n * k)[None]
            for i, wrev in enumerate(self.wrevs)
        ])


PARAMS = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)
GRID = SpaceGrid(1, 20.0, 128)


def both_ways(monkeypatch, run, config):
    fast = run(config)
    with monkeypatch.context() as m:
        m.setattr(solver, "MemorySum", DirectSum)
        direct = run(config)
    return fast, direct


def both_layouts(config):
    # bumps centred on a grid node run in the cosine layout; an explicit zero
    # u0 keeps the same problem in the rfft layout
    zero = Field(config.space, np.zeros(config.space.shape()))
    return config, replace(config, u0=zero)


def test_run_without_fold_is_bit_identical(monkeypatch):
    for steps in (WINDOW + BLOCK - 1, WINDOW + BLOCK):
        for cfg in both_layouts(SimConfig(PARAMS, GRID, TimeGrid(0.5, steps),
                                          BumpSpec(8.0, 1.0))):
            fast, direct = both_ways(monkeypatch, solver.run, cfg)
            assert np.array_equal(fast.trace.values, direct.trace.values)


def test_run_matches_direct_history(monkeypatch):
    for cfg in both_layouts(SimConfig(PARAMS, GRID, TimeGrid(10.0, 2000), BumpSpec(8.0, 1.0))):
        fast, direct = both_ways(monkeypatch, solver.run, cfg)
        assert fast.status == direct.status == "BlowUp"
        assert fast.steps_taken == direct.steps_taken
        assert fast.blowup_time == pytest.approx(direct.blowup_time, rel=1e-9, abs=0.0)
        # before the sup-norm explodes the traces agree to the weights' accuracy
        early = slice(0, fast.steps_taken - 50)
        assert np.allclose(fast.trace.values[early], direct.trace.values[early],
                           rtol=1e-9, atol=0.0)


def test_system_matches_direct_history(monkeypatch):
    sp = SystemParamSet(PARAMS, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, 3.0))
    for cfg in both_layouts(SimConfig(sp, GRID, TimeGrid(2.0, 400), BumpSpec(2.0, 1.0),
                                      bump2=BumpSpec(1.0, 1.0))):
        fast, direct = both_ways(monkeypatch, solver.run_system, cfg)
        for f, d in zip(fast, direct):
            assert f.status == d.status
            assert np.allclose(f.trace.values, d.trace.values, rtol=1e-9, atol=0.0)


def test_source_off_run_leaves_every_source_slot_zero(monkeypatch):
    # a fold hands out its dropped rows' slots again without clearing them;
    # a run without the source never writes a source part, so each must
    # still hold the zeros the window started with, through all four folds
    steps, sums = WINDOW + 4 * BLOCK + 5, []

    class Watched(MemorySum):
        def __init__(self, *args):
            super().__init__(*args)
            sums.append(self)

        def slot(self):
            row = super().slot()
            assert not np.any(row[2]), f"row {len(self._window)}"
            return row

    monkeypatch.setattr(solver, "MemorySum", Watched)
    for cfg in both_layouts(SimConfig(PARAMS, GRID, TimeGrid(1.0, steps), BumpSpec(1.0, 1.0),
                                      nonlinearity=False)):
        assert solver.run(cfg).status == "Completed"
        hist = sums.pop()
        assert len(hist._window) == WINDOW + 6  # steps + 1 rows, four folds
        assert not np.any(hist._window.rows.reshape(WINDOW + BLOCK, 3, 1, -1)[:, 2])


# blow-up times of the default sweep (p = 1.5, 2, 3) from the direct sums
DEFAULT_SWEEP = {1.5: 5.548173171027825, 2.0: 2.9652495994381267, 3.0: 1.5790067050227106}


def test_default_sweep_blowup_times(monkeypatch):
    for name in list(os.environ):
        if name.startswith("FRACLAB_"):
            monkeypatch.delenv(name)
    spec = harness.build_spec(argparse.Namespace(
        mode="sweep", config=None, out=None, tol=None, seed=None))
    rows = harness.sweep(spec)
    assert [r.p for r in rows] == list(DEFAULT_SWEEP)
    for r in rows:
        assert r.status == "BlowUp"
        assert r.blowup_time == pytest.approx(DEFAULT_SWEEP[r.p], rel=1e-8, abs=0.0)
