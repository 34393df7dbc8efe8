"""The solver's memory sums: exact window plus sum-of-exponentials tail.

``solver.MemorySum`` holds a stack of sums and replaces the direct
full-history sums ``_kernels.hist_dot_*``; those stay as the reference
here.  The fit of the weights is certified against
``l1_weights``/``rect_weights``, every sum of a stack against its own
direct sum at every step, runs that never fold must match the direct sums
bit for bit, and whole runs must keep the blow-up times the direct sums
gave.
"""

import argparse
import os

import numpy as np
import pytest

from fraclab import _kernels, fracops, harness, solver
from fraclab.errors import NumericsError
from fraclab.exponents import ParamSet, SystemParamSet
from fraclab.fraclap import SpaceGrid
from fraclab.fracops import TimeGrid, l1_weights, rect_weights, soe_weights
from fraclab.solver import BLOCK, WINDOW, BumpSpec, HistoryBuffer, MemorySum, SimConfig

WEIGHTS = {"l1": l1_weights, "rect": rect_weights}
# the solver's own families at the default parameters, then the extremes
FAMILIES = [("l1", 0.5, 1), ("rect", 0.7, 2), ("rect", 0.75, 1),
            ("l1", 0.05, 1), ("l1", 0.95, 1), ("rect", 0.05, 2), ("rect", 0.95, 1)]


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


def test_soe_weights_add_nodes_then_give_up(monkeypatch):
    x, _ = soe_weights("l1", 0.5, 34, 3001)
    monkeypatch.setattr(fracops, "SOE_RTOL", 1e-13)
    finer, _ = soe_weights("l1", 0.5, 34, 3001)
    assert finer.size > x.size
    monkeypatch.setattr(fracops, "SOE_RTOL", 1e-18)
    with pytest.raises(NumericsError, match="sum-of-exponentials"):
        soe_weights("l1", 0.5, 34, 3001)


def direct_sum(kind, order, lag, rows, n, dot):
    # sum_k w[lag + n - 1 - k] rows[k] over the first n rows, the way the
    # stepper summed its full histories
    wrev = WEIGHTS[kind](order, n + lag)[::-1].copy()
    return dot(wrev, 0, rows, 0, n)


def random_rows(rng, count, width, complex_rows):
    if complex_rows:
        return rng.standard_normal((count, width)) + 1j * rng.standard_normal((count, width))
    return rng.random((count, width)) ** 2  # nonnegative, like |u|^p


def as_floats(rows):
    # the float columns a stacked sum holds for these rows
    return np.ascontiguousarray(rows).view(np.float64)


@pytest.mark.parametrize("kind,order,lag", FAMILIES)
@pytest.mark.parametrize("complex_rows", [False, True])
def test_memory_sum_matches_direct_sum(kind, order, lag, complex_rows, rng):
    steps, width = 3000, 7
    rows = random_rows(rng, steps + 1, width, complex_rows)
    dot = _kernels.hist_dot_complex if complex_rows else _kernels.hist_dot_real
    hist = MemorySum([(kind, order, lag)], width, rows.dtype, steps)
    assert not np.any(hist.total())
    for n in range(1, steps + 2):  # covers the folds at W+B, W+B+1, ... and k*B
        hist.append(rows[n - 1][None])
        want = direct_sum(kind, order, lag, rows, n, dot)
        err = np.max(np.abs(hist.total()[0] - want)) / np.max(np.abs(want))
        assert err <= 1e-9, f"after {n} rows: rel {err:.2e}"


def test_stacked_families_match_their_direct_sums(rng):
    # the seven families have different ranks, so the stack pads its
    # projections (and would pad term counts, which at one horizon agree);
    # every member must still match its own direct sum, and every padded
    # row must stay exactly zero
    steps, width = 3000, 5
    terms = [soe_weights(kind, order, lag + WINDOW + 1, steps + lag)[0].size
             for kind, order, lag in FAMILIES]
    rows = random_rows(rng, (steps + 1) * len(FAMILIES), width, True)
    rows = rows.reshape(steps + 1, len(FAMILIES), width)
    hist = MemorySum(FAMILIES, width, np.complex128, steps)
    for n in range(1, steps + 2):
        hist.append(rows[n - 1])
        got = hist.total()
        for s, (kind, order, lag) in enumerate(FAMILIES):
            want = direct_sum(kind, order, lag, rows[:, s], n, _kernels.hist_dot_complex)
            err = np.max(np.abs(got[s] - want)) / np.max(np.abs(want))
            assert err <= 1e-9, f"{kind} {order} {lag} after {n} rows: rel {err:.2e}"
        if n > WINDOW + BLOCK:
            for s, (t, r) in enumerate(zip(terms, hist.ranks)):
                assert np.all(hist._state[s, t:] == 0.0), f"state {s} after {n} rows"
                assert np.all(hist._proj[s, r:] == 0.0), f"projection {s} after {n} rows"
    assert hist._state.shape[1] == max(terms)
    assert len(set(hist.ranks)) > 1 and hist._proj.shape[1] == max(hist.ranks)


@pytest.mark.parametrize("complex_rows", [False, True])
def test_memory_sum_without_fold_is_bit_identical(complex_rows, rng):
    width, families = 33, FAMILIES[:3]
    rows = random_rows(rng, (WINDOW + BLOCK) * len(families), width, complex_rows)
    rows = rows.reshape(WINDOW + BLOCK, len(families), width)
    hist = MemorySum(families, width, rows.dtype, 10_000)
    for n in range(1, WINDOW + BLOCK + 1):
        hist.append(rows[n - 1])
        got = as_floats(hist.total())
        for s, (kind, order, lag) in enumerate(families):
            want = direct_sum(kind, order, lag, as_floats(rows[:, s]), n,
                              _kernels.hist_dot_real)
            assert np.array_equal(got[s], want), f"{kind} {order}: row {n}"


def test_memory_sum_memory_is_flat(rng):
    width, steps = 16, 100_000
    families = FAMILIES[:3]  # the solver's three sums of one component
    hist = MemorySum(families, width, np.complex128, steps)
    sizes = set()
    for n in range(1, 2001):
        hist.append(random_rows(rng, len(families), width, True))
        if n > WINDOW + BLOCK:
            sizes.add(hist.nbytes)
    assert len(sizes) == 1
    terms = max(soe_weights(kind, order, lag + WINDOW + 1, steps + lag)[0].size
                for kind, order, lag in families)
    # the window's rows plus one float pair per column for each term of every
    # state and each row of every rank-r projection, padded to the largest
    assert sizes.pop() == len(families) * width * 16 * (
        WINDOW + BLOCK + terms + max(hist.ranks))


def folded(families, steps):
    hist = MemorySum(families, 1, np.float64, steps)
    for _ in range(WINDOW + BLOCK + 1):
        hist.append(np.ones(len(families)))
    return hist


@pytest.mark.parametrize("steps", [200, 3000, 100_000])
def test_tail_rank_is_small(steps):
    families = [(kind, order, lag) for kind in ("l1", "rect")
                for order in (0.05, 0.25, 0.5, 0.75, 0.95) for lag in (1, 2)]
    for (kind, order, lag), rank in zip(families, folded(families, steps).ranks):
        assert 0 < rank <= 16, f"{kind} order {order} lag {lag}: rank {rank}"


@pytest.mark.parametrize("kind,order,lag", FAMILIES)
@pytest.mark.parametrize("complex_rows", [False, True])
def test_low_rank_tail_matches_full_tail(kind, order, lag, complex_rows, rng):
    # several folds of nonzero rows, then zero rows until the window holds
    # nothing else: total() is then the tail alone, which must equal the
    # full-rank coef_row @ S, i.e. the fitted weights times the folded rows
    steps, width, count = 3000, 5, WINDOW + 4 * BLOCK
    rows = random_rows(rng, count, width, False)
    if complex_rows:
        rows = rows + 1j * random_rows(rng, count, width, False)
    hist = MemorySum([(kind, order, lag)], width, rows.dtype, steps)
    for row in rows:
        hist.append(row[None])
    zero = np.zeros((1, width), dtype=rows.dtype)
    for _ in range(WINDOW + BLOCK):
        hist.append(zero)
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
        err = np.max(np.abs(hist.total()[0] - want) / np.abs(want))
        assert err <= 1e-12, f"fill {fill}: rel {err:.2e}"
        fills.add(fill)
        hist.append(zero)
        appended += 1
    assert fills == set(range(BLOCK))


def test_mode_space_source_matches_rfft_of_physical_sum(rng):
    # the solver sums rfft(|u|^p) rows; the sum is linear, so its total must
    # be the rfft of the sum of the physical rows
    steps, points = 500, 64
    family = [("rect", 0.75, 1)]
    modes = MemorySum(family, points // 2 + 1, np.complex128, steps)
    physical = MemorySum(family, points, np.float64, steps)
    for n in range(1, steps + 2):
        row = random_rows(rng, 1, points, False)
        modes.append(np.fft.rfft(row))
        physical.append(row)
        want = np.fft.rfft(physical.total()[0])
        err = np.max(np.abs(modes.total()[0] - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"after {n} rows: rel {err:.2e}"


class DirectSum:
    """Stand-in for MemorySum that keeps every row and sums each of its
    stacked sums directly, on the same float columns."""

    def __init__(self, families, width, dtype, steps):
        self.dtype = np.dtype(dtype)
        self.cols = width * (2 if self.dtype.kind == "c" else 1)
        self.wrevs = [(WEIGHTS[kind](order, steps + lag + 2)[::-1].copy(), lag)
                      for kind, order, lag in families]
        self.rows = HistoryBuffer(len(families) * self.cols, capacity=steps + 2)

    def append(self, row):
        self.rows.append(np.ravel(row).view(np.float64))

    def total(self):
        n, cols = len(self.rows), self.cols
        return np.array([
            _kernels.hist_dot_real(wrev, wrev.size - lag - n,
                                   self.rows.rows[:, s * cols : (s + 1) * cols], 0, n)
            for s, (wrev, lag) in enumerate(self.wrevs)
        ]).view(self.dtype)


PARAMS = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)
GRID = SpaceGrid(1, 20.0, 128)


def both_ways(monkeypatch, run, config):
    fast = run(config)
    with monkeypatch.context() as m:
        m.setattr(solver, "MemorySum", DirectSum)
        direct = run(config)
    return fast, direct


def test_run_without_fold_is_bit_identical(monkeypatch):
    for steps in (WINDOW + BLOCK - 1, WINDOW + BLOCK):
        cfg = SimConfig(PARAMS, GRID, TimeGrid(0.5, steps), BumpSpec(8.0, 1.0))
        fast, direct = both_ways(monkeypatch, solver.run, cfg)
        assert np.array_equal(fast.trace.values, direct.trace.values)


def test_run_matches_direct_history(monkeypatch):
    cfg = SimConfig(PARAMS, GRID, TimeGrid(10.0, 2000), BumpSpec(8.0, 1.0))
    fast, direct = both_ways(monkeypatch, solver.run, cfg)
    assert fast.status == direct.status == "BlowUp"
    assert fast.steps_taken == direct.steps_taken
    assert fast.blowup_time == pytest.approx(direct.blowup_time, rel=1e-9, abs=0.0)
    # before the sup-norm explodes the traces agree to the weights' accuracy
    early = slice(0, fast.steps_taken - 50)
    assert np.allclose(fast.trace.values[early], direct.trace.values[early],
                       rtol=1e-9, atol=0.0)


def test_system_matches_direct_history(monkeypatch):
    sp = SystemParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 0.6, 0.4, 0.2, 0.4, 0.8,
                        p=2.0, q=3.0)
    cfg = SimConfig(sp, GRID, TimeGrid(2.0, 400), BumpSpec(2.0, 1.0),
                    bump2=BumpSpec(1.0, 1.0))
    fast, direct = both_ways(monkeypatch, solver.run_system, cfg)
    for f, d in zip(fast, direct):
        assert f.status == d.status
        assert np.allclose(f.trace.values, d.trace.values, rtol=1e-9, atol=0.0)


# blow-up times of the default sweep (p = 1.5, 2, 3) from the direct sums
DEFAULT_SWEEP = {1.5: 5.548173171027825, 2.0: 2.9652495994381267, 3.0: 1.5790067050227106}


def test_default_sweep_blowup_times(monkeypatch):
    for name in list(os.environ):
        if name.startswith("FRACLAB_"):
            monkeypatch.delenv(name)
    spec = harness.build_spec(argparse.Namespace(
        mode="sweep", config=None, out=None, tol=None, jobs=1, seed=None))
    rows = harness.sweep(spec)
    assert [r.p for r in rows] == list(DEFAULT_SWEEP)
    for r in rows:
        assert r.status == "BlowUp"
        assert r.blowup_time == pytest.approx(DEFAULT_SWEEP[r.p], rel=1e-8, abs=0.0)
