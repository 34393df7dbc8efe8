import argparse
import contextlib
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab.errors import NumericsError, ParameterError
from fraclab.exponents import ParamSet, SystemParamSet
from fraclab import harness, solver
from fraclab.fraclap import SpaceGrid, cosine_layout
from fraclab.fracops import TimeGrid, TimeSeries
from fraclab.solver import (
    BumpSpec,
    SimConfig,
    _Channel,
    _group,
    bump_profile,
    default_space_grid,
    detect_blowup,
    nearest_node,
    run,
    run_system,
    tune_amplitude,
)

PARAMS = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)
SYS_PARAMS = SystemParamSet(PARAMS, PARAMS)
GRID = SpaceGrid(1, 20.0, 128)


def cfg(amplitude, horizon=10.0, steps=2000, **kw):
    return SimConfig(PARAMS, GRID, TimeGrid(horizon, steps), BumpSpec(amplitude, 1.0), **kw)


def distances_by_formula(grid, center):
    # |x - center| as BumpSpec.render computed it before it read SpaceGrid.radius
    x = grid.axis()
    if grid.dim == 1:
        return np.abs(x - center)
    c = center if isinstance(center, tuple) else (center,) * 2
    return np.hypot(x[:, None] - c[0], x[None, :] - c[1])


@pytest.mark.parametrize("dim,center", [(1, 0.0), (1, -3.1), (2, 0.0), (2, 2.3),
                                        (2, (1.0, -4.7))])
def test_bump_render_distances_are_radius(dim, center):
    grid = SpaceGrid(dim, 20.0, 64)
    bump = BumpSpec(2.5, 1.3, center=center)
    want = 2.5 * bump_profile(distances_by_formula(grid, center) / 1.3)
    assert np.array_equal(bump.render(grid).values, want)


def test_bump_spec():
    with pytest.raises(ParameterError):
        BumpSpec(1.0, 0.0)
    with pytest.raises(ParameterError, match="width must be positive, got nan"):
        BumpSpec(4.0, float("nan"))
    for center in (float("nan"), (0.0, float("nan"))):
        with pytest.raises(ParameterError, match="center must be a number"):
            BumpSpec(1.0, 1.0, center=center)
    f = BumpSpec(3.0, 1.0).render(GRID)
    assert f.sup_norm() == 3.0
    assert f.values[np.argmin(np.abs(GRID.axis()))] == 3.0
    with pytest.raises(ParameterError):
        # support sticks out of the box
        BumpSpec(1.0, 4.0, center=15.0).render(GRID)


def test_bump_spec_2d():
    g = SpaceGrid(2, 8.0, 32)
    f = BumpSpec(2.0, 1.0, center=(1.0, -1.0)).render(g)
    assert f.values.shape == (32, 32)
    assert np.isclose(f.sup_norm(), 2.0)
    i = np.argmin(np.abs(g.axis() - 1.0))
    j = np.argmin(np.abs(g.axis() + 1.0))
    assert f.values[i, j] == 2.0


def test_default_space_grid():
    g = default_space_grid(1, BumpSpec(1.0, 0.5), 256)
    assert g.half_length == 10.0
    assert g.points == 256


def test_sim_config_validation():
    with pytest.raises(ParameterError):
        cfg(1.0, threshold=0.0)
    with pytest.raises(ParameterError):
        cfg(-1.0)
    for bad in (float("nan"), float("inf"), -5.0):
        with pytest.raises(ParameterError, match="u0 must be finite and below the threshold"):
            cfg(1.0, u0=bad, threshold=2.0)


def test_sim_config_validates_the_second_component():
    with pytest.raises(ParameterError, match="nonnegative initial velocities"):
        SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0),
                  bump2=BumpSpec(-1.0, 1.0))
    # rendered like the first component's, on the same node
    c = SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0),
                  bump2=BumpSpec(1.0, 12.0))
    with pytest.raises(ParameterError, match="bump support does not fit inside the box"):
        run_system(c)


def test_sim_config_refuses_bad_numbers():
    with pytest.raises(ParameterError, match="threshold"):
        cfg(1.0, threshold=float("nan"))
    with pytest.raises(ParameterError, match="snapshot_every"):
        cfg(1.0, snapshot_every=-1)


PARAMS_2D = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0, dim=2)


def columns(config):
    # the real mode columns a run of ``config`` advances
    return _Channel(config, *_group(config, config.params)).history.total().shape[-1]


def cosine_columns(space):
    # k = M/2+1 cosine modes in 1-D, the k(k+1)/2 of a symmetric k x k mode
    # matrix's triangle in 2-D
    k = space.points // 2 + 1
    return k if space.dim == 1 else k * (k + 1) // 2


def test_2d_run_raises_no_warnings(rfft_steps):
    # the inverse 2-D transform once warned on every step under NumPy 2; the
    # run steps on the cosine modes, and again on the rfft ones
    c = SimConfig(PARAMS_2D, SpaceGrid(2, 8.0, 16), TimeGrid(0.5, 8), BumpSpec(1.0, 1.0))
    for layout, cols in ((contextlib.nullcontext, cosine_columns(c.space)),
                         (rfft_steps, 2 * 16 * 9)):
        with layout(), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert columns(c) == cols
            r = run(c)
        assert r.status == "Completed"
        assert r.steps_taken == 8


GRID_2D = SpaceGrid(2, 8.0, 32)


def assert_layouts_agree(c, rfft_steps):
    # the run on the cosine modes and on the rfft modes of the full fields
    # blow up at the same step.  The threshold is low because rounding
    # differences grow with the solution near blow-up: a run translated by
    # one cell in the rfft layout differs from the rfft run by ~2e-13 at
    # threshold 1e8
    def go():
        return [run(c)] if isinstance(c.params, ParamSet) else run_system(c)

    assert columns(c) == cosine_columns(c.space)
    results = go()
    with rfft_steps():
        m, dim = c.space.points, c.space.dim
        assert columns(c) == 2 * m ** (dim - 1) * (m // 2 + 1)
        refs = go()
    for r, ref in zip(results, refs):
        assert r.status == ref.status == "BlowUp"
        assert r.steps_taken == ref.steps_taken
        assert r.blowup_time == pytest.approx(ref.blowup_time, rel=1e-12, abs=0.0)
        assert np.allclose(r.trace.values, ref.trace.values, rtol=1e-12, atol=0.0)
        assert (r.snapshots is None) == (ref.snapshots is None)
        assert len(r.snapshots or ()) == len(ref.snapshots or ())
        for (t, f), (t_ref, f_ref) in zip(r.snapshots or (), ref.snapshots or ()):
            assert t == t_ref
            assert np.max(np.abs(f.values - f_ref.values)) <= 1e-12 * f_ref.sup_norm()
    return results


@pytest.mark.parametrize("config", [
    dict(bump=BumpSpec(8.0, 1.0, center=1.0)),
    dict(bump=BumpSpec(8.0, 1.0, center=1.0), snapshot_every=100),
    dict(bump=BumpSpec(8.0, 1.0, center=1.0), bump2=BumpSpec(4.0, 1.5, center=1.0),
         params=SystemParamSet(PARAMS_2D, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, 3.0, dim=2))),
    # off the diagonal the data are still symmetric under the swap of the
    # axes, measured from the node
    dict(bump=BumpSpec(8.0, 1.0, center=(1.0, -1.5))),
], ids=["scalar", "snapshots", "system", "off-diagonal"])
def test_2d_layouts_agree(rfft_steps, config):
    config = {"params": PARAMS_2D, **config}
    c = SimConfig(space=GRID_2D, time=TimeGrid(4.0, 800), threshold=1e3, **config)
    results = assert_layouts_agree(c, rfft_steps)
    if c.snapshot_every:
        assert len(results[0].snapshots) == 7


@pytest.mark.parametrize("config", [
    dict(bump=BumpSpec(8.0, 1.0, center=1.25)),
    dict(bump=BumpSpec(8.0, 1.0, center=1.25), snapshot_every=100),
    dict(bump=BumpSpec(8.0, 1.0, center=1.25), bump2=BumpSpec(4.0, 1.5, center=1.25),
         params=SystemParamSet(PARAMS, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, 3.0))),
    dict(bump=BumpSpec(8.0, 1.0, center=1.25), space=SpaceGrid(1, 20.0, 1024)),
], ids=["scalar", "snapshots", "system", "1024-points"])
def test_1d_layouts_agree(rfft_steps, config):
    # 1.25 is four cells of GRID right of the origin, and 32 of the
    # 1024-point grid, whose cosine transforms are FFTs
    config = {"params": PARAMS, "space": GRID, **config}
    c = SimConfig(time=TimeGrid(4.0, 800), threshold=1e3, **config)
    results = assert_layouts_agree(c, rfft_steps)
    if c.snapshot_every:
        assert len(results[0].snapshots) == 6


@pytest.mark.parametrize("config", [
    SimConfig(PARAMS, SpaceGrid(1, 20.0, 256), TimeGrid(50.0, 50000), BumpSpec(4.0, 1.0),
              snapshot_every=1000),
    SimConfig(PARAMS_2D, SpaceGrid(2, 8.0, 64), TimeGrid(4.0, 800), BumpSpec(8.0, 1.0),
              threshold=1e3, snapshot_every=100),
], ids=["1d-256", "2d-64"])
def test_a_centre_off_a_node_runs_as_its_nearest_node(config):
    # on the periodic box moving the bump only translates the solution, so
    # a run at a centre off a node is its nearest node's run: the same
    # trace and blow-up time at every centre in a cell, bit for bit where
    # the nearest node is the same, and that run's fields
    cell, axes = config.space.spacing, tuple(range(config.space.dim))
    runs = {}
    for frac in (0.0, 0.25, 0.5, 0.75):
        c = replace(config, bump=replace(config.bump, center=frac * cell))
        node, _, offset = nearest_node(c.space, c.bump)
        # a tie goes to the lower node
        assert offset == ((frac - (frac > 0.5)) * cell,) * config.space.dim
        runs[frac] = node, run(c)
    (home, ref), next_node = runs[0.0], runs[0.75][0]
    assert [node for node, _ in runs.values()] == [home] * 3 + [next_node]
    assert next_node == tuple(i + 1 for i in home)
    for node, r in runs.values():
        assert r.status == ref.status == "BlowUp"
        assert r.steps_taken == ref.steps_taken
        same = np.array_equal if node == home else (
            lambda a, b: np.allclose(a, b, rtol=1e-12, atol=0.0))
        assert same(r.blowup_time, ref.blowup_time)
        assert same(r.trace.values, ref.trace.values)
        assert len(r.snapshots) == len(ref.snapshots) > 2
        for (t, f), (t_ref, f_ref) in zip(r.snapshots, ref.snapshots):
            # the node one cell on holds the same field one cell on
            moved = np.roll(f_ref.values, 1 if node != home else 0, axis=axes)
            assert t == t_ref
            assert np.max(np.abs(f.values - moved)) <= 1e-12 * f_ref.sup_norm()


def test_bump2_at_another_centre_is_refused():
    # a run steps about one node, so both bumps must share their centre;
    # in 2-D a float c means (c, c)
    pair = SystemParamSet(PARAMS_2D, PARAMS_2D)
    for space, params, c1, c2 in ((GRID_2D, pair, 0.0, 0.5), (GRID_2D, pair, 0.0, (0.0, 0.5)),
                                  (GRID_2D, pair, 0.3, (0.3, 0.30001)),
                                  (GRID, SYS_PARAMS, 0.0, 0.3125)):
        with pytest.raises(ParameterError, match="bump2 must share bump's centre"):
            SimConfig(params, space, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0, center=c1),
                      bump2=BumpSpec(0.5, 1.5, center=c2))
    c = SimConfig(pair, GRID_2D, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0, center=2.0),
                  bump2=BumpSpec(0.5, 1.5, center=(2.0, 2.0)))
    assert all(r.status == "Completed" for r in run_system(c))


@pytest.mark.parametrize("dim", [1, 2])
def test_cosine_runs_unfold_only_for_snapshots(monkeypatch, dim):
    # a cosine-layout run steps on the fundamental-domain samples: it gathers
    # its data from the full field once, and makes a full field only for a
    # snapshot after t = 0 (the t = 0 one is the data)
    calls = {"gather": 0, "unfold": 0}

    def counted(name, fn):
        def wrapped(a):
            calls[name] += 1
            return fn(a)
        return wrapped

    def layout(grid, node):
        *rest, gather, unfold = cosine_layout(grid, node)
        return (*rest, counted("gather", gather), counted("unfold", unfold))

    monkeypatch.setattr(solver, "cosine_layout", layout)
    params, space = (PARAMS, GRID) if dim == 1 else (PARAMS_2D, GRID_2D)
    # 2.5 is a grid node of both: 8 cells of GRID, 5 of GRID_2D
    for every in (0, 7, 100):
        calls.update(gather=0, unfold=0)
        r = run(SimConfig(params, space, TimeGrid(4.0, 800), BumpSpec(8.0, 1.0, center=2.5),
                          threshold=1e3, snapshot_every=every))
        assert r.status == "BlowUp"
        assert calls["gather"] == 1
        assert calls["unfold"] == (len(r.snapshots) - 1 if every else 0), every
        if every:
            # every k-th step, and the blow-up state off the cadence
            assert len(r.snapshots) == r.steps_taken // every + 2


def test_run_rejects_mismatched_params():
    c = cfg(1.0)
    c.params = SYS_PARAMS
    with pytest.raises(ParameterError):
        run(c)
    c.params = PARAMS
    with pytest.raises(ParameterError):
        run_system(c)
    c2 = cfg(1.0)
    c2.params = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0, dim=2)
    with pytest.raises(ParameterError):
        run(c2)
    # a bump centre with another count of coordinates than the grid's axes
    for params, space, center in ((PARAMS, GRID, (1.0, 2.0)), (PARAMS_2D, GRID_2D, (1.0,)),
                                  (PARAMS_2D, GRID_2D, (1.0, 2.0, 3.0))):
        c3 = SimConfig(params, space, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0, center=center))
        with pytest.raises(ParameterError, match=f"does not fit a {space.dim}-D grid"):
            run(c3)


def test_zero_data_is_fixed_point():
    r = run(cfg(0.0, horizon=1.0, steps=16))
    assert r.status == "Completed"
    assert r.steps_taken == 16
    assert np.array_equal(r.trace.values, np.zeros(17))


def test_detect_blowup_interpolates():
    grid = TimeGrid(1.0, 2)
    t = detect_blowup(TimeSeries(grid, np.array([0.0, 5.0, 15.0])), 10.0)
    assert np.isclose(t, 0.75)
    assert detect_blowup(TimeSeries(grid, np.array([12.0, 5.0, 5.0])), 10.0) == 0.0
    assert detect_blowup(TimeSeries(grid, np.array([0.0, 1.0, 2.0])), 10.0) is None
    bad = TimeSeries(grid, np.array([0.0, np.inf, 2.0]), diverged=True)
    assert detect_blowup(bad, 10.0) == 0.5


def _detect_blowup_loop(trace, threshold):
    # the element-by-element scan detect_blowup replaced; kept as its reference
    vals = trace.values
    t = trace.grid.nodes()
    for j, v in enumerate(vals):
        if not np.isfinite(v):
            return float(t[j])
        if v >= threshold:
            if j == 0:
                return 0.0
            a, b = vals[j - 1], v
            frac = (threshold - a) / (b - a) if b > a else 1.0
            return float(t[j - 1] + frac * trace.grid.h)
    return None


def test_detect_blowup_matches_the_loop():
    rng = np.random.default_rng(3)
    for steps in (2, 3, 7, 50, 2967):
        grid = TimeGrid(rng.uniform(0.1, 10.0), steps)
        for _ in range(40):
            vals = rng.uniform(0.0, 12.0, steps + 1)
            j = rng.integers(steps + 1)
            vals[j] = rng.choice([np.nan, np.inf, -np.inf, vals[j]])
            trace = TimeSeries(grid, vals, diverged=True)
            assert detect_blowup(trace, 10.0) == _detect_blowup_loop(trace, 10.0)


def test_linear_runs_self_converge():
    finals = []
    for n in (64, 128, 256):
        c = cfg(1.0, horizon=1.0, steps=n, nonlinearity=False)
        finals.append(run(c).trace.values[-1])
    assert abs(finals[0] - finals[2]) > abs(finals[1] - finals[2])
    assert abs(finals[1] - finals[2]) < 1e-4


def test_source_off_never_reads_the_power():
    # with the nonlinearity off the power must not enter a run at all, not
    # even through the |u0|^p row the source sum starts from
    traces = []
    for p in (2.0, 3.0):
        params = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, p)
        sys_params = SystemParamSet(params, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, p))
        time = TimeGrid(2.0, 200)
        scalar = run(SimConfig(params, GRID, time, BumpSpec(1.0, 1.0), u0=0.5,
                               nonlinearity=False))
        pair = run_system(SimConfig(sys_params, GRID, time, BumpSpec(1.0, 1.0), u0=0.5,
                                    nonlinearity=False))
        traces.append([r.trace.values for r in (scalar, *pair)])
    assert np.any(traces[0][0] != traces[0][0][0])
    for at_2, at_3 in zip(*traces):
        assert np.array_equal(at_2, at_3)


def test_growth_guard_trips_on_coarse_linear_step():
    c = cfg(1e3, horizon=1.0, steps=100, u0=1e-6, nonlinearity=False)
    with pytest.raises(NumericsError, match="reduce the time step"):
        run(c)


def test_blowup_time_monotone_in_amplitude():
    r8 = run(cfg(8.0))
    r16 = run(cfg(16.0))
    assert r8.status == "BlowUp" and r16.status == "BlowUp"
    assert r16.blowup_time < r8.blowup_time
    # trace is truncated at the stopping step
    assert r8.trace.grid.horizon < 10.0
    assert r8.trace.values[-1] >= 1e8
    assert r8.blowup_time < r8.trace.grid.horizon


def test_blowup_trace_is_finite_and_flagged_correctly():
    r = run(cfg(8.0))
    assert not r.trace.diverged
    assert np.all(np.isfinite(r.trace.values))


def test_snapshot_cadence():
    r = run(cfg(0.5, horizon=1.0, steps=20, snapshot_every=5))
    assert r.status == "Completed"
    times = [t for t, _ in r.snapshots]
    assert np.allclose(times, [0.0, 0.25, 0.5, 0.75, 1.0])
    r2 = run(cfg(16.0, snapshot_every=10**9))
    # blow-up appends the terminal state even off-cadence
    assert r2.status == "BlowUp"
    assert len(r2.snapshots) == 2
    assert np.isclose(r2.snapshots[-1][0], r2.trace.grid.horizon)


def test_diverged_run_is_reported_not_raised():
    c = cfg(1e160, threshold=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        r = run(c)
    assert r.status == "Diverged"
    assert r.trace.diverged
    assert r.blowup_time == r.trace.grid.horizon


def test_far_too_coarse_step_raises():
    c = cfg(1e6, horizon=1.0, steps=2, threshold=1.0)
    with pytest.raises(NumericsError, match="too coarse"):
        run(c)


def test_symmetric_system_reduces_to_scalar():
    c = SimConfig(SYS_PARAMS, GRID, TimeGrid(10.0, 2000), BumpSpec(8.0, 1.0))
    ru, rv = run_system(c)
    assert ru.status == rv.status == "BlowUp"
    assert ru.blowup_time == rv.blowup_time
    assert np.array_equal(ru.trace.values, rv.trace.values)
    rs = run(cfg(8.0))
    assert np.array_equal(rs.trace.values, ru.trace.values)
    assert rs.blowup_time == ru.blowup_time


def test_symmetric_system_snapshots_match_scalar():
    # a completed run keeps every 5th state; a blow-up also keeps the last one
    for amplitude, horizon, steps in ((0.5, 1.0, 40), (16.0, 10.0, 2000)):
        rs = run(cfg(amplitude, horizon=horizon, steps=steps, snapshot_every=5))
        c = SimConfig(SYS_PARAMS, GRID, TimeGrid(horizon, steps),
                      BumpSpec(amplitude, 1.0), snapshot_every=5)
        for r in run_system(c):
            assert r.status == rs.status
            assert len(r.snapshots) == len(rs.snapshots)
            for (t, f), (ts, fs) in zip(r.snapshots, rs.snapshots):
                assert t == ts
                assert np.array_equal(f.values, fs.values)
    assert rs.status == "BlowUp"
    assert rs.snapshots[-1][0] == rs.trace.grid.horizon


def test_system_growth_guard_trips_on_coarse_linear_step():
    # only the second component is too coarse for its step
    c = SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 100), BumpSpec(1e-6, 1.0),
                  bump2=BumpSpec(1e3, 1.0), u0=1e-6, nonlinearity=False)
    with pytest.raises(NumericsError, match="reduce the time step"):
        run_system(c)


def test_diverged_system_is_reported_not_raised():
    c = SimConfig(SYS_PARAMS, GRID, TimeGrid(10.0, 2000), BumpSpec(1e160, 1.0),
                  threshold=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        ru, rv = run_system(c)
    for r in (ru, rv):
        assert r.status == "Diverged"
        assert r.trace.diverged
        assert r.blowup_time == r.trace.grid.horizon
    assert ru.steps_taken == rv.steps_taken


def test_asymmetric_system_components_differ():
    sp = SystemParamSet(PARAMS, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, 3.0))
    c = SimConfig(
        sp, GRID, TimeGrid(1.0, 200), BumpSpec(0.5, 1.0),
        bump2=BumpSpec(0.25, 1.0),
    )
    ru, rv = run_system(c)
    assert ru.status == rv.status == "Completed"
    assert not np.array_equal(ru.trace.values, rv.trace.values)
    assert ru.trace.values[-1] != rv.trace.values[-1]


class ReferenceChannel(_Channel):
    """The step as it was before every operand kept the history product's
    ``(C, 1, cols)`` shape; kept as the reference the lean step must match
    bit for bit.  The modes are flat ``(C, cols)`` rows, reshaped around
    the history and each transform, each row transformed as its own
    ``(1, ...)`` stack, and every component's ``|u|^p`` is its own power."""

    def __init__(self, config, comps, feeds):
        super().__init__(config, comps, feeds)
        count, self.h = len(comps), config.time.h
        self.feeds, self.powers = feeds, [pr.p for pr, _ in comps]
        self.uhat, self.vhat, self.a, self.b = (
            x.reshape(count, -1) for x in (self.uhat, self.vhat, self.a, self.b))
        self.scale = [x.reshape(count, -1) for x in self.scale]

    def step(self, j, source):
        vhat = self.vhat
        vnew = self.history.total().reshape(len(vhat), -1)
        vnew += self.a * vhat
        vnew += self.b * self.uhat
        row = [part[:, 0] for part in self.history.slot()]
        np.multiply(vnew - vhat, self.scale[0], out=row[0])
        vhat += vnew
        np.multiply(vhat, self.scale[1], out=row[1])
        self.uhat += 0.5 * self.h * vhat
        self.vhat = vnew
        u = self.inv(self.uhat[:, None])
        mag = np.abs(u)
        if source:
            power = np.array([mag[k] ** p for k, p in zip(self.feeds, self.powers)])
            modes = self.fwd(power).reshape(len(self.feeds), -1)
            np.multiply(modes, self.scale[2], out=row[2])
        return u, mag.reshape(len(mag), -1).max(axis=1).tolist()


ASYM = SystemParamSet(PARAMS, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, 3.0))
GRID_64 = SpaceGrid(2, 8.0, 64)


@pytest.mark.parametrize("config,params,rfft", [
    (cfg(8.0, snapshot_every=300), [PARAMS], False),
    (replace(cfg(8.0, snapshot_every=300), bump=BumpSpec(8.0, 1.0, center=0.1)), [PARAMS],
     True),
    (replace(cfg(8.0, snapshot_every=300), space=SpaceGrid(1, 20.0, 1024)), [PARAMS], False),
    (SimConfig(PARAMS_2D, GRID_64, TimeGrid(4.0, 800), BumpSpec(8.0, 1.0), threshold=1e3,
               snapshot_every=100), [PARAMS_2D], False),
    (SimConfig(PARAMS_2D, GRID_64, TimeGrid(4.0, 800), BumpSpec(8.0, 1.0, center=0.3),
               threshold=1e3, snapshot_every=100), [PARAMS_2D], True),
    (SimConfig(ASYM, GRID, TimeGrid(2.0, 400), BumpSpec(2.0, 1.0), bump2=BumpSpec(1.0, 1.0),
               snapshot_every=50), [ASYM], False),
    (cfg(8.0, snapshot_every=200), [replace(PARAMS, p=p) for p in (1.5, 2.0, 3.0)], False),
], ids=["1d-cosine", "1d-rfft", "1d-fft", "2d-triangle", "2d-rfft", "asymmetric-system",
        "sweep"])
def test_lean_step_matches_the_reference_step(monkeypatch, rfft_steps, config, params, rfft):
    # every run passes at least three folds, and its traces, blow-up times
    # and snapshots must be the reference's bit for bit, on the cosine
    # modes (dense, or FFTs above fraclap.DENSE_POINTS) or the rfft ones
    with rfft_steps() if rfft else contextlib.nullcontext():
        lean = solver.march(config, params)
        monkeypatch.setattr(solver, "_Channel", ReferenceChannel)
        reference = solver.march(config, params)
    assert max(r.steps_taken for run in lean for r in run) >= solver.WINDOW + 3 * solver.BLOCK
    for run, ref in zip(lean, reference):
        for r, want in zip(run, ref):
            assert (r.status, r.steps_taken) == (want.status, want.steps_taken)
            assert r.blowup_time == want.blowup_time
            assert np.array_equal(r.trace.values, want.trace.values, equal_nan=True)
            assert len(r.snapshots) == len(want.snapshots) > 2
            for (t, f), (t_ref, f_ref) in zip(r.snapshots, want.snapshots):
                assert t == t_ref and np.array_equal(f.values, f_ref.values)


def test_march_calls_step_once_per_step_index(monkeypatch):
    # the benchmark's late_step_ms reads a clock stamp that it sets after
    # each _Channel.step call, keyed by the step index, so a step inlined
    # into march would leave it nothing to read
    for name in list(os.environ):
        if name.startswith("FRACLAB_"):
            monkeypatch.delenv(name)
    calls, step = [], _Channel.step

    def stamped(self, j, source):
        calls.append((j, source))
        return step(self, j, source)

    monkeypatch.setattr(_Channel, "step", stamped)

    def spec(mode):
        return harness.build_spec(argparse.Namespace(
            mode=mode, config=None, out=None, tol=None, seed=None))

    scalar, system, sweep = spec("simulate"), spec("system-sweep"), spec("sweep")
    runs = [
        (scalar.config, lambda c: [run(c)]),
        (replace(scalar.config, nonlinearity=False, time=TimeGrid(1.0, 60)), lambda c: [run(c)]),
        (system.config, run_system),
        (sweep.config, lambda c: [r for rs in solver.march(
            c, [replace(c.params, p=p) for p in sweep.sweep_p]) for r in rs]),
    ]
    for config, go in runs:
        calls.clear()
        last = max(r.steps_taken for r in go(config))
        assert calls == [(j, config.nonlinearity) for j in range(1, last + 1)]
    assert last == 5549  # the default sweep steps until its p = 1.5 row blows up


def test_tune_amplitude_doubles_until_blowup():
    base = cfg(0.25, horizon=6.0, steps=1200)
    amp, r = tune_amplitude(base, 0.25)
    assert amp == 1.0
    assert r.status == "BlowUp"
    with pytest.raises(ParameterError):
        tune_amplitude(base, 0.0)
    linear = cfg(1.0, horizon=1.0, steps=200, nonlinearity=False)
    with pytest.raises(NumericsError, match="no blow-up"):
        tune_amplitude(linear, 1.0)


def test_tune_amplitude_keeps_the_rest_of_the_config():
    # every trial must run the given config with only the amplitude changed
    base = cfg(0.25, horizon=6.0, steps=1200, u0=0.5)
    amp, r = tune_amplitude(base, 0.25)
    assert r.trace.values[0] == 0.5
    direct = run(cfg(amp, horizon=6.0, steps=1200, u0=0.5))
    assert r.blowup_time == direct.blowup_time
    assert np.array_equal(r.trace.values, direct.trace.values)


def test_runs_on_dense_cosine_modes_load_no_numpy_submodule():
    # the Gauss-Legendre rules of the first fold's fits come from fracops'
    # Golub-Welsch solver and the cosine wavenumbers from arange, so the
    # default 1-D run, the same run off a node, and a 2-D run, each past its
    # first fold and each at most fraclap.DENSE_POINTS points per axis, load
    # neither numpy.polynomial nor numpy.fft
    code = (
        "import sys\n"
        "from fraclab.exponents import ParamSet\n"
        "from fraclab.fraclap import SpaceGrid\n"
        "from fraclab.fracops import TimeGrid\n"
        "from fraclab.solver import BumpSpec, SimConfig, run\n"
        "p = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)\n"
        "for c in (0.0, 0.1):\n"
        "    run(SimConfig(p, SpaceGrid(1, 20.0, 256), TimeGrid(50.0, 50000),\n"
        "                  BumpSpec(4.0, 1.0, center=c)))\n"
        "p2 = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0, dim=2)\n"
        "run(SimConfig(p2, SpaceGrid(2, 20.0, 32), TimeGrid(0.5, 40), BumpSpec(4.0, 1.0)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['numpy', 'polynomial'], ['numpy', 'fft'])))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fraclab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    assert out.strip() == "[]"


def test_run_is_reproducible_across_processes():
    # The same run in a fresh interpreter and in this process.
    code = (
        "import fraclab\n"
        "from fraclab.exponents import ParamSet\n"
        "from fraclab.fraclap import SpaceGrid\n"
        "from fraclab.fracops import TimeGrid\n"
        "from fraclab.solver import BumpSpec, SimConfig, run\n"
        "p = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)\n"
        "c = SimConfig(p, SpaceGrid(1, 20.0, 128), TimeGrid(10.0, 2000), BumpSpec(8.0, 1.0))\n"
        "r = run(c)\n"
        "print(fraclab.__file__)\n"
        "print(repr(float(r.blowup_time)), r.trace.values[-1].hex())\n"
    )
    # the child imports the same fraclab source as this process, whether the
    # suite runs from an install or from src/
    src_root = str(Path(fraclab.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, f"child run failed:\n{out.stderr}"
    child_file, result = out.stdout.splitlines()
    assert Path(child_file).resolve() == Path(fraclab.__file__).resolve(), (
        f"child imported {child_file}, this process {fraclab.__file__}"
    )
    t_star_s, final_hex = result.split()
    r = run(cfg(8.0))
    msg = "this process vs a fresh process"
    assert np.isclose(float(t_star_s), r.blowup_time, rtol=1e-12, atol=0.0), msg
    assert np.isclose(float.fromhex(final_hex), r.trace.values[-1], rtol=1e-9, atol=0.0), msg
