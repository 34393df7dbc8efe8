import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab import _kernels
from fraclab.errors import NumericsError, ParameterError
from fraclab.exponents import ParamSet, SystemParamSet
from fraclab.fraclap import Field, SpaceGrid
from fraclab.fracops import TimeGrid, TimeSeries
from fraclab.solver import (
    BumpSpec,
    HistoryBuffer,
    SimConfig,
    default_space_grid,
    detect_blowup,
    run,
    run_system,
    tune_amplitude,
)

PARAMS = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)
SYS_PARAMS = SystemParamSet(
    0.5, 0.3, 0.25, 0.5, 0.7,
    0.5, 0.3, 0.25, 0.5, 0.7,
    p=2.0, q=2.0,
)
GRID = SpaceGrid(1, 20.0, 128)


def cfg(amplitude, horizon=10.0, steps=2000, **kw):
    return SimConfig(PARAMS, GRID, TimeGrid(horizon, steps), BumpSpec(amplitude, 1.0), **kw)


def test_bump_spec():
    with pytest.raises(ParameterError):
        BumpSpec(1.0, 0.0)
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
    # negative amplitudes are allowed once the hypothesis guard is off
    c = cfg(-1.0, theorem_mode=False)
    assert c.bump.amplitude == -1.0
    other = Field(SpaceGrid(1, 10.0, 128), np.zeros(128))
    with pytest.raises(ParameterError):
        cfg(1.0, u0=other)
    big = Field(GRID, np.full(128, 5.0))
    with pytest.raises(ParameterError):
        cfg(1.0, u0=big, threshold=2.0)


def test_sim_config_validates_the_second_component():
    other = Field(SpaceGrid(1, 10.0, 128), np.zeros(128))
    with pytest.raises(ParameterError, match="v0_init lives on a different grid"):
        SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0), v0_init=other)
    big = Field(GRID, np.full(128, 5.0))
    with pytest.raises(ParameterError, match="initial sup-norm of v0_init"):
        SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0),
                  v0_init=big, threshold=2.0)
    with pytest.raises(ParameterError, match="nonnegative initial velocities"):
        SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0),
                  bump2=BumpSpec(-1.0, 1.0))
    c = SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 10), BumpSpec(1.0, 1.0),
                  bump2=BumpSpec(-1.0, 1.0), theorem_mode=False)
    assert c.bump2.amplitude == -1.0


def test_sim_config_refuses_bad_numbers():
    with pytest.raises(ParameterError, match="threshold"):
        cfg(1.0, threshold=float("nan"))
    with pytest.raises(ParameterError, match="snapshot_every"):
        cfg(1.0, snapshot_every=-1)


def test_2d_run_raises_no_warnings():
    # the inverse 2-D transform once warned on every step under NumPy 2
    c = SimConfig(ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0, dim=2), SpaceGrid(2, 8.0, 16),
                  TimeGrid(0.5, 8), BumpSpec(1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run(c)
    assert r.status == "Completed"
    assert r.steps_taken == 8


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


def test_zero_data_is_fixed_point():
    r = run(cfg(0.0, horizon=1.0, steps=16))
    assert r.status == "Completed"
    assert r.steps_taken == 16
    assert np.array_equal(r.trace.values, np.zeros(17))


def test_history_buffer_growth():
    buf = HistoryBuffer(3, capacity=2)
    for i in range(9):
        buf.append(np.full(3, float(i)))
    assert len(buf) == 9
    assert buf.rows.shape[0] >= 9
    assert np.array_equal(buf.rows[:9, 0], np.arange(9.0))


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


def test_growth_guard_trips_on_coarse_linear_step():
    u0 = Field(GRID, 1e-6 * BumpSpec(1.0, 1.0).render(GRID).values)
    c = cfg(1e3, horizon=1.0, steps=100, u0=u0, nonlinearity=False)
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
    tiny = Field(GRID, 1e-6 * BumpSpec(1.0, 1.0).render(GRID).values)
    c = SimConfig(SYS_PARAMS, GRID, TimeGrid(1.0, 100), BumpSpec(1e-6, 1.0),
                  bump2=BumpSpec(1e3, 1.0), u0=tiny, v0_init=tiny, nonlinearity=False)
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
    sp = SystemParamSet(
        0.5, 0.3, 0.25, 0.5, 0.7,
        0.6, 0.4, 0.2, 0.4, 0.8,
        p=2.0, q=3.0,
    )
    c = SimConfig(
        sp, GRID, TimeGrid(1.0, 200), BumpSpec(0.5, 1.0),
        bump2=BumpSpec(0.25, 1.0),
    )
    ru, rv = run_system(c)
    assert ru.status == rv.status == "Completed"
    assert not np.array_equal(ru.trace.values, rv.trace.values)
    assert ru.trace.values[-1] != rv.trace.values[-1]


def test_tune_amplitude_doubles_until_blowup():
    base = cfg(0.25, horizon=6.0, steps=1200)
    amp, r = tune_amplitude(base, 0.25)
    assert amp == 1.0
    assert r.status == "BlowUp"
    with pytest.raises(ParameterError):
        tune_amplitude(base, 0.0)
    linear = cfg(1.0, horizon=1.0, steps=200, nonlinearity=False)
    with pytest.raises(NumericsError, match="no blow-up"):
        tune_amplitude(linear, 1.0, max_doublings=2)


def test_tune_amplitude_keeps_the_rest_of_the_config():
    # every trial must run the given config with only the amplitude changed
    u0 = Field(GRID, 0.5 * BumpSpec(1.0, 1.0).render(GRID).values)
    base = cfg(0.25, horizon=6.0, steps=1200, u0=u0)
    amp, r = tune_amplitude(base, 0.25)
    assert r.trace.values[0] == 0.5
    direct = run(cfg(amp, horizon=6.0, steps=1200, u0=u0))
    assert r.blowup_time == direct.blowup_time
    assert np.array_equal(r.trace.values, direct.trace.values)


def test_numpy_backend_matches_numba():
    # The same run in a fresh process forced onto the numpy kernels, against
    # the in-process run on this process's _kernels.BACKEND. Without numba
    # both sides are numpy: the test then checks that FRACLAB_BACKEND selects
    # the backend in a fresh process and that a run is reproducible across
    # processes, not numba against numpy.
    code = (
        "import fraclab\n"
        "from fraclab import _kernels\n"
        "from fraclab.exponents import ParamSet\n"
        "from fraclab.fraclap import SpaceGrid\n"
        "from fraclab.fracops import TimeGrid\n"
        "from fraclab.solver import BumpSpec, SimConfig, run\n"
        "p = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)\n"
        "c = SimConfig(p, SpaceGrid(1, 20.0, 128), TimeGrid(10.0, 2000), BumpSpec(8.0, 1.0))\n"
        "r = run(c)\n"
        "print(_kernels.BACKEND)\n"
        "print(fraclab.__file__)\n"
        "print(repr(float(r.blowup_time)), r.trace.values[-1].hex())\n"
    )
    # the child imports the same fraclab source as this process, whether the
    # suite runs from an install or from src/
    src_root = str(Path(fraclab.__file__).parents[1])
    env = dict(os.environ, FRACLAB_BACKEND="numpy")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, f"numpy-backend child failed:\n{out.stderr}"
    backend, child_file, result = out.stdout.splitlines()
    assert backend == "numpy", f"child ran on {backend!r}, not 'numpy':\n{out.stderr}"
    assert Path(child_file).resolve() == Path(fraclab.__file__).resolve(), (
        f"child imported {child_file}, this process {fraclab.__file__}"
    )
    t_star_s, final_hex = result.split()
    r = run(cfg(8.0))
    # numba and numpy differ only in summation order: a few ulps at most;
    # numpy against numpy should agree exactly
    msg = f"{_kernels.BACKEND} in process vs numpy in a fresh process"
    assert np.isclose(float(t_star_s), r.blowup_time, rtol=1e-12, atol=0.0), msg
    assert np.isclose(float.fromhex(final_hex), r.trace.values[-1], rtol=1e-9, atol=0.0), msg
