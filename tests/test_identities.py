import math
from dataclasses import replace

import numpy as np
import pytest

from fraclab import identities
from fraclab.errors import ParameterError
from fraclab.exponents import ParamSet
from fraclab.fraclap import Field, SpaceGrid
from fraclab.fracops import TimeGrid, TimeSeries
from fraclab.identities import (
    check_composition_derivs,
    check_composition_int,
    check_ibp,
    weak_form_residual,
)


def mk(fn, n=512):
    return TimeSeries.from_callable(TimeGrid(1.0, n), fn)


def vanishing(n=512):
    return mk(lambda t: (1.0 + t) * (1.0 - t) ** 8, n)


def test_ibp_smooth_is_exact():
    # discrete left/right pair is adjoint under trapezoid quadrature
    rep = check_ibp(mk(lambda t: t**2), mk(lambda t: (1.0 - t) ** 4), 0.5)
    assert rep.name == "integration-by-parts"
    assert max(rep.residuals) < 1e-12
    assert rep.sizes == (128, 256, 512)


def test_ibp_exact_even_on_rough_data(rng):
    # adjointness is a property of the weights, not of smoothness
    grid = TimeGrid(1.0, 64)
    fv = rng.normal(size=65)
    gv = rng.normal(size=65)
    gv[-1] = 0.0
    rep = check_ibp(TimeSeries(grid, fv), TimeSeries(grid, gv), 0.73)
    assert max(rep.residuals) < 1e-12


def test_ibp_constant_reports_zero():
    rep = check_ibp(mk(lambda t: np.full_like(t, 3.0)), mk(lambda t: 1.0 - t), 0.4)
    assert rep.residuals == (0.0, 0.0, 0.0)
    assert rep.slope == np.inf
    assert rep.final_residual == 0.0


def test_ibp_hypotheses():
    f = mk(lambda t: t)
    with pytest.raises(ParameterError, match="g must vanish at the horizon"):
        check_ibp(f, mk(lambda t: 1.0 + t), 0.5)
    with pytest.raises(ParameterError):
        check_ibp(f, TimeSeries.from_callable(TimeGrid(2.0, 512), lambda t: 2.0 - t), 0.5)
    with pytest.raises(ParameterError):
        # ladder needs a step count divisible by 4
        check_ibp(mk(lambda t: t, 30), mk(lambda t: 1.0 - t, 30), 0.5)


def test_composition_int_residuals_converge():
    f = vanishing()
    for p_ord, q_ord, cap in ((0.5, 0.5, 3e-3), (1.5, 0.5, 3e-3), (2.0, 1.0, 1e-4)):
        rep = check_composition_int(f, p_ord, q_ord)
        assert rep.residuals[0] > rep.residuals[1] > rep.residuals[2]
        assert rep.final_residual < cap
        assert rep.slope > 1.0


def test_composition_int_fractional_residual_needs_vanishing_f():
    rep = check_composition_int(vanishing(), 0.9, 0.5)
    assert rep.final_residual < 1e-2
    assert rep.slope > 0.9
    with pytest.raises(ParameterError, match="f must vanish at the horizon"):
        check_composition_int(mk(np.sin), 0.9, 0.5)


def test_composition_int_validation():
    f = vanishing()
    with pytest.raises(ParameterError, match=r"integral order must lie in \(0,1\], got 1.2"):
        check_composition_int(f, 1.5, 1.2)
    with pytest.raises(ParameterError):
        check_composition_int(f, 2.5, 0.8)
    for p_ord, q_ord in ((0.3, 0.5), (math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ParameterError, match="need p_ord >= q_ord"):
            check_composition_int(f, p_ord, q_ord)


def test_composition_derivs_residuals_converge():
    rep = check_composition_derivs(vanishing(), 0.7, 0.6)
    assert rep.name == "composition-two-derivatives"
    assert rep.residuals[0] > rep.residuals[1] > rep.residuals[2]
    assert rep.final_residual < 2e-3
    assert rep.slope > 1.0


def test_composition_derivs_identity_case():
    rep = check_composition_derivs(vanishing(), 0.0, 0.6)
    assert rep.residuals == (0.0, 0.0, 0.0)


def test_composition_derivs_hypotheses():
    with pytest.raises(ParameterError, match="f must vanish to high order"):
        check_composition_derivs(mk(np.cos), 0.7, 0.6)
    f = vanishing()
    with pytest.raises(ParameterError):
        check_composition_derivs(f, 1.5, 0.6)
    with pytest.raises(ParameterError):
        check_composition_derivs(f, 0.5, 0.0)


PARAMS = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)
ETA, HORIZON = 8.0, 1.0


def snapshot_row(grid, count, horizon):
    h = horizon / count
    zero = Field(grid, np.zeros(grid.shape()))
    return [(h * j, zero) for j in range(count + 1)]


def test_weak_form_validation():
    g = SpaceGrid(1, 4.0, 16)
    u1 = Field(g, np.zeros(16))
    with pytest.raises(ParameterError):
        weak_form_residual(snapshot_row(g, 1, HORIZON), PARAMS, ETA, HORIZON, u1)
    other = SpaceGrid(1, 2.0, 16)
    with pytest.raises(ParameterError, match="must share one grid"):
        weak_form_residual(snapshot_row(g, 4, HORIZON), PARAMS, ETA, HORIZON, Field(other, np.zeros(16)))
    rows = snapshot_row(g, 4, HORIZON)
    rows[2] = (rows[2][0] * 1.5, rows[2][1])
    with pytest.raises(ParameterError, match=r"must uniformly cover \[0, horizon\]"):
        weak_form_residual(rows, PARAMS, ETA, HORIZON, u1)


def test_weak_form_refuses_eta_not_integrable_at_the_param_set_power():
    # order 2+alpha1-gamma = 2.25 and p' = 2: eta = 3 gives 3 - 4.5 + 1 <= 0
    g = SpaceGrid(1, 4.0, 16)
    u1 = Field(g, np.zeros(16))
    with pytest.raises(ParameterError, match=r"need eta - p'\*theta_d \+ 1 > 0"):
        weak_form_residual(snapshot_row(g, 8, HORIZON), PARAMS, 3.0, HORIZON, u1)
    # at p = 3 (p' = 3/2) the same eta is integrable: 3 - 3.375 + 1 > 0
    rows = snapshot_row(g, 8, HORIZON)
    assert weak_form_residual(rows, replace(PARAMS, p=3.0), 3.0, HORIZON, u1) == 0.0


def test_weak_form_zero_solution_zero_velocity():
    # all-zero snapshots with zero velocity: both sides vanish identically
    g = SpaceGrid(1, 4.0, 16)
    u1 = Field(g, np.zeros(16))
    assert weak_form_residual(snapshot_row(g, 8, HORIZON), PARAMS, ETA, HORIZON, u1) == 0.0
