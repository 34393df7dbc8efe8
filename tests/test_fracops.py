import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import _kernels, fracops
from fraclab.errors import OrderError, ParameterError, SingularityError
from fraclab.fracops import TimeGrid, TimeSeries


def series(fn, n=256, horizon=1.0):
    return TimeSeries.from_callable(TimeGrid(horizon, n), fn)


def test_time_grid_invariants():
    g = TimeGrid(2.0, 8)
    assert g.h == 0.25
    assert g.node_count == 9
    assert np.isclose(g.nodes()[-1], 2.0)
    assert g.coarsened(4).steps == 2
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 8)
    with pytest.raises(ParameterError):
        TimeGrid(1.0, 1)
    with pytest.raises(ParameterError):
        g.coarsened(3)


def test_time_series_validation():
    g = TimeGrid(1.0, 4)
    with pytest.raises(ParameterError):
        TimeSeries(g, np.zeros(4))
    with pytest.raises(ParameterError):
        TimeSeries(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
    # flagged series may carry non-finite entries
    s = TimeSeries(g, np.array([np.inf, 1.0, 1.0, 1.0, 1.0]), diverged=True)
    assert s.diverged


def test_reflection_is_involution():
    f = series(lambda t: t**3 - t)
    assert np.array_equal(f.reflected().reflected().values, f.values)


def test_l1_weights_telescope():
    b = fracops.l1_weights(0.4, 50)
    # partial sums telescope to (m+1)^(1-alpha)
    assert np.allclose(np.cumsum(b), (np.arange(50) + 1.0) ** 0.6)
    assert b[0] == 1.0


def test_rect_weights_telescope():
    w = fracops.rect_weights(0.7, 50)
    assert w[0] == 0.0
    assert np.allclose(np.cumsum(w), np.arange(50, dtype=float) ** 0.7)


def direct_conv(w, v, nout):
    """The direct O(n^2) sum out[j] = sum_m w[m] v[j-m], truncated to ``nout``."""
    full = np.convolve(w, v)
    out = np.zeros(nout)
    m = min(nout, full.shape[0])
    out[:m] = full[:m]
    return out


@settings(max_examples=60, deadline=None)
@given(
    nw=st.integers(1, 5000),
    nv=st.integers(1, 5000),
    # None: shorter than the full convolution; else full length plus this
    extra=st.sampled_from([None, 0, 1, 131]),
    frac=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_causal_conv_matches_direct_sum(nw, nv, extra, frac, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(nw)
    v = rng.standard_normal(nv)
    full = nw + nv - 1
    nout = max(1, int(frac * full)) if extra is None else full + extra
    got = _kernels.causal_conv(w, v, nout)
    want = direct_conv(w, v, nout)
    assert got.shape == (nout,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(got[full:] == 0.0)


def test_zero_prefix_stays_exactly_zero():
    # a plain FFT convolution leaves ~1e-17 where the past is all zero, and
    # fractional powers of those values downstream turn into NaN
    rng = np.random.default_rng(3)
    for n, k in ((100, 37), (1000, 64), (4097, 1500)):
        v = rng.standard_normal(n)
        v[:k] = 0.0
        out = _kernels.causal_conv(rng.standard_normal(n), v, n)
        assert np.all(out[:k] == 0.0)
        assert np.all(out[k:k + 5] != 0.0)
    f = series(lambda t: np.maximum(t - 0.3, 0.0) ** 2, 4096)
    quiet = f.grid.nodes() <= 0.3
    for out in (fracops.rl_integral(f, 0.4), fracops.caputo_left(f, 0.6)):
        assert np.all(out.values[quiet] == 0.0)
        assert np.all(out.values[~quiet] > 0.0)


def test_integral_of_one_is_power():
    # I^mu 1 = t^mu / Gamma(mu+1), exact for the product-rectangle rule
    f = series(lambda t: np.ones_like(t))
    for mu in (0.3, 0.75, 1.0):
        out = fracops.rl_integral(f, mu)
        t = f.grid.nodes()
        assert np.allclose(out.values, t**mu / math.gamma(mu + 1.0), atol=1e-12)


def test_integral_order_one_is_trapezoid():
    f = series(lambda t: np.sin(t))
    out = fracops.rl_integral(f, 1.0)
    t = f.grid.nodes()
    h = f.grid.h
    ref = np.concatenate(
        [[0.0], np.cumsum(0.5 * h * (np.sin(t[:-1]) + np.sin(t[1:])))]
    )
    assert np.allclose(out.values, ref, atol=1e-13)


def test_integral_power_rule_convergence():
    errs = []
    for n in (128, 256, 512):
        f = series(lambda t: t**2, n)
        out = fracops.rl_integral(f, 0.5)
        exact = math.gamma(3.0) / math.gamma(3.5) * f.grid.nodes() ** 2.5
        errs.append(np.max(np.abs(out.values - exact)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-4


def test_caputo_kills_constants():
    f = series(lambda t: 7.5 * np.ones_like(t))
    out = fracops.caputo_left(f, 0.5)
    assert np.array_equal(out.values, np.zeros(f.grid.node_count))


def test_caputo_power_rule():
    # D^0.5 t^2 = Gamma(3)/Gamma(2.5) t^1.5
    f = series(lambda t: t**2, 2048)
    out = fracops.caputo_left(f, 0.5)
    t = f.grid.nodes()
    exact = math.gamma(3.0) / math.gamma(2.5) * t**1.5
    assert np.max(np.abs(out.values - exact)) < 2e-4
    assert np.isclose(math.gamma(3.0) / math.gamma(2.5), 1.50450555612735)


def test_rl_equals_caputo_plus_singular():
    f = series(lambda t: 1.0 + t**2, 512)
    rl = fracops.rl_left_derivative(f, 0.5)
    assert rl.diverged  # t^{-1/2} at node 0
    cap = fracops.caputo_left(f, 0.5)
    t = f.grid.nodes()[1:]
    sing = 1.0 * t ** (-0.5) / math.gamma(0.5)
    assert np.allclose(rl.values[1:], cap.values[1:] + sing)


def test_rl_derivative_order_bounds():
    f = series(lambda t: t)
    for bad in (0.0, 1.0, 2.0, 2.3):
        with pytest.raises(OrderError):
            fracops.rl_left_derivative(f, bad)


def test_rl_derivative_high_order_power_rule():
    # D^1.5 t^2 = Gamma(3)/Gamma(1.5) t^0.5
    f = series(lambda t: t**2, 4096)
    out = fracops.rl_left_derivative(f, 1.5)
    t = f.grid.nodes()
    exact = math.gamma(3.0) / math.gamma(1.5) * t**0.5
    interior = slice(8, -8)
    assert np.max(np.abs(out.values[interior] - exact[interior])) < 5e-3


def test_right_derivative_spec_value():
    # right derivative of (1 - t), order 0.5: magnitude 1/Gamma(1.5) at t=0
    f = series(lambda t: 1.0 - t, 4096)
    out = fracops.rl_right_derivative(f, 0.5)
    assert np.isclose(out.values[0], 1.1283791670955126, rtol=1e-6)


def test_right_matches_reflected_power_rule():
    rule = fracops.power_rule(4.0, 0.7, side="right", horizon=2.0)
    f = series(lambda t: (1.0 - t / 2.0) ** 4, 4096, horizon=2.0)
    out = fracops.rl_right_derivative(f, 0.7)
    t = f.grid.nodes()
    exact = rule(t)
    interior = slice(100, -100)
    scale = np.max(np.abs(exact[interior]))
    assert np.max(np.abs(out.values[interior] - exact[interior])) / scale < 1e-3


def test_caputo_right_equals_rl_right_for_vanishing_terminal():
    f = series(lambda t: (1.0 - t) ** 3, 128)
    a = fracops.caputo_right(f, 0.4)
    b = fracops.rl_right_derivative(f, 0.4)
    assert np.array_equal(a.values, b.values)


def test_power_rule_identity_and_integer_cases():
    r0 = fracops.power_rule(3.0, 0.0)
    assert r0.coefficient == 1.0 and r0.exponent == 3.0
    r1 = fracops.power_rule(3.0, 1.0)
    t = np.linspace(0.0, 1.0, 11)
    assert np.allclose(r1(t), 3.0 * t**2)


def test_power_rule_rejections():
    with pytest.raises(SingularityError):
        fracops.power_rule(0.2, 1.5)
    with pytest.raises(ParameterError):
        fracops.power_rule(-1.0, 0.5)
    with pytest.raises(OrderError):
        fracops.power_rule(1.0, -0.5)
    with pytest.raises(ParameterError):
        fracops.power_rule(1.0, 0.5, side="up")


def test_operators_reject_diverged_input():
    g = TimeGrid(1.0, 4)
    s = TimeSeries(g, np.array([np.inf, 1.0, 1.0, 1.0, 1.0]), diverged=True)
    with pytest.raises(ParameterError):
        fracops.rl_integral(s, 0.5)
    with pytest.raises(ParameterError):
        fracops.caputo_left(s, 0.5)
