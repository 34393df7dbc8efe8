import math

import numpy as np
import pytest

from fraclab import fracops, testfn
from fraclab.errors import GridGeometryError, ParameterError
from fraclab.fraclap import SpaceGrid
from fraclab.testfn import (
    TestFunctionParams,
    bump_profile,
    default_eta,
    lemma3_integral_one,
    lemma3_integral_one_quad,
    lemma3_integral_two,
    lemma3_integral_two_quad,
    phi1,
    phi1_right_derivative_closed,
    phi2,
    scaling_exponent_probe,
)


def test_bump_profile_shape():
    assert bump_profile(0.0) == 1.0
    assert bump_profile(2.0) == 0.0
    assert bump_profile(5.0) == 0.0
    r = np.linspace(0.0, 1.99, 200)
    v = bump_profile(r)
    assert np.all(np.diff(v) < 0.0)
    # even in r
    assert np.allclose(bump_profile(-r), v)


def test_default_eta():
    assert default_eta(2.0, 0.5, 0.25) == 8
    assert default_eta(1.1, 0.5, 0.25) == 27
    with pytest.raises(ParameterError):
        default_eta(1.0, 0.5, 0.25)


def test_params_validation():
    ok = TestFunctionParams(8.0, 2.0, 3.0, p=2.0)
    assert ok.p_prime == 2.0
    with pytest.raises(ParameterError):
        TestFunctionParams(8.0, 0.0, 3.0, p=2.0)
    with pytest.raises(ParameterError):
        TestFunctionParams(8.0, 2.0, 3.0, p=1.0)
    with pytest.raises(ParameterError):
        TestFunctionParams(1.5, 2.0, 3.0, p=2.0)
    with pytest.raises(ParameterError):
        TestFunctionParams(8.0, 2.0, -0.1, p=2.0)
    with pytest.raises(ParameterError):
        TestFunctionParams(8.0, 2.0, 3.0, p=2.0, b_scale=0.5)
    with pytest.raises(ParameterError):
        # refinement scale must stay below the horizon
        TestFunctionParams(8.0, 1.5, 3.0, p=2.0, b_scale=2.0)
    with pytest.raises(ParameterError):
        # eta <= p'(theta_max) - 1
        TestFunctionParams(2.0, 2.0, 3.0, p=2.0, theta_max=2.0)


def test_phi1_profile():
    params = TestFunctionParams(8.0, 2.0, 0.0, p=2.0)
    f = phi1(params, 64)
    assert f.values[0] == 1.0
    assert f.values[-1] == 0.0
    assert np.all(np.diff(f.values) < 0.0)


def test_closed_derivative_matches_discrete():
    params = TestFunctionParams(8.0, 1.5, 0.0, p=2.0)
    closed = phi1_right_derivative_closed(params, 0.5, 2048)
    disc = fracops.rl_right_derivative(phi1(params, 2048), 0.5)
    interior = slice(50, -50)
    scale = np.max(np.abs(closed.values[interior]))
    err = np.max(np.abs(closed.values[interior] - disc.values[interior]))
    assert err / scale < 5e-3


def test_closed_derivative_beyond_discrete_range():
    # orders above 2 arise from composition; closed form covers them
    params = TestFunctionParams(8.0, 1.0, 0.0, p=2.0)
    d = phi1_right_derivative_closed(params, 3.5, 64)
    coeff = math.gamma(9.0) / math.gamma(5.5)
    assert np.isclose(d.values[0], coeff)
    assert d.values[-1] == 0.0


def test_lemma3_integral_one():
    for eta, theta_d in ((8.0, 0.5), (10.0, 1.3)):
        closed = lemma3_integral_one(eta, theta_d, 2.0)
        quad = lemma3_integral_one_quad(eta, theta_d, 2.0)
        assert abs(closed - quad) / abs(closed) < 1e-2
    # theta_d = 0 degenerates to the plain integral of phi1
    assert np.isclose(lemma3_integral_one(8.0, 0.0, 3.0), 3.0 / 9.0)
    with pytest.raises(ParameterError):
        lemma3_integral_one(2.0, 3.5, 1.0)


def test_lemma3_integral_two():
    for eta, theta_d, p in ((8.0, 0.5, 2.0), (10.0, 1.3, 3.0)):
        closed = lemma3_integral_two(eta, theta_d, p, 1.5)
        quad = lemma3_integral_two_quad(eta, theta_d, p, 1.5)
        assert abs(closed - quad) / abs(closed) < 1e-2
    with pytest.raises(ParameterError):
        lemma3_integral_two(8.0, 0.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        # eta - p'*theta_d + 1 <= 0: integrand not integrable
        lemma3_integral_two(2.0, 1.8, 2.0, 1.0)


def test_phi2_geometry():
    g = SpaceGrid(1, 4.0, 64)
    w = phi2(g, 1.0, 1.5)
    # scale = 1: unit bump, max 1 at the origin
    assert np.isclose(w.sup_norm(), 1.0)
    assert w.values[np.argmin(np.abs(g.axis()))] == 1.0
    with pytest.raises(GridGeometryError):
        phi2(g, 16.0, 2.0)
    with pytest.raises(ParameterError):
        phi2(g, 0.0, 1.5)
    with pytest.raises(ParameterError):
        phi2(g, 1.0, 1.5, b_scale=0.5)


def test_phi2_b_scale_shrinks_support():
    g = SpaceGrid(1, 4.0, 256)
    wide = phi2(g, 1.0, 1.5)
    narrow = phi2(g, 1.0, 1.5, b_scale=2.0)
    x = np.abs(g.axis())
    assert np.all(narrow.values[x > 1.0] == 0.0)
    assert np.any(wide.values[x > 1.0] > 0.0)


PROBE = dict(alpha1=0.5, alpha2=0.3, gamma=0.25, sigma=0.5, delta=0.7, p=2.0)


def test_scaling_probe_matched_grids_exact():
    params = TestFunctionParams(8.0, 1.0, 3.0, p=2.0)
    rep = scaling_exponent_probe(params, dim=1, steps=2**10, **PROBE)
    assert np.allclose(rep.predicted, (-2.0, -3.8, -2.0), atol=1e-12)
    # matched grids make the two computations exactly self-similar
    assert np.allclose(rep.measured, rep.predicted, atol=1e-9)


def test_scaling_probe_2d():
    params = TestFunctionParams(8.0, 1.0, 3.0, p=2.0)
    rep = scaling_exponent_probe(params, dim=2, steps=2**10, **PROBE)
    # half_n = theta*dim/2 = 3: every exponent shifts up by 1.5 from 1-D
    assert np.allclose(rep.predicted, (-0.5, -2.3, -0.5), atol=1e-12)
    assert np.allclose(rep.measured, rep.predicted, atol=1e-9)


def test_scaling_probe_shared_grid_artifacts():
    params = TestFunctionParams(8.0, 1.0, 3.0, p=2.0)
    g = SpaceGrid(1, 16.0, 1024)
    rep = scaling_exponent_probe(params, dim=1, grid=g, steps=2**10, **PROBE)
    # term 1 has no inverse-power integrand and stays clean
    assert abs(rep.measured[0] - rep.predicted[0]) < 0.05
    assert all(np.isfinite(rep.measured))


def test_scaling_probe_theta_mismatch():
    params = TestFunctionParams(8.0, 1.0, 2.9, p=2.0)
    with pytest.raises(ParameterError):
        scaling_exponent_probe(params, **PROBE)
