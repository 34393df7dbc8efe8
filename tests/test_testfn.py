import math

import numpy as np
import pytest

from dataclasses import replace

from fraclab import fracops
from fraclab.errors import ParameterError
from fraclab.exponents import ParamSet
from fraclab.fraclap import SpaceGrid
from fraclab.solver import bump_profile
from fraclab.testfn import (
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


def test_phi1_profile():
    f = phi1(8.0, 2.0, 64)
    assert f.values[0] == 1.0
    assert f.values[-1] == 0.0
    assert np.all(np.diff(f.values) < 0.0)


def test_phi1_refuses_eta_below_two_and_bad_horizon():
    for make in (lambda eta, T: phi1(eta, T, 64),
                 lambda eta, T: phi1_right_derivative_closed(eta, T, 0.5, 64)):
        with pytest.raises(ParameterError, match="eta must be >= 2"):
            make(1.5, 2.0)
        with pytest.raises(ParameterError, match="horizon must be positive"):
            make(8.0, 0.0)


def test_closed_derivative_matches_discrete():
    closed = phi1_right_derivative_closed(8.0, 1.5, 0.5, 2048)
    disc = fracops.rl_right_derivative(phi1(8.0, 1.5, 2048), 0.5)
    interior = slice(50, -50)
    scale = np.max(np.abs(closed.values[interior]))
    err = np.max(np.abs(closed.values[interior] - disc.values[interior]))
    assert err / scale < 5e-3


def test_closed_derivative_beyond_discrete_range():
    # orders above 2 arise from composition; closed form covers them
    d = phi1_right_derivative_closed(8.0, 1.0, 3.5, 64)
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
    # the quadrature refuses the same inputs with the same messages
    for integral in (lemma3_integral_two, lemma3_integral_two_quad):
        with pytest.raises(ParameterError, match="power must exceed 1"):
            integral(8.0, 0.5, 1.0, 1.0)
        with pytest.raises(ParameterError, match=r"need eta - p'\*theta_d \+ 1 > 0"):
            # eta - p'*theta_d + 1 <= 0: integrand not integrable
            integral(2.0, 1.8, 2.0, 1.0)


def test_phi2_geometry():
    g = SpaceGrid(1, 4.0, 64)
    w = phi2(g, 1.0, 1.5)
    # scale = 1: unit bump, max 1 at the origin
    assert np.isclose(w.sup_norm(), 1.0)
    assert w.values[np.argmin(np.abs(g.axis()))] == 1.0
    with pytest.raises(ParameterError, match="exceeds box half-length"):
        phi2(g, 16.0, 2.0)
    with pytest.raises(ParameterError):
        phi2(g, 0.0, 1.5)


PR = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)  # theta = (0.5+1)/0.5 = 3


def test_scaling_probe_matched_grids_exact():
    rep = scaling_exponent_probe(PR, 8.0, 1.0, steps=2**10)
    assert np.allclose(rep.predicted, (-2.0, -3.8, -2.0), atol=1e-12)
    # matched grids make the two computations exactly self-similar
    assert np.allclose(rep.measured, rep.predicted, atol=1e-9)


def test_scaling_probe_2d():
    rep = scaling_exponent_probe(replace(PR, dim=2), 8.0, 1.0, steps=2**10)
    # half_n = theta*dim/2 = 3: every exponent shifts up by 1.5 from 1-D
    assert np.allclose(rep.predicted, (-0.5, -2.3, -0.5), atol=1e-12)
    assert np.allclose(rep.measured, rep.predicted, atol=1e-9)


def test_scaling_probe_reads_the_power_from_the_param_set():
    rep = scaling_exponent_probe(replace(PR, p=3.0), 8.0, 1.0, steps=2**10)
    # -p'(2+alpha1-gamma) + theta*N/2 + 1 with p' = 3/2
    assert abs(rep.predicted[0] - (-0.875)) <= 1e-12
    assert np.allclose(rep.measured, rep.predicted, atol=1e-9)
