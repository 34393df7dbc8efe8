r"""Separable space-time test functions and their scaling diagnostics.

The blow-up machinery tests the equation against products
``phi(t, x) = phi1(t) * phi2(x)`` where

* ``phi1(t) = (1 - t/T)^eta`` on [0, T] (zero beyond), whose right-sided
  fractional derivatives stay closed-form powers of the same factor,
* ``phi2(x) = psi(|x| / (B^{-1} T^{theta/2}))`` with ``psi`` the canonical
  mollifier bump below, whose support dilates with the horizon through the
  scaling exponent ``theta``.

This module provides both closed forms and quadrature cross-checks for the
time integrals that drive the contradiction argument, plus a numeric probe
measuring how each term in the resulting bound actually scales with T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fracops
from .errors import GridGeometryError, NumericsError, ParameterError
from .fraclap import Field, SpaceGrid, apply_spectral
from .fracops import TimeGrid, TimeSeries


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


def default_eta(p: float, alpha1: float, gamma: float) -> int:
    """Smallest exponent used in practice: max(8, ceil(p'(2+a1-g)) + 2).

    Exceeds the integrability hypothesis eta > p'*theta_max - 1 with margin
    for every derivative order the weak form applies.
    """
    if p <= 1.0:
        raise ParameterError(f"power must exceed 1, got {p}")
    pp = p / (p - 1.0)
    return max(8, math.ceil(pp * (2.0 + alpha1 - gamma)) + 2)


@dataclass(frozen=True)
class TestFunctionParams:
    """Shape parameters of the separable test function.

    ``theta_max``, when given, is the largest derivative order that will be
    applied to phi1; the constructor then enforces the integrability
    hypothesis eta > p/(p-1)*theta_max - 1.  ``b_scale`` shrinks the
    spatial support (values above 1 are the near-critical refinement and
    must stay below the horizon).
    """

    eta: float
    horizon: float
    theta: float
    p: float
    b_scale: float = 1.0
    theta_max: float | None = None

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.p <= 1.0:
            raise ParameterError(f"power must exceed 1, got {self.p}")
        if self.eta < 2.0:
            raise ParameterError(f"eta must be >= 2, got {self.eta}")
        if self.theta < 0.0:
            raise ParameterError(f"theta must be >= 0, got {self.theta}")
        if self.b_scale < 1.0 or (self.b_scale != 1.0 and self.b_scale >= self.horizon):
            raise ParameterError(
                f"b_scale must be 1 or lie in [1, horizon), got {self.b_scale}"
            )
        if self.theta_max is not None:
            pp = self.p / (self.p - 1.0)
            if self.eta <= pp * self.theta_max - 1.0:
                raise ParameterError(
                    f"eta={self.eta} violates eta > p'(theta_max) - 1 "
                    f"= {pp * self.theta_max - 1.0}"
                )

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)


def phi1(params: TestFunctionParams, steps: int) -> TimeSeries:
    """Sample (1 - t/T)^eta on a uniform grid over [0, T]."""
    grid = TimeGrid(params.horizon, steps)
    tau = grid.nodes() / params.horizon
    return TimeSeries(grid, (1.0 - tau) ** params.eta)


def phi1_right_derivative_closed(
    params: TestFunctionParams, theta_d: float, steps: int
) -> TimeSeries:
    """Closed-form right derivative of phi1 of order theta_d.

    Valid for any theta_d with eta - theta_d > -1, including orders above 2
    (those arise from composing derivatives, which is legitimate here since
    phi1 vanishes to order eta at the horizon).
    """
    rule = fracops.power_rule(params.eta, theta_d, side="right", horizon=params.horizon)
    grid = TimeGrid(params.horizon, steps)
    return TimeSeries(grid, rule(grid.nodes()))


# ---------------------------------------------------------------------------
# the two time integrals of the contradiction argument
# ---------------------------------------------------------------------------

def lemma3_integral_one(eta: float, theta_d: float, horizon: float) -> float:
    """Closed form of int_0^T D^{theta_d} phi1 dt.

    Equals Gamma(eta+1)/(Gamma(eta+1-theta_d)*(eta-theta_d+1)) * T^{1-theta_d}.
    """
    if eta - theta_d + 1.0 <= 0.0:
        raise ParameterError(
            f"need eta - theta_d + 1 > 0, got {eta - theta_d + 1.0}"
        )
    coeff = math.gamma(eta + 1.0) / math.gamma(eta + 1.0 - theta_d)
    return coeff / (eta - theta_d + 1.0) * horizon ** (1.0 - theta_d)


def lemma3_integral_one_quad(
    eta: float, theta_d: float, horizon: float, steps: int = 2**14
) -> float:
    """Quadrature cross-check of :func:`lemma3_integral_one`.

    Differentiates the sampled phi1 with the discrete right derivative and
    integrates by the trapezoid rule; theta_d restricted to (0,2)\\{1} by
    the discrete operator.
    """
    params = TestFunctionParams(eta, horizon, 0.0, p=2.0)
    d = fracops.rl_right_derivative(phi1(params, steps), theta_d)
    return float(np.trapezoid(d.values, dx=d.grid.h))


def lemma3_integral_two(
    eta: float, theta_d: float, p: float, horizon: float
) -> float:
    """Closed form of int_0^T phi1^{-p'/p} |D^{theta_d} phi1|^{p'} dt.

    Equals [Gamma(eta+1)/Gamma(eta+1-theta_d)]^{p'} / (eta - p'*theta_d + 1)
    * T^{1 - p'*theta_d}; requires eta > p'*theta_d - 1 for integrability.
    """
    if p <= 1.0:
        raise ParameterError(f"power must exceed 1, got {p}")
    pp = p / (p - 1.0)
    if eta - pp * theta_d + 1.0 <= 0.0:
        raise ParameterError(
            f"need eta - p'*theta_d + 1 > 0, got {eta - pp * theta_d + 1.0}"
        )
    coeff = math.gamma(eta + 1.0) / math.gamma(eta + 1.0 - theta_d)
    return coeff**pp / (eta - pp * theta_d + 1.0) * horizon ** (1.0 - pp * theta_d)


def _weighted_power_integral(phi_vals, d_vals, pp_over_p, pp, h):
    # integrand phi1^{-p'/p} |D phi1|^{p'}; zero where phi1 has hit zero
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(
            phi_vals > 0.0, phi_vals ** (-pp_over_p) * np.abs(d_vals) ** pp, 0.0
        )
    return float(np.trapezoid(integrand, dx=h))


def lemma3_integral_two_quad(
    eta: float, theta_d: float, p: float, horizon: float, steps: int = 2**14
) -> float:
    """Quadrature cross-check of :func:`lemma3_integral_two` (discrete D)."""
    if p <= 1.0:
        raise ParameterError(f"power must exceed 1, got {p}")
    pp = p / (p - 1.0)
    if eta - pp * theta_d + 1.0 <= 0.0:
        raise ParameterError("integral diverges for these exponents")
    params = TestFunctionParams(eta, horizon, 0.0, p=p)
    f = phi1(params, steps)
    d = fracops.rl_right_derivative(f, theta_d)
    return _weighted_power_integral(f.values, d.values, pp / p, pp, f.grid.h)


def phi2(grid: SpaceGrid, horizon: float, theta: float, b_scale: float = 1.0) -> Field:
    """Spatial factor psi(|x| / (B^{-1} T^{theta/2})) on a periodic grid.

    The support (radius twice the scale) must fit inside the box.
    """
    if horizon <= 0.0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    if b_scale < 1.0:
        raise ParameterError(f"b_scale must be >= 1, got {b_scale}")
    scale = horizon ** (theta / 2.0) / b_scale
    if 2.0 * scale > grid.half_length:
        raise GridGeometryError(
            f"support radius {2.0 * scale} exceeds box half-length {grid.half_length}"
        )
    return Field.from_radial(grid, lambda r: bump_profile(r / scale))


# ---------------------------------------------------------------------------
# numeric T-scaling probe for the three terms of the Young-inequality bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingProbeReport:
    """Measured vs predicted T-exponents of the three bound terms.

    Term 1 pairs the full integral of phi2 with the highest-order time
    factor; terms 2 and 3 pair the damping and diffusion multipliers of
    phi2 with their time factors.  Exponents are log2-ratios between
    horizons T and 2T.  The inverse-power spatial integrands of terms 2
    and 3 are restricted to |xi| <= bulk_radius (in scaled units): like the
    quotient constant of the bump checks, they are unbounded in the limit
    at the support edge, so only the documented bulk is integrated.
    """

    horizon: float
    predicted: tuple
    measured: tuple
    terms_lo: tuple
    terms_hi: tuple
    bulk_radius: float


def _time_factor(eta, theta_d, p, horizon, steps):
    # closed-form integrand, trapezoid in time; valid for theta_d up to eta+1
    params = TestFunctionParams(eta, horizon, 0.0, p=p)
    f = phi1(params, steps)
    d = phi1_right_derivative_closed(params, theta_d, steps)
    pp = p / (p - 1.0)
    return _weighted_power_integral(f.values, d.values, pp / p, pp, f.grid.h)


def _bulk_integral(w2: Field, mult: Field, scale, bulk_radius, pp_over_p, pp):
    mask = (w2.grid.radius() <= bulk_radius * scale) & (w2.values > 0.0)
    vals = np.zeros_like(w2.values)
    vals[mask] = w2.values[mask] ** (-pp_over_p) * np.abs(mult.values[mask]) ** pp
    return float(vals.sum() * w2.grid.cell_volume)


def scaling_exponent_probe(
    params: TestFunctionParams,
    alpha1: float,
    alpha2: float,
    gamma: float,
    sigma: float,
    delta: float,
    p: float,
    dim: int = 1,
    grid: SpaceGrid | None = None,
    steps: int = 2**12,
    bulk_radius: float = 1.75,
) -> ScalingProbeReport:
    """Measure how the three Young-inequality terms scale in the horizon.

    Requires params.theta = (alpha1+1)/sigma, the exponent that balances
    the diffusion term against the leading time factor; the first and
    third predicted exponents then coincide.

    By default each horizon is evaluated on its own grid, with the box
    scaled to the test-function support and the point count fixed, so the
    two discrete computations are exactly self-similar and the ratio
    isolates the homogeneity degree composed through the operators.
    Passing an explicit ``grid`` forces a shared box; that variant picks
    up resolution artifacts in the fractional-Laplacian terms (the terms
    whose integrands steepen toward the bulk edge), shifting their
    measured exponents by a few tenths at default resolutions.
    """
    theta = (alpha1 + 1.0) / sigma
    if abs(params.theta - theta) > 1e-12:
        raise ParameterError(
            f"probe requires theta = (alpha1+1)/sigma = {theta}, got {params.theta}"
        )
    pp = p / (p - 1.0)
    eta = params.eta
    t_lo = params.horizon
    t_hi = 2.0 * params.horizon
    half_n = theta * dim / 2.0

    predicted = (
        -pp * (2.0 + alpha1 - gamma) + half_n + 1.0,
        -pp * (theta * delta + 1.0 + alpha2 - gamma) + half_n + 1.0,
        -pp * (theta * sigma + 1.0 - gamma) + half_n + 1.0,
    )

    def probe_grid(horizon):
        if grid is not None:
            return grid
        scale = horizon ** (theta / 2.0) / params.b_scale
        points = 1024 if dim == 1 else 256
        return SpaceGrid(dim, 2.4 * scale, points)

    def terms(horizon):
        scale = horizon ** (theta / 2.0) / params.b_scale
        g = probe_grid(horizon)
        w2 = phi2(g, horizon, theta, params.b_scale)
        a_sig = apply_spectral(w2, sigma)
        a_del = apply_spectral(w2, delta)
        t1 = _time_factor(eta, 2.0 + alpha1 - gamma, p, horizon, steps) * w2.integral()
        t2 = _time_factor(eta, 1.0 + alpha2 - gamma, p, horizon, steps) * _bulk_integral(
            w2, a_del, scale, bulk_radius, pp / p, pp
        )
        t3 = _time_factor(eta, 1.0 - gamma, p, horizon, steps) * _bulk_integral(
            w2, a_sig, scale, bulk_radius, pp / p, pp
        )
        return (t1, t2, t3)

    lo = terms(t_lo)
    hi = terms(t_hi)
    if any(not (v > 0.0) or not np.isfinite(v) for v in lo + hi):
        raise NumericsError("degenerate or divergent probe integral")
    measured = tuple(math.log2(b / a) for a, b in zip(lo, hi))
    return ScalingProbeReport(
        t_lo, predicted, measured, lo, hi, float(bulk_radius)
    )
