r"""Separable space-time test functions and their scaling diagnostics.

The blow-up machinery tests the equation against products
``phi(t, x) = phi1(t) * phi2(x)`` where

* ``phi1(t) = (1 - t/T)^eta`` on [0, T] (zero beyond), whose right-sided
  fractional derivatives stay closed-form powers of the same factor,
* ``phi2(x) = psi(|x| / T^{theta/2})`` with ``psi`` the canonical
  mollifier bump :func:`solver.bump_profile`, whose support dilates with
  the horizon through the scaling exponent ``theta = (alpha1+1)/sigma``,
  ``ParamSet.theta``.

The test function's own parameters are ``eta`` and ``T``; the orders,
``theta``, the power and the dimension are the ParamSet's.

This module provides both closed forms and quadrature cross-checks for the
time integrals that drive the contradiction argument, plus a numeric probe
measuring how each term in the resulting bound actually scales with T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fracops
from .errors import NumericsError, ParameterError
from .exponents import ParamSet
from .fraclap import BULK_RADIUS, Field, SpaceGrid, apply_spectral
from .fracops import TimeGrid, TimeSeries
from .solver import bump_profile


def _grid(eta: float, horizon: float, steps: int) -> TimeGrid:
    # TimeGrid refuses a horizon <= 0
    if eta < 2.0:
        raise ParameterError(f"eta must be >= 2, got {eta}")
    return TimeGrid(horizon, steps)


def phi1(eta: float, horizon: float, steps: int) -> TimeSeries:
    """Sample (1 - t/T)^eta on a uniform grid over [0, T]."""
    grid = _grid(eta, horizon, steps)
    tau = grid.nodes() / horizon
    return TimeSeries(grid, (1.0 - tau) ** eta)


def phi1_right_derivative_closed(
    eta: float, horizon: float, theta_d: float, steps: int
) -> TimeSeries:
    """Closed-form right derivative of phi1 of order theta_d.

    Valid for any theta_d with eta - theta_d > -1, including orders above 2
    (those arise from composing derivatives, which is legitimate here since
    phi1 vanishes to order eta at the horizon).
    """
    grid = _grid(eta, horizon, steps)
    return TimeSeries(grid, fracops.power_rule(eta, theta_d, grid.nodes(), side="right",
                                               horizon=horizon))


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
    d = fracops.rl_right_derivative(phi1(eta, horizon, steps), theta_d)
    return float(np.trapezoid(d.values, dx=d.grid.h))


def _check_integrable(eta: float, theta_d: float, p: float) -> float:
    # p' after refusing p <= 1 and eta - p'*theta_d + 1 <= 0, where
    # phi1^{-p'/p} |D^{theta_d} phi1|^{p'} is not integrable at the horizon
    if p <= 1.0:
        raise ParameterError(f"power must exceed 1, got {p}")
    pp = p / (p - 1.0)
    if eta - pp * theta_d + 1.0 <= 0.0:
        raise ParameterError(
            f"need eta - p'*theta_d + 1 > 0, got {eta - pp * theta_d + 1.0}"
        )
    return pp


def lemma3_integral_two(
    eta: float, theta_d: float, p: float, horizon: float
) -> float:
    """Closed form of int_0^T phi1^{-p'/p} |D^{theta_d} phi1|^{p'} dt.

    Equals [Gamma(eta+1)/Gamma(eta+1-theta_d)]^{p'} / (eta - p'*theta_d + 1)
    * T^{1 - p'*theta_d}; requires eta > p'*theta_d - 1 for integrability.
    """
    pp = _check_integrable(eta, theta_d, p)
    coeff = math.gamma(eta + 1.0) / math.gamma(eta + 1.0 - theta_d)
    return coeff**pp / (eta - pp * theta_d + 1.0) * horizon ** (1.0 - pp * theta_d)


def _weighted_power_integral(f: TimeSeries, d: TimeSeries, p: float) -> float:
    # trapezoid of phi1^{-p'/p} |D phi1|^{p'}; zero where phi1 has hit zero
    pp = p / (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(
            f.values > 0.0, f.values ** (-pp / p) * np.abs(d.values) ** pp, 0.0
        )
    return float(np.trapezoid(integrand, dx=f.grid.h))


def lemma3_integral_two_quad(
    eta: float, theta_d: float, p: float, horizon: float, steps: int = 2**14
) -> float:
    """Quadrature cross-check of :func:`lemma3_integral_two` (discrete D)."""
    _check_integrable(eta, theta_d, p)
    f = phi1(eta, horizon, steps)
    return _weighted_power_integral(f, fracops.rl_right_derivative(f, theta_d), p)


def phi2(grid: SpaceGrid, horizon: float, theta: float) -> Field:
    """Spatial factor psi(|x| / T^{theta/2}) on a periodic grid.

    The support (radius twice the scale) must fit inside the box.
    """
    if horizon <= 0.0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    scale = horizon ** (theta / 2.0)
    if 2.0 * scale > grid.half_length:
        raise ParameterError(
            f"support radius {2.0 * scale} exceeds box half-length {grid.half_length}"
        )
    return Field.from_radial(grid, lambda r: bump_profile(r / scale))


# ---------------------------------------------------------------------------
# numeric T-scaling probe for the three terms of the Young-inequality bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingProbeReport:
    """Measured vs predicted T-exponents of the three bound terms.

    Both are in the ParamSet's orders, power p and dimension, with phi2
    dilated by its theta.  Term 1 pairs the full integral of phi2 with the
    highest-order time factor; terms 2 and 3 pair the damping and diffusion
    multipliers of phi2 with their time factors.  Exponents are log2-ratios
    between horizons T and 2T.  The inverse-power spatial integrands of
    terms 2 and 3 are restricted to |xi| <= :data:`fraclap.BULK_RADIUS` (in
    scaled units): like the quotient constant of the bump checks, they are
    unbounded in the limit at the support edge, so only the documented bulk
    is integrated.
    """

    predicted: tuple
    measured: tuple


def _time_factor(eta, theta_d, p, horizon, steps):
    # closed-form derivative, trapezoid in time; valid for theta_d up to eta+1
    return _weighted_power_integral(
        phi1(eta, horizon, steps),
        phi1_right_derivative_closed(eta, horizon, theta_d, steps), p
    )


def _bulk_integral(w2: Field, mult: Field, scale, p):
    # integral of phi2^{-p'/p} |mult|^{p'} over the bulk of the support
    pp = p / (p - 1.0)
    mask = (w2.grid.radius() <= BULK_RADIUS * scale) & (w2.values > 0.0)
    vals = np.zeros_like(w2.values)
    vals[mask] = w2.values[mask] ** (-(pp / p)) * np.abs(mult.values[mask]) ** pp
    return float(vals.sum() * w2.grid.cell_volume)


def scaling_exponent_probe(
    pr: ParamSet, eta: float, horizon: float, steps: int = 2**12
) -> ScalingProbeReport:
    """Measure how the three Young-inequality terms scale in the horizon.

    The orders, the power p and the dimension are the ParamSet's, and
    phi2 dilates with its theta = (alpha1+1)/sigma, the exponent that
    balances the diffusion term against the leading time factor; the first
    and third predicted exponents then coincide.

    Each horizon is evaluated on its own grid, with the box scaled to the
    test-function support and the point count fixed, so the two discrete
    computations are exactly self-similar and the ratio isolates the
    homogeneity degree composed through the operators.  (One box shared by
    both horizons would pick up resolution artifacts in the
    fractional-Laplacian terms, whose integrands steepen toward the bulk
    edge, shifting their measured exponents by a few tenths.)
    """
    alpha1, alpha2, gamma = pr.alpha1, pr.alpha2, pr.gamma
    sigma, delta, p, dim, theta = pr.sigma, pr.delta, pr.p, pr.dim, pr.theta
    pp = pr.p_prime
    half_n = theta * dim / 2.0

    predicted = (
        -pp * (2.0 + alpha1 - gamma) + half_n + 1.0,
        -pp * (theta * delta + 1.0 + alpha2 - gamma) + half_n + 1.0,
        -pp * (theta * sigma + 1.0 - gamma) + half_n + 1.0,
    )

    def terms(t_end):
        scale = t_end ** (theta / 2.0)
        g = SpaceGrid(dim, 2.4 * scale, 1024 if dim == 1 else 256)
        w2 = phi2(g, t_end, theta)
        a_sig = apply_spectral(w2, sigma)
        a_del = apply_spectral(w2, delta)
        t1 = _time_factor(eta, 2.0 + alpha1 - gamma, p, t_end, steps) * w2.integral()
        t2 = (_time_factor(eta, 1.0 + alpha2 - gamma, p, t_end, steps)
              * _bulk_integral(w2, a_del, scale, p))
        t3 = (_time_factor(eta, 1.0 - gamma, p, t_end, steps)
              * _bulk_integral(w2, a_sig, scale, p))
        return (t1, t2, t3)

    lo = terms(horizon)
    hi = terms(2.0 * horizon)
    if any(not (v > 0.0) or not np.isfinite(v) for v in lo + hi):
        raise NumericsError("degenerate or divergent probe integral")
    measured = tuple(math.log2(b / a) for a, b in zip(lo, hi))
    return ScalingProbeReport(predicted, measured)
