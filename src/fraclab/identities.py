r"""Residual certification of the operator identities the analysis rests on.

Three families of checks, each reported at a ladder of grid sizes with a
convergence slope:

* integration by parts: int g * D^a_{0|t} f = int (f - f(0)) * D^a_{t|T} g
  for g vanishing at the horizon,
* composition of a right derivative with a right integral,
  D^p (I^q f) = D^{p-q} f,
* composition of two right derivatives, D^p (D^q f) = D^{p+q} f, certified
  only when f vanishes to high order at the horizon (the regime with no
  boundary terms; coefficients of the general boundary sums are not
  certified here).

plus the space-time residual of the weak formulation against simulator
output.  Residuals are relative to the larger side's magnitude, floored at
1e-30 to keep exact identities at residual zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fracops, testfn
from .errors import ParameterError
from .exponents import ParamSet
from .fraclap import Field, apply_spectral
from .fracops import TimeGrid, TimeSeries

FLOOR = 1e-30


@dataclass(frozen=True)
class ResidualReport:
    """Max relative residual of one identity across a ladder of grid sizes.

    ``slope`` is the fitted log2 decay rate of the residual as the step
    count doubles (positive means the residual shrinks under refinement);
    infinite when the identity holds exactly at every size.
    """

    name: str
    sizes: tuple
    residuals: tuple
    slope: float

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def _slope(sizes, residuals) -> float:
    if any(r <= 0.0 for r in residuals):
        return math.inf
    fit = np.polyfit(np.log2(sizes), np.log2(residuals), 1)
    return float(-fit[0])


def _relative(lhs: np.ndarray, rhs: np.ndarray) -> float:
    denom = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), FLOOR)
    return float(np.max(np.abs(lhs - rhs)) / denom)


def _on_ladder(name: str, f: TimeSeries, residual_at_factor) -> ResidualReport:
    # the input grid is the finest level; coarser levels subsample it by
    # the factor handed to residual_at_factor
    n = f.grid.steps
    if n % 4:
        raise ParameterError(f"step count must be divisible by 4, got {n}")
    sizes = (n // 4, n // 2, n)
    residuals = tuple(residual_at_factor(factor) for factor in (4, 2, 1))
    return ResidualReport(name, sizes, residuals, _slope(sizes, residuals))


def _right_classical(f: TimeSeries, order: int) -> TimeSeries:
    # right-sided integer derivative carries the sign (-1)^order
    v = f.values
    h = f.grid.h
    if order == 1:
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        out = -out
    elif order == 2:
        out = fracops._second_difference(v, h * h)
    else:
        raise ParameterError(f"classical right derivative supports order 1 or 2, got {order}")
    return TimeSeries(f.grid, out)


def _apply_right(f: TimeSeries, order: float) -> TimeSeries:
    if order == 0.0:
        return f
    if abs(order - round(order)) < 1e-12:
        return _right_classical(f, int(round(order)))
    return fracops.rl_right_derivative(f, order)


def check_ibp(f: TimeSeries, g: TimeSeries, alpha) -> ResidualReport:
    """Residual of the fractional integration-by-parts formula.

    The discrete left derivative and the reflected right derivative are
    exact adjoints under trapezoid quadrature whenever g vanishes at the
    horizon (checked on random rough data to 1e-14), so the residual here
    measures accumulated roundoff, not discretization error.  Both sides
    vanish identically for constant f (the left derivative kills
    constants and f - f(0) is zero), so that case reports residual
    exactly 0 at every size.
    """
    if f.grid != g.grid:
        raise ParameterError("f and g must share a grid")
    if g.values[-1] != 0.0:
        raise ParameterError("g must vanish at the horizon")
    alpha = float(alpha)

    def residual(factor):
        fs, gs = f.restricted(factor), g.restricted(factor)
        h = fs.grid.h
        left = np.trapezoid(gs.values * fracops.caputo_left(fs, alpha).values, dx=h)
        right = np.trapezoid(
            (fs.values - fs.values[0]) * fracops.rl_right_derivative(gs, alpha).values,
            dx=h,
        )
        return abs(left - right) / max(abs(left), abs(right), FLOOR)

    return _on_ladder("integration-by-parts", f, residual)


def check_composition_int(f: TimeSeries, p_ord: float, q_ord: float) -> ResidualReport:
    """Residual of D^{p}(I^{q} f) = D^{p-q} f (right-sided operators).

    Needs p_ord >= q_ord; when the residual order p-q is fractional, f must
    vanish at the horizon (otherwise the target derivative is singular
    there and the comparison is meaningless on a grid).
    """
    if not p_ord >= q_ord:  # also refuses a NaN order
        raise ParameterError(f"need p_ord >= q_ord, got {p_ord} < {q_ord}")
    if p_ord > 2.0:
        raise ParameterError(f"derivative order must be <= 2, got {p_ord}")
    r = p_ord - q_ord
    if abs(r - round(r)) >= 1e-12 and f.values[-1] != 0.0:
        raise ParameterError(
            "f must vanish at the horizon when the residual order is fractional"
        )

    def residual(factor):
        fs = f.restricted(factor)
        lhs = _apply_right(fracops.rl_integral_right(fs, q_ord), p_ord)
        return _relative(lhs.values, _apply_right(fs, r).values)

    return _on_ladder("composition-derivative-integral", f, residual)


def check_composition_derivs(f: TimeSeries, p_ord: float, q_ord: float) -> ResidualReport:
    """Residual of D^{p}(D^{q} f) = D^{p+q} f (right-sided operators).

    Certified only in the vanishing-boundary regime: the last three samples
    of f must already be negligible, which makes every boundary term of the
    general composition rule vanish.
    """
    if q_ord <= 0.0 or p_ord < 0.0:
        raise ParameterError("orders must satisfy q_ord > 0 and p_ord >= 0")
    if p_ord + q_ord > 2.0:
        raise ParameterError(
            f"combined order must be <= 2, got {p_ord + q_ord}"
        )
    scale = np.max(np.abs(f.values))
    if np.any(np.abs(f.values[-3:]) > 1e-9 * scale):
        raise ParameterError(
            "f must vanish to high order at the horizon (boundary terms of the "
            "composition rule are not certified)"
        )

    def residual(factor):
        fs = f.restricted(factor)
        lhs = _apply_right(_apply_right(fs, q_ord), p_ord)
        return _relative(lhs.values, _apply_right(fs, p_ord + q_ord).values)

    return _on_ladder("composition-two-derivatives", f, residual)


def weak_form_residual(snapshots, pr: ParamSet, eta: float, horizon: float,
                       u1: Field) -> float:
    """Relative residual of the weak formulation on simulator output.

    ``snapshots`` is a uniformly spaced sequence of (time, Field) covering
    [0, horizon] with the zero initial state first; ``u1`` is the initial
    velocity.  The test function is phi1 (of order ``eta``, integrable at
    order 2+alpha1-gamma and power ``pr.p``) times phi2 (of ``pr.theta``);
    its time factors are closed-form right derivatives of phi1 (composition
    is exact here because phi1 vanishes to order eta at the horizon), and
    the source side integrates the nonlocal term by the same
    product-rectangle rule the operators use.  Returns
    |lhs - rhs| / max(|lhs|, |rhs|).
    """
    a1, a2 = pr.alpha1, pr.alpha2
    g, sg, dl, p = pr.gamma, pr.sigma, pr.delta, pr.p
    testfn._check_integrable(eta, 2.0 + a1 - g, p)
    if len(snapshots) < 3:
        raise ParameterError("need at least 3 snapshots")
    times = np.array([t for t, _ in snapshots], dtype=float)
    fields = [f for _, f in snapshots]
    grid = fields[0].grid
    if any(f.grid != grid for f in fields) or u1.grid != grid:
        raise ParameterError("all snapshots and u1 must share one grid")
    n = len(snapshots) - 1
    h = horizon / n
    expected = h * np.arange(n + 1)
    if times[0] != 0.0 or not np.allclose(times, expected, rtol=0.0, atol=1e-9 * horizon):
        raise ParameterError("snapshots must uniformly cover [0, horizon]")

    d_main, d_diff, d_damp, d_vel = (
        testfn.phi1_right_derivative_closed(eta, horizon, order, n).values
        for order in (2.0 + a1 - g, 1.0 - g, 1.0 + a2 - g, 1.0 + a1 - g))

    w2 = testfn.phi2(grid, horizon, pr.theta)
    a_sig = apply_spectral(w2, sg)
    a_del = apply_spectral(w2, dl)

    dV = grid.cell_volume
    stack = np.stack([f.values.ravel() for f in fields])
    u_phi = stack @ w2.values.ravel() * dV
    u_sig = stack @ a_sig.values.ravel() * dV
    u_del = stack @ a_del.values.ravel() * dV

    tw = np.full(n + 1, h)
    tw[0] = tw[-1] = 0.5 * h

    lhs = float(np.dot(tw, d_main * u_phi + d_diff * u_sig + d_damp * u_del))

    # the nonlocal source is linear in space, so pair |u|^p with phi2 first
    # and apply the operators' product-rectangle integral to that series
    power_phi = np.abs(stack) ** p @ w2.values.ravel() * dV
    s_phi = fracops.rl_integral(TimeSeries(TimeGrid(horizon, n), power_phi), 1.0 - g).values

    vel = float((u1.values * w2.values).sum() * dV)
    rhs = float(np.dot(tw, d_diff * s_phi)) + vel * float(np.dot(tw, d_vel))

    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), FLOOR)
