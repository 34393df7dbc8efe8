r"""Fractional derivatives and integrals on uniform time grids.

Conventions
-----------
All operators act on samples over the nodes ``t_j = j*h`` of a uniform grid
on ``[0, T]``.  Left operators integrate from 0, right operators toward
``T``.  The discrete realizations are

* fractional integrals: product-rectangle quadrature (piecewise-constant
  density equal to the panel mean, kernel integrated exactly on each panel),
* Caputo derivatives of order ``a`` in (0, 1): the L1 scheme

  .. math::

      D^a f(t_j) \approx \frac{h^{-a}}{\Gamma(2-a)}
          \sum_{k=0}^{j-1} b_{j-k-1} (f_{k+1} - f_k),
      \qquad b_m = (m+1)^{1-a} - m^{1-a},

* Riemann-Liouville derivatives of order ``a`` in (0, 1): L1 Caputo plus the
  exact singular term ``f(0) t^{-a} / Gamma(1-a)``,
* orders in (1, 2): second difference of the fractional integral of order
  ``2 - a`` (one-sided differences at the two boundary nodes).

Right-sided operators are computed by exact time reflection: reflect the
samples, apply the left operator, reflect the output.  No sign factor is
needed; the leading minus sign in the right-sided definitions absorbs the
orientation flip of the substitution ``t -> T - t``.  This makes reflection
duality exact at the discrete level and is confirmed by the power-rule
oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericsError, ParameterError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with nodes ``t_j = j * horizon / steps``, j = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if not math.isfinite(self.horizon):
            raise ParameterError(f"horizon must be finite, got {self.horizon}")
        if self.steps < 2:
            raise ParameterError(f"need at least 2 steps, got {self.steps}")

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @property
    def node_count(self) -> int:
        return self.steps + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def coarsened(self, factor: int) -> "TimeGrid":
        if factor < 1 or self.steps % factor:
            raise ParameterError(
                f"cannot coarsen {self.steps} steps by factor {factor}"
            )
        return TimeGrid(self.horizon, self.steps // factor)


@dataclass
class TimeSeries:
    """Samples of a scalar function at every node of a :class:`TimeGrid`.

    ``diverged`` marks series that legitimately contain non-finite entries
    (for example a Riemann-Liouville derivative of a function with a
    nonzero boundary value, which is singular at the boundary node).
    """

    grid: TimeGrid
    values: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.node_count,):
            raise ParameterError(
                f"expected {self.grid.node_count} samples, got {self.values.shape}"
            )
        if not self.diverged and not np.all(np.isfinite(self.values)):
            raise ParameterError("non-finite samples in input series")

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "TimeSeries":
        return cls(grid, np.asarray(fn(grid.nodes()), dtype=float))

    def reflected(self) -> "TimeSeries":
        return TimeSeries(self.grid, self.values[::-1].copy(), self.diverged)

    def restricted(self, factor: int) -> "TimeSeries":
        """Subsample onto a grid coarsened by ``factor`` (nodes coincide)."""
        return TimeSeries(
            self.grid.coarsened(factor), self.values[::factor].copy(), self.diverged
        )


# ---------------------------------------------------------------------------
# quadrature weights
# ---------------------------------------------------------------------------

def l1_weights(alpha: float, count: int) -> np.ndarray:
    """L1 weights ``b_m = (m+1)^(1-alpha) - m^(1-alpha)``, m = 0..count-1."""
    m = np.arange(count, dtype=float)
    return (m + 1.0) ** (1.0 - alpha) - m ** (1.0 - alpha)


def rect_weights(mu: float, count: int) -> np.ndarray:
    """Panel weights ``w_m = m^mu - (m-1)^mu`` for m >= 1; ``w_0 = 0``.

    ``(h^mu / Gamma(mu+1)) * w_{j-k}`` is the exact integral of the kernel
    ``(t_j - tau)^(mu-1) / Gamma(mu)`` over the panel ``[t_k, t_{k+1}]``.
    """
    m = np.arange(count, dtype=float)
    w = m**mu - np.maximum(m - 1.0, 0.0) ** mu
    w[0] = 0.0
    return w


# Relative error every sum-of-exponentials fit is certified to, on the sampled
# indices and against cancellation-free weights.  The margin below 1e-9 leaves
# room for the rounding of l1_weights/rect_weights themselves at large m.
SOE_RTOL = 2e-10
# Gauss nodes per panel: the panels are dyadic and the Jacobi interval 2/last, so
# accuracy does not depend on the horizon; 7 meet SOE_RTOL at orders 1e-9..1-1e-9.
_SOE_NODES = 7


def _weights_accurate(kind: str, order: float, m: np.ndarray) -> np.ndarray:
    # the differences of powers in l1_weights/rect_weights, without cancellation
    if kind == "l1":
        s = 1.0 - order
        return m**s * np.expm1(s * np.log1p(1.0 / m))
    return -(m**order) * np.expm1(order * np.log1p(-1.0 / m))


def _gauss_jacobi(nodes: int, a: float):
    """Rule for ``int_0^1 y^(a-1) g(y) dy`` by Golub-Welsch (Jacobi (0, a-1))."""
    b = a - 1.0
    k = np.arange(1.0, nodes)
    s = 2.0 * k + b
    diag = np.empty(nodes)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (s * (s + 2.0))
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    t, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + t), vecs[0] ** 2 / a


def soe_weights(kind: str, order: float, first: int, last: int):
    r"""Sum-of-exponentials fit of the ``kind`` weights for ``first <= m <= last``.

    ``kind`` is ``"l1"`` (:func:`l1_weights` of ``order``) or ``"rect"``
    (:func:`rect_weights` of ``order``).  Returns nodes ``x`` and coefficients
    ``c`` with ``sum_i c_i exp(-x_i m)`` equal to weight ``m`` to relative
    error :data:`SOE_RTOL`.

    Both families integrate ``s^{-a}`` over one cell, and
    ``s^{-a} = Gamma(a)^{-1} int_0^inf x^{a-1} e^{-s x} dx`` turns weight
    ``m`` into ``kappa int_0^inf x^{a-2} phi(x) e^{-m x} dx``: ``a = order``,
    ``phi = 1 - e^{-x}`` for L1 and ``a = 1 - order``, ``phi = e^x - 1`` for
    rectangles.  The integral is taken by Gauss-Jacobi on ``[0, x0]`` (which
    absorbs ``x^{a-1}``; ``x0 = 2/last`` keeps ``e^{-m x}`` there within
    ``e^{-2}`` of 1), and by Gauss-Legendre on dyadic panels from ``x0`` to
    ``40/first``, past which ``e^{-m x}`` is below 1e-17 (Jiang, Zhang,
    Zhang & Zhang, CiCP 21, 2017), with :data:`_SOE_NODES` nodes per panel.
    The fit is checked on the first 64 indices and 256 geometric samples up
    to ``last``.  ``a`` outside (0, 1), as when ``1 - order`` rounds to 0
    or 1, raises a parameter error; a fit that cannot be built (``a`` near
    0) or misses :data:`SOE_RTOL` raises a numerics error.
    """
    if kind == "l1":
        a, b, phi = order, 1.0 - order, lambda x: -np.expm1(-x)
    elif kind == "rect":
        a, b, phi = 1.0 - order, order, np.expm1
    else:
        raise ParameterError(f"kind must be 'l1' or 'rect', got {kind!r}")
    if not (0.0 < a < 1.0):
        raise ParameterError(f"order must lie in (0,1), got {order}")
    last = max(last, first)
    x0 = 2.0 / last
    lo = x0 * 2.0 ** np.arange(max(1, math.ceil(math.log2(40.0 / (first * x0)))))
    # a set, not np.unique, which imports numpy.ma (1.2 MB resident)
    m = np.array(sorted({*range(first, min(first + 64, last + 1)),
                         *np.round(np.geomspace(first, last, 256)).tolist()}))
    try:
        with np.errstate(all="ignore"):
            kappa = b / math.gamma(a)
            want = _weights_accurate(kind, order, m)
            y, eta = _gauss_jacobi(_SOE_NODES, a)
            u, omega = _gauss_jacobi(_SOE_NODES, 1.0)  # Gauss-Legendre on [0, 1]
            xg = np.outer(lo, 1.0 + u).ravel()
            x = np.concatenate([x0 * y, xg])
            c = kappa * np.concatenate([
                eta * x0**a * phi(x0 * y) / (x0 * y),
                np.outer(lo, omega).ravel() * xg ** (a - 2.0) * phi(xg),
            ])
            e = np.outer(m, -x)
            got = np.exp(e, out=e) @ c
            if np.max(np.abs(got / want - 1.0)) <= SOE_RTOL:
                return x, c
    except (OverflowError, np.linalg.LinAlgError):  # Gamma(a) or the Jacobi rule
        pass
    raise NumericsError(
        f"no sum-of-exponentials fit of the {kind} weights of order {order} "
        f"reached rel {SOE_RTOL:g} on [{first}, {last}]"
    )


# ---------------------------------------------------------------------------
# left-sided operators
# ---------------------------------------------------------------------------

def _check_series(f: TimeSeries):
    if f.diverged or not np.all(np.isfinite(f.values)):
        raise ParameterError("operator input contains non-finite samples")


def rl_integral(f: TimeSeries, mu) -> TimeSeries:
    """Left Riemann-Liouville integral of order ``mu`` in (0, 1].

    Node 0 is 0.  For ``mu = 1`` the rule reduces to the trapezoid rule, so
    integer-order consistency is exact.
    """
    _check_series(f)
    mu = float(mu)
    if not (0.0 < mu <= 1.0):
        raise ParameterError(f"integral order must lie in (0,1], got {mu}")
    n = f.grid.steps
    density = 0.5 * (f.values[:-1] + f.values[1:])
    w = rect_weights(mu, n + 1)
    out = _kernels.causal_conv(w, density, n + 1)
    out *= f.grid.h**mu / math.gamma(mu + 1.0)
    return TimeSeries(f.grid, out)


def caputo_left(f: TimeSeries, alpha) -> TimeSeries:
    """Left Caputo derivative of order ``alpha`` in (0, 1) by the L1 scheme."""
    _check_series(f)
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"Caputo order must lie in (0,1), got {alpha}")
    n = f.grid.steps
    df = np.diff(f.values)
    b = l1_weights(alpha, n)
    conv = _kernels.causal_conv(b, df, n)
    out = np.zeros(n + 1)
    out[1:] = conv
    out *= f.grid.h ** (-alpha) / math.gamma(2.0 - alpha)
    return TimeSeries(f.grid, out)


def rl_left_derivative(f: TimeSeries, theta) -> TimeSeries:
    """Left Riemann-Liouville derivative of order ``theta`` in (0,2)\\{1}.

    For orders in (0, 1) this is the L1 Caputo derivative plus the exact
    singular term ``f(0) t^(-theta) / Gamma(1-theta)``; when ``f(0) != 0``
    the value at node 0 is infinite and the output carries ``diverged=True``.
    Orders in (1, 2) compose the integral of order ``2-theta`` with a second
    difference (one-sided at the boundary nodes).
    """
    _check_series(f)
    theta = float(theta)
    if theta == 1.0 or not (0.0 < theta < 2.0):
        raise ParameterError(
            f"derivative order must lie in (0,2) excluding 1, got {theta}; "
            "use classical differences for integer orders"
        )
    grid = f.grid
    if theta < 1.0:
        out = caputo_left(f, theta).values
        f0 = f.values[0]
        if f0 != 0.0:
            t = grid.nodes()
            with np.errstate(divide="ignore"):
                out = out + f0 * t ** (-theta) / math.gamma(1.0 - theta)
            return TimeSeries(grid, out, diverged=not np.isfinite(out[0]))
        return TimeSeries(grid, out)
    g = rl_integral(f, 2.0 - theta).values
    return TimeSeries(grid, _second_difference(g, grid.h**2))


def _second_difference(v: np.ndarray, h2: float) -> np.ndarray:
    """Second difference of samples ``v`` at squared spacing ``h2``: central
    at interior nodes, one-sided (second order) at the two boundary nodes."""
    out = np.empty(v.shape[0])
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


# ---------------------------------------------------------------------------
# right-sided operators (exact reflection of the left-sided ones)
# ---------------------------------------------------------------------------

def rl_integral_right(f: TimeSeries, mu) -> TimeSeries:
    """Right Riemann-Liouville integral ``I^mu`` toward ``T``."""
    return rl_integral(f.reflected(), mu).reflected()


def rl_right_derivative(f: TimeSeries, theta) -> TimeSeries:
    """Right Riemann-Liouville derivative of order ``theta`` in (0,2)\\{1}."""
    return rl_left_derivative(f.reflected(), theta).reflected()


def caputo_right(f: TimeSeries, alpha) -> TimeSeries:
    """Right Caputo derivative of order ``alpha`` in (0, 1).

    Coincides with :func:`rl_right_derivative` exactly (node for node) when
    ``f(T) = 0``, since the reflected singular term vanishes.
    """
    return caputo_left(f.reflected(), alpha).reflected()


# ---------------------------------------------------------------------------
# closed-form power rules (the oracles everything else is checked against)
# ---------------------------------------------------------------------------

def power_rule(beta: float, theta: float, t, side: str = "left", horizon: float = 1.0):
    """Closed-form fractional derivative of order ``theta`` of a power
    function, evaluated at ``t``.

    ``side="left"`` maps ``t^beta`` to ``Gamma(beta+1)/Gamma(beta+1-theta)
    * t^(beta-theta)``; ``side="right"`` maps ``(1-t/T)^beta`` to the same
    coefficient times ``T^(-theta) * (1-t/T)^(beta-theta)``.  ``theta = 0``
    gives the identity and integer ``theta`` the classical derivative, so
    the rule holds for any ``theta >= 0`` with ``beta - theta > -1``.
    """
    if beta < 0.0:
        raise ParameterError(f"power exponent must be >= 0, got {beta}")
    if theta < 0.0:
        raise ParameterError(f"derivative order must be >= 0, got {theta}")
    if beta - theta <= -1.0:
        raise ParameterError(
            f"beta - theta = {beta - theta} <= -1: nonintegrable singularity"
        )
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    if horizon <= 0.0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    scale = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - theta)
    e = beta - theta
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        base = t if side == "left" else 1.0 - t / horizon
        if e == 0.0:
            powered = np.ones_like(base)
        else:
            powered = np.where(base > 0.0, base, 0.0) ** e
            powered = np.where(base == 0.0, np.inf if e < 0.0 else 0.0, powered)
    if side == "right":
        scale *= horizon ** (-theta)
    return scale * powered
