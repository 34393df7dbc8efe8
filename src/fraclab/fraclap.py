r"""Fractional Laplacian on periodic grids and as a direct singular integral.

Two independent realizations of ``(-Delta)^s``:

* :func:`apply_spectral`: Fourier multiplier ``|xi|^{2s}`` on a periodic
  box (the workhorse used by the time stepper),
* :func:`apply_singular_integral`: pointwise quadrature of

  .. math::

      \frac{C(N,s)}{2} \int \frac{2\psi(x) - \psi(x+y) - \psi(x-y)}
                                 {|y|^{N+2s}} \, dy

  with the normalization :func:`normalization_constant` chosen so both
  realizations share the symbol ``|xi|^{2s}``.

The two agree on smooth compactly supported fields and serve as each
other's oracle in the tests.  The singular-integral path is 1-D; the
spectral path covers 1-D and 2-D grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisError,
    NumericsError,
    OrderError,
    ParameterError,
)


@dataclass(frozen=True)
class SpaceGrid:
    """Periodic box [-half_length, half_length)^dim with ``points`` per axis.

    ``points`` must be a power of two (transform efficiency and exact
    coarsening); wavenumbers on each axis are ``2*pi*k/(2*half_length)``.
    """

    dim: int
    half_length: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if not (math.isfinite(self.half_length) and self.half_length > 0.0):
            raise ParameterError(
                f"half_length must be finite and positive, got {self.half_length}"
            )
        m = self.points
        if m < 8 or (m & (m - 1)) != 0:
            raise ParameterError(f"points must be a power of two >= 8, got {m}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(self.points)

    def radius(self) -> np.ndarray:
        """|x| at every grid point (shape (M,) or (M, M))."""
        x = self.axis()
        if self.dim == 1:
            return np.abs(x)
        return np.hypot(x[:, None], x[None, :])

    def shape(self) -> tuple:
        return (self.points,) * self.dim


@functools.lru_cache(maxsize=32)
def _sq_wavenumbers(grid: SpaceGrid) -> np.ndarray:
    k = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
    if grid.dim == 1:
        return k**2
    return k[:, None] ** 2 + k[None, :] ** 2


@dataclass
class Field:
    """Real samples on every node of a :class:`SpaceGrid`."""

    grid: SpaceGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape():
            raise ParameterError(
                f"expected shape {self.grid.shape()}, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("non-finite samples in field")

    @classmethod
    def from_radial(cls, grid: SpaceGrid, profile) -> "Field":
        return cls(grid, np.asarray(profile(grid.radius()), dtype=float))

    def integral(self) -> float:
        # periodic Riemann sum: spectrally accurate for smooth fields
        return float(self.values.sum() * self.grid.cell_volume)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def apply_spectral(f: Field, s) -> Field:
    """Multiplier realization: mode k picks up the factor |k|^{2s}.

    The zero mode maps to 0 (the multiplier vanishes there), so the output
    always has zero mean.  ``s = 1`` reproduces the classical ``-Delta``.
    """
    s = float(s)
    if not (0.0 < s <= 1.0):
        raise OrderError(f"Laplacian order must lie in (0,1], got {s}")
    if not np.all(np.isfinite(f.values)):
        raise ParameterError("non-finite samples in field")
    k2 = _sq_wavenumbers(f.grid)
    fh = np.fft.fftn(f.values)
    out = np.fft.ifftn(fh * k2**s).real
    return Field(f.grid, out)


def normalization_constant(dim: int, s: float) -> float:
    """C(N,s) = 4^s Gamma(N/2+s) / (pi^{N/2} |Gamma(-s)|).

    This is the constant that gives the singular integral the Fourier
    symbol |xi|^{2s}; for N=1, s=0.5 it equals 1/pi.
    """
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    s = float(s)
    if not (0.0 < s < 1.0):
        raise OrderError(f"Laplacian order must lie in (0,1), got {s}")
    return (
        4.0**s
        * math.gamma(0.5 * dim + s)
        / (math.pi ** (0.5 * dim) * abs(math.gamma(-s)))
    )


@dataclass(frozen=True)
class SingularQuadRule:
    """Quadrature layout for :func:`apply_singular_integral`.

    The radial integral splits at ``r_in`` (below: second-order Taylor
    correction, exact kernel integration) and ``r_cut`` (beyond: analytic
    tail assuming the field has decayed); between the two, Gauss-Legendre
    panels graded geometrically with ``panels_per_octave`` panels per
    doubling of radius.
    """

    r_in: float = 1e-3
    r_cut: float = 64.0
    gl_order: int = 10
    panels_per_octave: int = 2

    def __post_init__(self):
        if not (0.0 < self.r_in < self.r_cut):
            raise ParameterError("need 0 < r_in < r_cut")
        if self.gl_order < 2 or self.panels_per_octave < 1:
            raise ParameterError("need gl_order >= 2 and panels_per_octave >= 1")

    def refined(self) -> "SingularQuadRule":
        """Same split radii, twice the panels and twice the panel order."""
        return SingularQuadRule(
            self.r_in, self.r_cut, 2 * self.gl_order, 2 * self.panels_per_octave
        )


DEFAULT_RULE = SingularQuadRule()


@functools.lru_cache(maxsize=16)
def _middle_nodes(rule: SingularQuadRule):
    # geometric panel boundaries r_in * g^i clipped at r_cut
    g = 2.0 ** (1.0 / rule.panels_per_octave)
    bounds = [rule.r_in]
    while bounds[-1] < rule.r_cut:
        bounds.append(min(bounds[-1] * g, rule.r_cut))
    xg, wg = np.polynomial.legendre.leggauss(rule.gl_order)
    ys, ws = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        half = 0.5 * (b - a)
        ys.append(0.5 * (a + b) + half * xg)
        ws.append(half * wg)
    return np.concatenate(ys), np.concatenate(ws)


def _second_derivative(psi, x: float, step: float = 1e-4) -> float:
    # fourth-order central difference
    e = step
    return (
        -psi(x + 2 * e)
        + 16.0 * psi(x + e)
        - 30.0 * psi(x)
        + 16.0 * psi(x - e)
        - psi(x - 2 * e)
    ) / (12.0 * e * e)


def apply_singular_integral(
    psi, x: float, s, rule: SingularQuadRule | None = None
) -> float:
    """Evaluate (-Delta)^s psi at one point by direct quadrature (1-D).

    ``psi`` is a callable accepting arrays.  The analytic tail beyond
    ``rule.r_cut`` keeps only the ``2*psi(x)`` part of the numerator, which
    is exact once ``psi`` vanishes outside ``|.| <= r_cut - |x|`` and an
    O(r_cut^{-2}) perturbation for merely decaying fields.
    """
    s = float(s)
    if not (0.0 < s < 1.0):
        raise OrderError(f"Laplacian order must lie in (0,1), got {s}")
    if rule is None:
        rule = DEFAULT_RULE
    x = float(x)
    c = normalization_constant(1, s)
    center = float(psi(x))

    inner = -_second_derivative(psi, x) * rule.r_in ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    ys, ws = _middle_nodes(rule)
    numer = 2.0 * center - psi(x + ys) - psi(x - ys)
    middle = float(np.dot(ws, numer * ys ** (-1.0 - 2.0 * s)))

    tail = center * rule.r_cut ** (-2.0 * s) / s

    total = c * (inner + middle + tail)
    if not np.isfinite(total):
        raise NumericsError(f"singular-integral quadrature diverged at x={x}")
    return total


@dataclass(frozen=True)
class LemmaKKReport:
    """Probe-based estimates of the two bump constants.

    ``c1_estimate`` bounds the decay product |(-Delta)^s psi(r)| * r^{N+2s}
    over the probe radii; ``c2_estimate`` bounds the Young-inequality
    quotient |(-Delta)^s psi / psi^{1/p}|^{p/(p-1)} over the probes inside
    ``bulk_radius``.  The quotient is unbounded in the limit r -> support
    edge for any smooth compactly supported profile (the denominator
    vanishes to infinite order), so the estimate certifies a documented
    interior probe family rather than a supremum over all radii.
    """

    s: float
    p: float
    c1_estimate: float
    c2_estimate: float
    probe_radii: tuple
    bulk_radius: float


DEFAULT_PROBES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.5, 3.0, 4.0, 6.0)


def lemma_kk_check(
    psi,
    s,
    p: float,
    probe_radii=DEFAULT_PROBES,
    bulk_radius: float = 1.75,
    rule: SingularQuadRule | None = None,
) -> LemmaKKReport:
    """Estimate the decay and quotient constants for a bump profile (1-D).

    ``psi`` must be nonnegative, positive at the origin, compactly
    supported, and radially nonincreasing beyond radius 1; violations raise
    a hypothesis error before any quadrature runs.
    """
    s = float(s)
    if p <= 1.0:
        raise ParameterError(f"power must exceed 1, got {p}")
    if float(psi(0.0)) <= 0.0:
        raise HypothesisError("profile must be positive at the origin")
    r_check = np.linspace(0.0, 16.0, 513)
    vals = np.asarray(psi(r_check), dtype=float)
    if np.any(vals < -1e-14):
        raise HypothesisError("profile must be nonnegative")
    if np.any(vals[r_check >= 8.0] != 0.0):
        raise HypothesisError("profile must vanish identically beyond radius 8")
    mono = vals[(r_check >= 1.0) & (r_check <= 4.0)]
    if np.any(np.diff(mono) > 1e-12):
        raise HypothesisError("profile must be nonincreasing beyond radius 1")

    pp = p / (p - 1.0)
    probes = tuple(float(r) for r in probe_radii)
    c1 = 0.0
    c2 = 0.0
    for r in probes:
        a = apply_singular_integral(psi, r, s, rule)
        c1 = max(c1, abs(a) * r ** (1.0 + 2.0 * s))
        if r <= bulk_radius:
            denom = float(psi(r)) ** (1.0 / p)
            if denom <= 0.0:
                raise HypothesisError(
                    f"bulk probe r={r} lies outside the support; shrink bulk_radius"
                )
            c2 = max(c2, (abs(a) / denom) ** pp)
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise NumericsError("constant estimate diverged")
    return LemmaKKReport(s, float(p), c1, c2, probes, float(bulk_radius))
