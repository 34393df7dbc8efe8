r"""Fractional Laplacian on periodic grids and as a direct singular integral.

Two independent realizations of ``(-Delta)^s``:

* :func:`apply_spectral`: Fourier multiplier ``|xi|^{2s}`` on a periodic
  box, in the full-field rfft modes of :func:`rfft_layout`,
* :func:`apply_singular_integral`: pointwise quadrature of

  .. math::

      \frac{C(N,s)}{2} \int \frac{2\psi(x) - \psi(x+y) - \psi(x-y)}
                                 {|y|^{N+2s}} \, dy

  with the normalization :func:`normalization_constant` chosen so both
  realizations share the symbol ``|xi|^{2s}``.

The two agree on smooth compactly supported fields and serve as each
other's oracle in the tests.  The singular-integral path is 1-D; the
spectral path covers 1-D and 2-D grids.

The time stepper's one mode layout, :func:`cosine_layout`, hands out the
real cosine modes of fields even about a grid node, one k² each; the
tests check it against the full-field rfft modes of :func:`rfft_layout`,
the same contract as (real, imaginary) pairs, and step the solver on both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError
from .fracops import _gauss_jacobi


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
        if not math.isfinite(self.spacing):
            raise ParameterError(f"half_length {self.half_length} overflows the grid spacing")
        # the largest squared wavenumber, dim (pi / spacing)^2, at the corner mode
        k = math.pi / self.spacing if self.spacing > 0.0 else math.inf
        if not math.isfinite(self.dim * k * k):
            raise ParameterError(
                f"half_length {self.half_length} is too small: the largest squared "
                "wavenumber overflows"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(self.points)

    def coords(self, center) -> tuple:
        """``center`` as one coordinate per axis; a scalar means it on every axis."""
        coords = center if isinstance(center, tuple) else (center,) * self.dim
        if len(coords) != self.dim:
            raise ParameterError(f"center {center} does not fit a {self.dim}-D grid")
        return coords

    def radius(self, center=0.0) -> np.ndarray:
        """|x - center| at every grid point (shape (M,) or (M, M)), ``center``
        as :meth:`coords` reads it."""
        x = self.axis()
        coords = self.coords(center)
        if self.dim == 1:
            return np.abs(x - coords[0])
        cx, cy = coords
        return np.hypot(x[:, None] - cx, x[None, :] - cy)

    def shape(self) -> tuple:
        return (self.points,) * self.dim


# 1-D cosine transforms are dense products up to this many points, FFTs above:
# the two forward-and-inverse pairs cost the same at 512 (one BLAS thread).
DENSE_POINTS = 512


def rfft_layout(grid: SpaceGrid):
    """Squared wavenumbers, flattened, their shape (which perfbench/layers.py
    unpacks), and the forward and inverse transforms over the trailing space
    axes, batched over leading ones, with each rfft mode as its (real,
    imaginary) pair of columns, one k² each, flat."""
    m, real, pairs = grid.points, np.float64, np.complex128
    if grid.dim == 1:
        k2 = (2.0 * math.pi * np.fft.rfftfreq(m, d=grid.spacing)) ** 2
        fwd = lambda a: np.fft.rfft(a).view(real)
        inv = lambda c: np.fft.irfft(c.view(pairs), n=m)
    else:
        kx = 2.0 * math.pi * np.fft.fftfreq(m, d=grid.spacing)
        ky = 2.0 * math.pi * np.fft.rfftfreq(m, d=grid.spacing)
        k2 = kx[:, None] ** 2 + ky[None, :] ** 2
        fwd = lambda a: np.fft.rfftn(a, axes=(-2, -1)).view(real).reshape(*a.shape[:-2], -1)
        inv = lambda c: np.fft.irfftn(c.reshape(*c.shape[:-1], m, -1).view(pairs),
                                      s=(m, m), axes=(-2, -1))
    k2 = np.repeat(k2, 2, axis=-1).ravel()
    return k2, k2.shape, fwd, inv


def cosine_layout(grid: SpaceGrid, node):
    r"""``(k2, fwd, inv, gather, unfold)`` for fields even about the grid
    node of indices ``node``, one per axis, held as their samples ``q`` at
    offsets 0 ... M/2 from it on each axis.  Their rfft modes measured from
    the node are real and even, so (M/2+1)^dim cosine modes carry them:
    ``fwd`` maps ``q`` to ``F q`` (1-D) or ``F q F^T`` (2-D), with

    .. math::

        F_{kj} = w_j \cos(2 \pi k j / M), \qquad
        w_0 = w_{M/2} = 1, \quad w_j = 2 \text{ otherwise},

    and ``inv`` maps modes back to samples through ``G = F / M`` the same
    way, both over leading axes.  A 1-D product is ``q F^T``, one ``@``:
    rows stacked as ``(..., 1, M/2+1)``, the stepper's shape, are one
    product each, while an ``(n, M/2+1)`` block is one product whose rows
    round with the block.  Above ``DENSE_POINTS`` points the 1-D transforms
    are FFTs of the whole-sample even extension, row by row, and no
    (M/2+1)^2 matrix is built (Martucci, IEEE TSP 42, 1994).  In 2-D the
    fields must also read the same at offsets (a, b) and (b, a), as a
    radial field about the node does: then ``F q F^T`` is symmetric, and its
    modes are the T = (M/2+1)(M/2+2)/2 entries i <= j, row by row.  ``fwd``
    takes that triangle of the product, and ``inv`` mirrors it back to the
    square first.  ``gather`` reads a full field's samples; ``unfold`` makes the
    full field, offset o reading the sample at min(o, M - o).
    """
    m = grid.points
    half = np.arange(m // 2 + 1)
    read = np.ix_(*((n + half) % m for n in node))
    back = np.ix_(*(np.minimum(d, m - d) for d in ((np.arange(m) - n) % m for n in node)))
    gather = lambda a: a[(..., *read)]
    unfold = lambda q: q[(..., *back)]
    k = 2.0 * math.pi * (half * (1.0 / (m * grid.spacing)))  # rfftfreq's, without numpy.fft
    if grid.dim == 1 and m > DENSE_POINTS:
        # F q is the real rfft of q's even extension, and G c the head of irfft(c)
        fwd = lambda a: np.fft.rfft(np.concatenate([a, a[..., -2:0:-1]], axis=-1)).real
        inv = lambda c: np.fft.irfft(c, n=m)[..., : half.size]
        return k**2, fwd, inv, gather, unfold
    w = np.where((half == 0) | (half == m // 2), 1.0, 2.0)
    # k j reduced mod M first, so the cosines' arguments are exact to rounding
    f = w * np.cos(2.0 * math.pi * (np.outer(half, half) % m) / m)
    g = f / m
    if grid.dim == 1:
        k2 = k**2
        # transposed views, which BLAS rounds unlike contiguous copies
        ft, gt = f.T, g.T
        fwd = lambda a: a @ ft
        inv = lambda c: c @ gt
    else:
        # the triangle i <= j of the symmetric mode matrix, as flat indices,
        # and for each entry of the square the triangle column it mirrors
        rows, cols = np.triu_indices(half.size)
        tri = rows * half.size + cols
        mirror = np.empty((half.size, half.size), dtype=np.intp)
        mirror[rows, cols] = mirror[cols, rows] = np.arange(tri.size)
        k2 = k[rows] ** 2 + k[cols] ** 2
        # contiguous transposes, which BLAS rounds unlike transposed views
        ft, gt = f.T.copy(), g.T.copy()
        # ndarray.take, not np.take, whose Python-level dispatch a 64^2 step feels
        fwd = lambda a: (f @ a @ ft).reshape(*a.shape[:-2], -1).take(tri, axis=-1)
        inv = lambda c: g @ c.take(mirror, axis=-1) @ gt
    return k2, fwd, inv, gather, unfold


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
        raise ParameterError(f"Laplacian order must lie in (0,1], got {s}")
    if not np.all(np.isfinite(f.values)):
        raise ParameterError("non-finite samples in field")
    k2, _, fwd, inv = rfft_layout(f.grid)
    return Field(f.grid, inv(fwd(f.values) * k2**s))


def normalization_constant(dim: int, s: float) -> float:
    """C(N,s) = 4^s Gamma(N/2+s) / (pi^{N/2} |Gamma(-s)|).

    This is the constant that gives the singular integral the Fourier
    symbol |xi|^{2s}; for N=1, s=0.5 it equals 1/pi.
    """
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ParameterError(f"Laplacian order must lie in (0,1), got {s}")
    return (
        4.0**s
        * math.gamma(0.5 * dim + s)
        / (math.pi ** (0.5 * dim) * abs(math.gamma(-s)))
    )


# The radial integral of :func:`apply_singular_integral` splits at _R_IN
# (below: second-order Taylor correction, exact kernel integration) and
# _R_CUT (beyond: analytic tail assuming the field has decayed).
_R_IN = 1e-3
_R_CUT = 64.0


@functools.lru_cache(maxsize=2)
def _middle_nodes(level: int):
    # Gauss-Legendre panels of 10 * level nodes between the split radii, graded
    # geometrically with 2 * level panels per doubling of radius
    g = 2.0 ** (1.0 / (2 * level))
    bounds = [_R_IN]
    while bounds[-1] < _R_CUT:
        bounds.append(min(bounds[-1] * g, _R_CUT))
    yg, wg = _gauss_jacobi(10 * level, 1.0)  # Gauss-Legendre on [0, 1]
    lo, width = np.array(bounds[:-1])[:, None], np.diff(bounds)[:, None]
    return (lo + width * yg).ravel(), (width * wg).ravel()


def _second_derivative(psi, x: float) -> float:
    # fourth-order central difference with step 1e-4
    e = 1e-4
    return (
        -psi(x + 2 * e)
        + 16.0 * psi(x + e)
        - 30.0 * psi(x)
        + 16.0 * psi(x - e)
        - psi(x - 2 * e)
    ) / (12.0 * e * e)


def apply_singular_integral(psi, x: float, s, *, refined: bool = False) -> float:
    """Evaluate (-Delta)^s psi at one point by direct quadrature (1-D).

    ``psi`` is a callable accepting arrays; ``refined`` doubles the panels
    and their order.  The analytic tail beyond ``_R_CUT`` keeps only the
    ``2*psi(x)`` part of the numerator, which is exact once ``psi`` vanishes
    outside ``|.| <= _R_CUT - |x|`` and an O(_R_CUT^{-2}) perturbation for
    merely decaying fields.
    """
    s = float(s)
    x = float(x)
    c = normalization_constant(1, s)
    center = float(psi(x))

    inner = -_second_derivative(psi, x) * _R_IN ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    ys, ws = _middle_nodes(1 + refined)
    numer = 2.0 * center - psi(x + ys) - psi(x - ys)
    middle = float(np.dot(ws, numer * ys ** (-1.0 - 2.0 * s)))

    tail = center * _R_CUT ** (-2.0 * s) / s

    total = c * (inner + middle + tail)
    if not np.isfinite(total):
        raise NumericsError(f"singular-integral quadrature diverged at x={x}")
    return total


# The bump-constant probes of :func:`lemma_kk_check`; those within
# BULK_RADIUS also bound the quotient constant.
_PROBE_RADII = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.5, 3.0, 4.0, 6.0)
BULK_RADIUS = 1.75


@dataclass(frozen=True)
class LemmaKKReport:
    """Probe-based estimates of the two bump constants.

    ``c1_estimate`` bounds the decay product |(-Delta)^s psi(r)| * r^{N+2s}
    over the probe radii; ``c2_estimate`` bounds the Young-inequality
    quotient |(-Delta)^s psi / psi^{1/p}|^{p/(p-1)} over the probes inside
    :data:`BULK_RADIUS`.  The quotient is unbounded in the limit r ->
    support edge for any smooth compactly supported profile (the
    denominator vanishes to infinite order), so the estimate certifies a
    documented interior probe family rather than a supremum over all radii.
    """

    c1_estimate: float
    c2_estimate: float


def lemma_kk_check(psi, s, p: float, *, refined: bool = False) -> LemmaKKReport:
    """Estimate the decay and quotient constants for a bump profile (1-D).

    ``psi`` must be nonnegative, positive at the origin, compactly
    supported, radially nonincreasing beyond radius 1, and positive within
    :data:`BULK_RADIUS`; violations raise a parameter error, the first four
    before any quadrature runs.  ``refined`` is passed on to
    :func:`apply_singular_integral`.
    """
    s = float(s)
    if p <= 1.0:
        raise ParameterError(f"power must exceed 1, got {p}")
    if float(psi(0.0)) <= 0.0:
        raise ParameterError("profile must be positive at the origin")
    r_check = np.linspace(0.0, 16.0, 513)
    vals = np.asarray(psi(r_check), dtype=float)
    if np.any(vals < -1e-14):
        raise ParameterError("profile must be nonnegative")
    if np.any(vals[r_check >= 8.0] != 0.0):
        raise ParameterError("profile must vanish identically beyond radius 8")
    mono = vals[(r_check >= 1.0) & (r_check <= 4.0)]
    if np.any(np.diff(mono) > 1e-12):
        raise ParameterError("profile must be nonincreasing beyond radius 1")

    pp = p / (p - 1.0)
    c1 = c2 = 0.0
    for r in _PROBE_RADII:
        a = apply_singular_integral(psi, r, s, refined=refined)
        c1 = max(c1, abs(a) * r ** (1.0 + 2.0 * s))
        if r <= BULK_RADIUS:
            denom = float(psi(r)) ** (1.0 / p)
            if denom <= 0.0:
                raise ParameterError(
                    f"bulk probe r={r} lies outside the support of the profile"
                )
            c2 = max(c2, (abs(a) / denom) ** pp)
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise NumericsError("constant estimate diverged")
    return LemmaKKReport(c1, c2)
