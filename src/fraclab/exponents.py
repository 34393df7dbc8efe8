r"""Closed-form thresholds: critical power, dimension bound, decay rates.

Everything here is pure arithmetic on validated parameter sets; the
formulas are the exact expressions whose scaling content the quadrature
modules certify numerically.  Each takes a :class:`ParamSet`; the system
is two of them, one per equation.  Extended-real results use
``math.inf`` (the critical power is genuinely infinite whenever the
positive part in its denominator vanishes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoInteriorMinimumError, ParameterError

_MODES = ("strict", "permissive")


@dataclass(frozen=True)
class ParamSet:
    """Orders and power of the scalar problem.

    ``strict`` mode enforces the full orderings 0 < gamma < alpha2 <
    alpha1 < 1 and 0 < sigma < delta < 1; ``permissive`` mode only needs
    each order inside (0,1).  The mode is recorded so reports can state
    which regime a result was computed in.
    """

    alpha1: float
    alpha2: float
    gamma: float
    sigma: float
    delta: float
    p: float
    dim: int = 1
    mode: str = "strict"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ParameterError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in ("alpha1", "alpha2", "gamma", "sigma", "delta"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ParameterError(f"{name} must lie in (0,1), got {value}")
        if self.mode == "strict":
            if not (self.gamma < self.alpha2 < self.alpha1):
                raise ParameterError(
                    f"strict mode requires 0<gamma<alpha2<alpha1<1, got "
                    f"gamma={self.gamma}, alpha2={self.alpha2}, alpha1={self.alpha1}"
                )
            if not (self.sigma < self.delta):
                raise ParameterError(
                    f"strict mode requires 0<sigma<delta<1, got "
                    f"sigma={self.sigma}, delta={self.delta}"
                )
        if not (1.0 < self.p < math.inf):
            raise ParameterError(f"power must be finite and exceed 1, got {self.p}")
        if not (1 <= self.dim < math.inf) or self.dim != int(self.dim):
            raise ParameterError(f"dimension must be a positive integer, got {self.dim}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def theta(self) -> float:
        """(alpha1+1)/sigma: the test function's phi2 dilates as T^{theta/2}."""
        return (self.alpha1 + 1.0) / self.sigma


@dataclass(frozen=True)
class SystemParamSet:
    """The 2x2 cross-coupled system: two blocks of the scalar form.

    ``first`` is the u-equation, orders (alpha1, alpha2, gamma1, sigma1,
    delta1) and source |v|^p; ``second`` is the v-equation, orders (beta1,
    beta2, gamma2, sigma2, delta2) and source |u|^q, so q is ``second.p``.
    Each block is checked as a :class:`ParamSet`; the system has strict
    orderings only, and both blocks live in one dimension.
    """

    first: ParamSet
    second: ParamSet

    def __post_init__(self):
        modes = (self.first.mode, self.second.mode)
        if modes != ("strict", "strict"):
            raise ParameterError(f"the system needs two strict blocks, got modes {modes}")
        if self.first.dim != self.second.dim:
            raise ParameterError(f"the system's blocks disagree on dim: "
                                 f"{self.first.dim} and {self.second.dim}")

    @property
    def dim(self) -> int:
        return self.first.dim


@dataclass(frozen=True)
class ExponentReport:
    """Critical power with the bookkeeping the formula produces.

    ``value`` is +inf exactly when the positive part of ``denominator``
    vanishes.  ``critical_flag`` marks a query power sitting exactly on the
    threshold; in that case ``proof_side_condition`` records the extra
    constraint the critical-case argument uses (it is reported, never
    enforced, because it does not appear in the threshold formula itself).
    """

    value: float
    denominator: float
    critical_flag: bool = False
    proof_side_condition: str | None = None


def critical_exponent(params: ParamSet) -> ExponentReport:
    """p* = 2(2+alpha1-gamma) / ((theta*N + 2*gamma - 2*alpha1 - 2)_+) + 1.

    ``theta`` is :attr:`ParamSet.theta`; a nonpositive denominator makes the
    threshold infinite (every power blows up).  The critical-case metadata
    is filled against the set's own power ``p``.
    """
    dim, alpha1, gamma, sigma = params.dim, params.alpha1, params.gamma, params.sigma
    denom = params.theta * dim + 2.0 * gamma - 2.0 * alpha1 - 2.0
    if denom <= 0.0:
        return ExponentReport(math.inf, denom)
    value = 2.0 * (2.0 + alpha1 - gamma) / denom + 1.0
    critical = abs(params.p - value) <= 1e-12 * max(1.0, value)
    note = None
    if critical:
        if dim > 2.0 * sigma:
            side = dim / (dim - 2.0 * sigma)
            note = f"critical case additionally uses p > N/(N-2*sigma) = {side:.12g}"
        else:
            note = "critical case additionally uses p > N/(N-2*sigma) (vacuous: N <= 2*sigma)"
    return ExponentReport(value, denom, critical, note)


@dataclass(frozen=True)
class SystemBoundReport:
    """The two branch values and their maximum for the system threshold."""

    branch_one: float
    branch_two: float

    @property
    def bound(self) -> float:
        return max(self.branch_one, self.branch_two)


def _branch(a: ParamSet, b: ParamSet) -> float:
    # block a's source is |u_b|^(a.p) and block b's is |u_a|^(b.p)
    num = (2.0 + b.alpha1 - b.gamma) + 1.0 / a.p + b.p * (1.0 + a.alpha1 - a.gamma)
    den = (b.alpha1 + 1.0) / (2.0 * a.p_prime * b.sigma) + (a.alpha1 + 1.0) * b.p / (
        2.0 * b.p_prime * a.sigma
    )
    return num / den


def system_dimension_bound(s: SystemParamSet) -> SystemBoundReport:
    """Largest real dimension below which the cross-coupled pair blows up.

    One branch per ordering of the blocks, so swapping the blocks swaps
    the branches exactly and leaves the maximum invariant.
    """
    return SystemBoundReport(_branch(s.first, s.second), _branch(s.second, s.first))


def _young_gap(params: ParamSet) -> float:
    # p'(2+alpha1-gamma) - (1+alpha1-gamma); writing 2+alpha1-gamma as
    # (1+alpha1-gamma)+1 would move the last bit of every caller's result
    return params.p_prime * (2.0 + params.alpha1 - params.gamma) - (
        1.0 + params.alpha1 - params.gamma
    )


def local_nonexistence_exponent(params: ParamSet) -> float:
    """Exponent of T in the necessary bound on inf u1 for local solvability.

    Equals -p'(2+alpha1-gamma) + (1+alpha1-gamma); always negative, so a
    velocity staying uniformly large at infinity forbids local solutions.
    """
    return -_young_gap(params)


def global_decay_exponent(params: ParamSet) -> float:
    """Spatial decay rate |x|^a that global existence forces on u1.

    Equals (2*delta/(1+alpha1)) * [p'(2+alpha1-gamma) - (1+alpha1-gamma)].
    """
    return 2.0 * params.delta / (1.0 + params.alpha1) * _young_gap(params)


def t_natural(params: ParamSet, radius: float) -> float:
    """Horizon minimizing the necessary-condition bound at spatial scale R.

    T = [ (p'(2+a1-g) - (1+a1-g)) / ((1+a1-g) - p'(1-g)) ]^{1/(p'(1+a1))}
        * R^{2*delta/(1+a1)}.

    The minimizer exists only while the denominator stays positive; for
    larger powers the bound has no interior minimum and the call fails.
    """
    if radius <= 0.0:
        raise ParameterError(f"radius must be positive, got {radius}")
    pp = params.p_prime
    den = (1.0 + params.alpha1 - params.gamma) - pp * (1.0 - params.gamma)
    if den <= 0.0:
        raise NoInteriorMinimumError(
            f"(1+alpha1-gamma) - p'(1-gamma) = {den} <= 0: the bound is monotone "
            f"in T at p={params.p} and has no interior minimum"
        )
    expo = 1.0 / (pp * (1.0 + params.alpha1))
    return (_young_gap(params) / den) ** expo * radius ** (
        2.0 * params.delta / (1.0 + params.alpha1))
