r"""Closed-form thresholds: critical power, dimension bound, decay rates.

Everything here is pure arithmetic on validated parameter sets; the
formulas are the exact expressions whose scaling content the quadrature
modules certify numerically.  Extended-real results use ``math.inf`` (the
critical power is genuinely infinite whenever the positive part in its
denominator vanishes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoInteriorMinimumError, ParameterError

_MODES = ("strict", "permissive")


def _check_unit(name: str, value: float):
    if not (0.0 < value < 1.0):
        raise ParameterError(f"{name} must lie in (0,1), got {value}")


def _check_dim(dim: int):
    if dim < 1 or dim != int(dim):
        raise ParameterError(f"dimension must be a positive integer, got {dim}")


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
            _check_unit(name, getattr(self, name))
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
        if self.p <= 1.0:
            raise ParameterError(f"power must exceed 1, got {self.p}")
        _check_dim(self.dim)

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class SystemParamSet:
    """Orders and powers of the 2x2 cross-coupled system."""

    alpha1: float
    alpha2: float
    gamma1: float
    sigma1: float
    delta1: float
    beta1: float
    beta2: float
    gamma2: float
    sigma2: float
    delta2: float
    p: float
    q: float
    dim: int = 1

    def __post_init__(self):
        for name in (
            "alpha1", "alpha2", "gamma1", "sigma1", "delta1",
            "beta1", "beta2", "gamma2", "sigma2", "delta2",
        ):
            _check_unit(name, getattr(self, name))
        if not (self.gamma1 < self.alpha2 < self.alpha1):
            raise ParameterError("block one requires 0<gamma1<alpha2<alpha1<1")
        if not (self.gamma2 < self.beta2 < self.beta1):
            raise ParameterError("block two requires 0<gamma2<beta2<beta1<1")
        if not (self.sigma1 < self.delta1) or not (self.sigma2 < self.delta2):
            raise ParameterError("each block requires 0<sigma<delta<1")
        if self.p <= 1.0 or self.q <= 1.0:
            raise ParameterError(f"powers must exceed 1, got p={self.p}, q={self.q}")
        _check_dim(self.dim)

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_prime(self) -> float:
        return self.q / (self.q - 1.0)


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


def critical_exponent_scalar(
    dim: int, alpha1: float, gamma: float, sigma: float, p: float | None = None
) -> ExponentReport:
    """p* = 2(2+alpha1-gamma) / ((theta*N + 2*gamma - 2*alpha1 - 2)_+) + 1.

    ``theta = (alpha1+1)/sigma``; a nonpositive denominator makes the
    threshold infinite (every power blows up).  Passing the query power
    ``p`` fills the critical-case metadata.
    """
    _check_unit("alpha1", alpha1)
    _check_unit("gamma", gamma)
    _check_unit("sigma", sigma)
    _check_dim(dim)
    theta = (alpha1 + 1.0) / sigma
    denom = theta * dim + 2.0 * gamma - 2.0 * alpha1 - 2.0
    if denom <= 0.0:
        return ExponentReport(math.inf, denom)
    value = 2.0 * (2.0 + alpha1 - gamma) / denom + 1.0
    critical = p is not None and abs(p - value) <= 1e-12 * max(1.0, value)
    note = None
    if critical:
        if dim > 2.0 * sigma:
            side = dim / (dim - 2.0 * sigma)
            note = f"critical case additionally uses p > N/(N-2*sigma) = {side:.12g}"
        else:
            note = "critical case additionally uses p > N/(N-2*sigma) (vacuous: N <= 2*sigma)"
    return ExponentReport(value, denom, critical, note)


def critical_exponent(params: ParamSet) -> ExponentReport:
    """Threshold for a full parameter set, flagged against its own power."""
    return critical_exponent_scalar(
        params.dim, params.alpha1, params.gamma, params.sigma, params.p
    )


@dataclass(frozen=True)
class SystemBoundReport:
    """The two branch values and their maximum for the system threshold."""

    branch_one: float
    branch_two: float

    @property
    def bound(self) -> float:
        return max(self.branch_one, self.branch_two)


def system_dimension_bound(s: SystemParamSet) -> SystemBoundReport:
    """Largest real dimension below which the cross-coupled pair blows up.

    Two symmetric branches; swapping the equation blocks together with
    (p, q) swaps the branches and leaves the maximum invariant.
    """
    pp, qq = s.p_prime, s.q_prime
    num1 = (2.0 + s.beta1 - s.gamma2) + 1.0 / s.p + s.q * (1.0 + s.alpha1 - s.gamma1)
    den1 = (s.beta1 + 1.0) / (2.0 * pp * s.sigma2) + (s.alpha1 + 1.0) * s.q / (
        2.0 * qq * s.sigma1
    )
    num2 = (2.0 + s.alpha1 - s.gamma1) + 1.0 / s.q + s.p * (1.0 + s.beta1 - s.gamma2)
    den2 = (s.alpha1 + 1.0) / (2.0 * qq * s.sigma1) + (s.beta1 + 1.0) * s.p / (
        2.0 * pp * s.sigma2
    )
    return SystemBoundReport(num1 / den1, num2 / den2)


def local_nonexistence_exponent(params: ParamSet) -> float:
    """Exponent of T in the necessary bound on inf u1 for local solvability.

    Equals -p'(2+alpha1-gamma) + (1+alpha1-gamma); always negative, so a
    velocity staying uniformly large at infinity forbids local solutions.
    """
    return -params.p_prime * (2.0 + params.alpha1 - params.gamma) + (
        1.0 + params.alpha1 - params.gamma
    )


def global_decay_exponent(params: ParamSet) -> float:
    """Spatial decay rate |x|^a that global existence forces on u1.

    Equals (2*delta/(1+alpha1)) * [p'(2+alpha1-gamma) - (1+alpha1-gamma)].
    """
    bracket = params.p_prime * (2.0 + params.alpha1 - params.gamma) - (
        1.0 + params.alpha1 - params.gamma
    )
    return 2.0 * params.delta / (1.0 + params.alpha1) * bracket


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
    num = pp * (2.0 + params.alpha1 - params.gamma) - (1.0 + params.alpha1 - params.gamma)
    den = (1.0 + params.alpha1 - params.gamma) - pp * (1.0 - params.gamma)
    if den <= 0.0:
        raise NoInteriorMinimumError(
            f"(1+alpha1-gamma) - p'(1-gamma) = {den} <= 0: the bound is monotone "
            f"in T at p={params.p} and has no interior minimum"
        )
    expo = 1.0 / (pp * (1.0 + params.alpha1))
    return (num / den) ** expo * radius ** (2.0 * params.delta / (1.0 + params.alpha1))
