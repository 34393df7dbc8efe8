r"""Numerical laboratory for a damped time-space fractional wave equation.

The model problem couples a Caputo time derivative of order 1+a_1, a
fractional Laplacian, structural damping (-Delta)^delta D^{a_2}, and a
memory-in-time source I^{1-gamma}|u|^p.  The package provides the
fractional operators on uniform grids (``fracops``), spectral and
singular-integral Laplacians (``fraclap``), the separated test functions
of the blow-up argument (``testfn``), identity and weak-form residual
checks (``identities``), closed-form critical exponents (``exponents``),
an IMEX pseudospectral solver with blow-up detection (``solver``), and a
CLI (``harness``).
"""

from .errors import (
    FraclabError,
    GridGeometryError,
    HypothesisError,
    NoInteriorMinimumError,
    NumericsError,
    OrderError,
    ParameterError,
    SingularityError,
)
from .exponents import (
    ExponentReport,
    ParamSet,
    SystemBoundReport,
    SystemParamSet,
    critical_exponent,
    critical_exponent_scalar,
    global_decay_exponent,
    local_nonexistence_exponent,
    system_dimension_bound,
    t_natural,
)
from .fraclap import (
    Field,
    LemmaKKReport,
    SpaceGrid,
    apply_singular_integral,
    apply_spectral,
    lemma_kk_check,
    normalization_constant,
)
from .fracops import (
    TimeGrid,
    TimeSeries,
    caputo_left,
    caputo_right,
    power_rule,
    rl_integral,
    rl_integral_right,
    rl_left_derivative,
    rl_right_derivative,
)
from .identities import (
    ResidualReport,
    check_composition_derivs,
    check_composition_int,
    check_ibp,
    weak_form_residual,
)
from .solver import (
    BumpSpec,
    SimConfig,
    SimResult,
    detect_blowup,
    run,
    run_system,
    tune_amplitude,
)
from .testfn import (
    TestFunctionParams,
    bump_profile,
    phi1,
    phi1_right_derivative_closed,
    phi2,
    scaling_exponent_probe,
)

__version__ = "0.1.0"

__all__ = [
    "BumpSpec",
    "ExponentReport",
    "Field",
    "FraclabError",
    "GridGeometryError",
    "HypothesisError",
    "LemmaKKReport",
    "NoInteriorMinimumError",
    "NumericsError",
    "OrderError",
    "ParamSet",
    "ParameterError",
    "ResidualReport",
    "SimConfig",
    "SimResult",
    "SingularityError",
    "SpaceGrid",
    "SystemBoundReport",
    "SystemParamSet",
    "TestFunctionParams",
    "TimeGrid",
    "TimeSeries",
    "apply_singular_integral",
    "apply_spectral",
    "bump_profile",
    "caputo_left",
    "caputo_right",
    "check_composition_derivs",
    "check_composition_int",
    "check_ibp",
    "critical_exponent",
    "critical_exponent_scalar",
    "detect_blowup",
    "global_decay_exponent",
    "lemma_kk_check",
    "local_nonexistence_exponent",
    "normalization_constant",
    "phi1",
    "phi1_right_derivative_closed",
    "phi2",
    "power_rule",
    "rl_integral",
    "rl_integral_right",
    "rl_left_derivative",
    "rl_right_derivative",
    "run",
    "run_system",
    "scaling_exponent_probe",
    "system_dimension_bound",
    "t_natural",
    "tune_amplitude",
    "weak_form_residual",
    "__version__",
]
