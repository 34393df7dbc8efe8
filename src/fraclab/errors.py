"""Exception types shared across the package, one per exit code.

An input outside the hypotheses of an operator, identity or run (an order
outside its range, a singular evaluation, incompatible grids, a bad
config) raises :class:`ParameterError`, which the command line reports
with exit code 2.  A numerical failure (a diverged quadrature or run, a
fit that cannot be built) raises :class:`NumericsError`, exit code 3.
:class:`NoInteriorMinimumError` is the one :class:`ParameterError` that
code tells apart: the exponent query reports it as a result.
"""


class FraclabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FraclabError, ValueError):
    """An input violates a range, an ordering or a hypothesis (exit code 2)."""


class NumericsError(FraclabError, RuntimeError):
    """A quadrature, fit or time step produced non-finite or unstable values
    (exit code 3)."""


class NoInteriorMinimumError(ParameterError):
    """The horizon-optimizing bound has no interior minimum for these
    parameters, so the threshold formula degenerates."""
