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

The package root exports no names and imports no submodule: import each
name from the module that defines it (``from fraclab.solver import run``).
"""

__version__ = "0.1.0"
