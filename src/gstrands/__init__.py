"""Strand field equations on Lie algebras: solvers for the reduced
(Euler-Poincare type) equations and their zero-curvature companions,
momentum-map (Clebsch) representations, singular peakon dynamics, and
discrete variational stationarity diagnostics."""

from . import clebsch, config, gstrand, kernels, liealg, peakon, verify
from .errors import (BlowUpError, ConfigParseError, ConfigValidationError,
                     DimensionMismatchError, GStrandsError, InvalidParameterError,
                     NearCollisionError)
from .gstrand import QuadraticLagrangian, StrandField, StrandGrid, chiral_lagrangian
from .kernels import HelmholtzKernel
from .liealg import LieAlgebraSpec, builtin

__all__ = [
    "BlowUpError", "ConfigParseError", "ConfigValidationError",
    "DimensionMismatchError", "GStrandsError", "HelmholtzKernel",
    "InvalidParameterError", "LieAlgebraSpec", "NearCollisionError",
    "QuadraticLagrangian", "StrandField", "StrandGrid", "builtin", "chiral_lagrangian",
    "clebsch", "config", "gstrand", "kernels", "liealg", "peakon", "verify",
]
