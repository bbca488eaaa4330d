"""Strand field equations on Lie algebras: solvers for the reduced
(Euler-Poincare type) equations and their zero-curvature companions,
momentum-map (Clebsch) representations, singular peakon dynamics, and
discrete variational stationarity diagnostics.

``import gstrands`` loads only the error classes.  Each submodule and each
re-exported name loads on first access (PEP 562), so a process pays only for
the layers it uses: an algebra built through the API loads no config layer,
and a config load no solver."""

import importlib

from .errors import (BlowUpError, ConfigParseError, ConfigValidationError,
                     DimensionMismatchError, GStrandsError, InvalidParameterError,
                     NearCollisionError)

__all__ = [
    "BlowUpError", "ConfigParseError", "ConfigValidationError",
    "DimensionMismatchError", "GStrandsError", "HelmholtzKernel",
    "InvalidParameterError", "LieAlgebraSpec", "NearCollisionError",
    "QuadraticLagrangian", "StrandField", "StrandGrid", "builtin", "chiral_lagrangian",
    "clebsch", "config", "gstrand", "kernels", "liealg", "peakon", "verify",
]

_SUBMODULES = {"clebsch", "config", "gstrand", "kernels", "liealg", "peakon", "verify"}
# re-exported name -> the submodule that defines it
_REEXPORTS = {
    "QuadraticLagrangian": "gstrand", "StrandField": "gstrand", "StrandGrid": "gstrand",
    "chiral_lagrangian": "gstrand", "HelmholtzKernel": "kernels",
    "LieAlgebraSpec": "liealg", "builtin": "liealg",
}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds it on the package
    if name in _REEXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_REEXPORTS[name]}"), name)
        globals()[name] = value  # later lookups skip __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
