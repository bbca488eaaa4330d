"""Exception hierarchy. Every error carries a machine-readable category used
by the CLI to pick exit codes and report failure classes."""


class GStrandsError(Exception):
    """Base class; ``category`` is one of parse, validation, near-collision,
    blow-up, io, usage."""

    category = "usage"


class DimensionMismatchError(GStrandsError):
    category = "validation"


class UnsupportedAlgebraError(GStrandsError):
    category = "validation"


class InvalidParameterError(GStrandsError):
    category = "validation"


class SolverError(GStrandsError):
    """A failure while stepping.  ``step_index`` is the 0-based step during
    which it was detected and ``t`` the time that step ends at.  The initial
    slave solve has t = 0 and no step index; both are None until located."""

    def __init__(self, message, step_index=None, t=None):
        super().__init__(message)
        self.step_index = step_index
        self.t = t


class NearCollisionError(SolverError):
    """Peakons crossed, came within the collision gap, or made a Gram system
    too ill-conditioned to solve."""

    category = "near-collision"


class BlowUpError(SolverError):
    category = "blow-up"


class ConfigParseError(GStrandsError):
    category = "parse"

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ConfigValidationError(GStrandsError):
    category = "validation"

    def __init__(self, message, code="invalid", field=None):
        super().__init__(message)
        self.code = code
        self.field = field


class OutputError(GStrandsError):
    category = "io"
