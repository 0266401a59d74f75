"""Exception hierarchy shared by all rsadyn modules."""


class RsadynError(Exception):
    """Base class for all package errors."""


class ValidationError(RsadynError):
    """Invalid arguments or parameter combinations (CLI exit code 2)."""


class NotSalemError(RsadynError):
    """Root distribution violates the Salem definition (CLI exit code 3)."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class NumericFailureError(RsadynError):
    """An iterative numeric procedure missed its residual target."""


class ConsistencyError(RsadynError):
    """Two independent computations of the same quantity disagree."""


class InternalConsistencyError(RsadynError):
    """A should-be-impossible algebraic condition (e.g. inexact division)."""


class ExceptionalLocusError(RsadynError):
    """Affine map evaluated on its exceptional curve (y = 0)."""


class IndeterminatePointError(RsadynError):
    """Projective map evaluated at a point of indeterminacy."""


class DegenerateParameterError(RsadynError):
    """Parameter value outside the family's treated range (e.g. 1+delta-c = 0)."""


class ChartEscapeError(RsadynError):
    """A chart map left its domain of validity."""


class DivisionDegeneracyError(RsadynError):
    """A denominator in a telescoped identity vanished."""


class PatternViolationError(RsadynError):
    """A marked orbit failed to land on the expected exceptional fiber."""


class CompositionDomainError(RsadynError):
    """Series composition target has a nonzero constant term."""


class StructureViolationError(RsadynError):
    """A series coefficient fell outside its asserted monomial class."""


class FixtureMismatchError(RsadynError):
    """Derived fixture data violates one of its gate facts."""


class PropertyViolationError(RsadynError):
    """A sampled closure/property check found a counterexample."""
