"""Exception types shared across the package."""


class HessboundError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInterval(HessboundError):
    """Endpoints are not finite or lo > hi."""


class DomainViolation(HessboundError):
    """An operation was applied to an interval outside its domain.

    Signals that the function is not defined (or not twice differentiable)
    on the whole box.
    """

    def __init__(self, kind, interval, line=None):
        self.kind = kind
        self.interval = interval
        self.line = line
        where = f" at codelist line {line}" if line is not None else ""
        super().__init__(f"{kind} undefined on {interval}{where}")


class EmptySlice(HessboundError):
    """A box with no component was requested."""


class LengthMismatch(HessboundError, ValueError):
    """Two boxes, or a box or points and a codelist, differ in dimension."""


class ExpressionSyntaxError(HessboundError):
    """Expression text could not be parsed."""

    def __init__(self, position, message):
        self.position = position
        super().__init__(f"syntax error at position {position}: {message}")


class UnknownVariable(HessboundError):
    """A variable name outside x1..xn was used."""


class ConstantExpression(HessboundError):
    """The expression does not depend on any variable."""


class MalformedCodelist(HessboundError):
    """A structural invariant of the codelist is violated."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DimensionTooLarge(HessboundError):
    """Vertex enumeration was requested for a matrix above the size limit."""


class NotSymmetric(HessboundError):
    """A matrix expected to be symmetric is not."""


class PointOutsideBox(HessboundError):
    """An evaluation point lies outside the given box."""


class InconsistentInputs(HessboundError):
    """Classification inputs violate the Hertz-Rohn-within-Gershgorin premise."""
