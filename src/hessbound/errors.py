"""Exception types shared across the package."""

import re

# a run of more than 40 non-space characters, such as a digit run or a name
# quoted from user input; the package's own words are far shorter
_LONG_RUN = re.compile(r"\S{41,}")


def shown(value) -> str:
    """``repr(value)``, or a placeholder for an int past repr's 4300 digits, also in a container."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to show>"


class HessboundError(Exception):
    """Base class for all errors raised by this package.

    Its text keeps the first and last 16 characters of each long run, so a
    message that quotes user input stays short; a cut text is not cut again.
    """

    def __str__(self):
        return _LONG_RUN.sub(lambda run: f"{run[0][:16]}...{run[0][-16:]}", super().__str__())

    def __reduce__(self):
        # rebuilt from its args and attributes, not by calling __init__ again:
        # the __init__ of DomainViolation, ExpressionSyntaxError and
        # MalformedCodelist takes other arguments than the message it stores,
        # and run_compare may have prefixed an entry name to that message
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    err = cls.__new__(cls, *args)
    err.__dict__.update(state)
    return err


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


class InvalidArgument(HessboundError, ValueError):
    """An argument is not of the kind the operation takes: an interval
    endpoint that is not a real number, an exponent that is not a natural
    number, a malformed box text or corpus file, an unknown report format."""


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
