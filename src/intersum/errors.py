"""Exception types shared across the package.

Every rejected input maps to one of these, so callers (and the CLI exit-code
logic) can distinguish bad arguments from resource refusals and from genuine
mathematical failures.
"""


class IntersumError(Exception):
    """Base class for all package-specific errors."""


class BadElementError(IntersumError):
    """An element lies outside the ground set 1..n."""


class BadSizeError(IntersumError):
    """A set has the wrong cardinality, or k/n are out of range."""


class DuplicateSetError(IntersumError):
    """A family was given the same set twice."""


class GroundMismatchError(IntersumError):
    """Two objects that must share a ground set do not."""


class TooLargeError(IntersumError):
    """The instance exceeds a documented enumeration or representation limit.

    Raised instead of silently running forever; the CLI maps this to its
    resource exit code.
    """


class HypothesisError(IntersumError):
    """A theorem's hypothesis does not hold for these parameters.

    Bound evaluators refuse to report a value outside the regime where the
    closed form is proved.
    """


class NotExhaustiveError(IntersumError):
    """An operation that promises exhaustiveness was asked to skip it."""


class InternalError(IntersumError):
    """The program's own bookkeeping disagrees with an independent recount.

    A bug, not a mathematical finding: the CLI maps it to its own exit code
    so it is never mistaken for a counterexample.
    """


class CounterexampleError(IntersumError):
    """A search produced a value exceeding a proved bound.

    This should never happen; if it does, either the implementation is wrong
    or the mathematics is.  The offending witness is attached.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
