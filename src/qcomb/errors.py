"""Every exception qcomb raises on purpose.  Each class derives from one
of two bases, which carries the command line's exit code: Violation (1)
or InputError (2).  InputError is a ValueError, so a caller that catches
ValueError for a bad argument still catches it.  The one other exception
raised on purpose is the ZeroDivisionError of qgraph.Quad.inverse, which
follows the arithmetic protocol of Fraction.  Any other exception is a
bug, and the command line lets it through with its traceback."""


class Violation(Exception):
    """A checked property fails."""

    exit_code = 1


class InputError(ValueError):
    """An input is malformed, outside its domain or over a size budget."""

    exit_code = 2


class LawViolation(Violation):
    """A realization law (adjoint, tensor or loop) fails."""


class ClosureViolation(Violation):
    """A restricted fusion product escapes its admissible set."""


class TooLarge(InputError):
    """A frame, tree, matrix or run is over its size budget."""


class NoCatalogMatch(InputError):
    """A generated word set matches no catalog entry (a bug, or a bound
    too small), or a category has no module catalog."""


class PreconditionViolated(InputError):
    """A word does not meet the precondition of the reduction."""


class NotInSet(InputError):
    """A word lies outside the admissible set an operation needs."""


class MalformedWord(InputError):
    """A word or a free-product word is not well formed."""


class ShapeMismatch(InputError):
    """Realizations or partitions whose shapes do not fit the operation."""


class NotInCategory(InputError):
    """A partition lies outside the category or universe at hand."""


class NotUnitary(InputError):
    """A matrix that must be unitary is not: V V* differs from the identity."""
