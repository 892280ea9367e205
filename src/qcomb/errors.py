"""Every exception qcomb raises on purpose.  Each class derives from one
of two bases, which carries the command line's exit code: Violation (1)
or InputError (2)."""


class Violation(Exception):
    """A checked property fails."""

    exit_code = 1


class InputError(Exception):
    """An input is malformed, outside its domain or over a size budget."""

    exit_code = 2


class LawViolation(Violation):
    """A realization law (adjoint, tensor or loop) fails."""


class ClosureViolation(Violation):
    """A restricted fusion product escapes its admissible set."""


class NonBinaryEntry(Violation):
    """An adjacency entry of a classical tree is not 0 or 1."""


class TooLarge(InputError):
    """A frame, tree, matrix or run is over its size budget."""


class NoCatalogMatch(InputError):
    """A generated word set or module matches no catalog entry (a bug, or
    a bound too small)."""


class PreconditionViolated(InputError):
    """A word does not meet the precondition of the reduction."""


class NotInSet(InputError):
    """A word lies outside the admissible set an operation needs."""


class MalformedWord(InputError):
    """A wreath or free-product word is not well formed."""


class ShapeMismatch(InputError):
    """Realizations or partitions of different shapes were combined."""


class NotInCategory(InputError):
    """A partition lies outside the category or universe at hand."""


class NotFactorizable(InputError):
    """A projective partition has no through-block to factor at."""


class NotUnitary(InputError):
    """A matrix that must be unitary is not, within the tolerance."""
