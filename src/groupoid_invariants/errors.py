"""Exception types shared across the toolkit."""


class BoundExceeded(RuntimeError):
    """A configured search or enumeration bound was exceeded.

    Raised instead of silently returning a possibly-wrong answer.
    """


class InternalError(RuntimeError):
    """A consistency or witness check inside the library failed.

    Signals a defect in the program, never a bad input or an exceeded bound.
    """


class IncompatibleParameters(ValueError):
    """Two table elements with different (n, k) data were combined."""


class SftValidationError(ValueError):
    """An adjacency matrix failed one of the SFT admissibility conditions.

    ``condition`` names the failed check so callers can report it.
    """

    condition = "Invalid"

    def __init__(self, message, factor_index=None):
        super().__init__(message)
        self.factor_index = factor_index


class NotSquare(SftValidationError):
    condition = "NotSquare"


class NegativeEntry(SftValidationError):
    condition = "NegativeEntry"


class Reducible(SftValidationError):
    condition = "Reducible"


class PermutationMatrix(SftValidationError):
    condition = "PermutationMatrix"


class ParseError(ValueError):
    """Malformed input: a document or value that does not parse, or a
    parameter outside its range (an index bound, a target order, an arity
    list)."""
