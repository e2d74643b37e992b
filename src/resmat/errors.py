"""Exception types shared across the package."""


class UnsupportedDimensionError(ValueError):
    """A dimension outside the supported enumeration range was requested."""


class NotAResidueMatrixError(ValueError):
    """The input matrix fails the residue-matrix membership criterion."""


class RamifiedPrimeError(ValueError):
    """The prime divides the ramified rational prime (3 for Z[w], 2 for Z[i])."""


class SearchExhaustedError(RuntimeError):
    """A bounded deterministic search ran out of candidates.

    Carries enough context to report which progression or norm scan failed:
    the search bound, and for a witness search the 1-based column that
    failed and the number of candidates examined for it.
    """

    def __init__(self, message, *, limit=None, column=None, tried=None):
        super().__init__(message)
        self.limit = limit
        self.column = column
        self.tried = tried
