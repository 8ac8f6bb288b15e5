"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: parse failures exit 2,
size/capacity limits exit 3, domain violations exit 4.
"""


class PermestError(Exception):
    """Base class for all package-specific errors."""


class MatrixParseError(PermestError, ValueError):
    """Malformed matrix file. Carries the 1-based line number, or None when
    the file could not be read at all."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DescriptorError(PermestError, ValueError):
    """Malformed sample-space descriptor string."""


class SizeLimitError(PermestError):
    """Input exceeds the size cap of an exact algorithm."""


class CapacityError(PermestError):
    """Requested parameters exceed an enumerability or audit-cost cap."""


class DomainError(PermestError):
    """Input outside an operation's domain (e.g. negative entries where the
    derandomized certainty guarantee needs nonnegativity)."""


class ConvergenceError(PermestError):
    """A numerical routine failed to converge: LAPACK's SVD in
    ``spectral_norm``."""
