"""Exception hierarchy shared across the package.

Every failure mode a caller may want to branch on gets its own class;
the CLI maps these onto stable exit codes.
"""


class PatternforgeError(Exception):
    """Base class for all package-specific errors."""


class RangeError(PatternforgeError):
    """An axis, index, or interval argument is out of range."""


class StructureError(PatternforgeError):
    """Structurally incompatible arguments (dimension mismatch, malformed witness)."""


class TensorParseError(PatternforgeError):
    """Malformed tensor text or JSON. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(PatternforgeError):
    """A documented operation precondition does not hold for these inputs."""


class BudgetExceededError(PatternforgeError):
    """Search budget exhausted: the decision is undecided, not false."""


class VerificationError(PatternforgeError):
    """A checked construction or stored record failed its own verification.

    This signals an implementation or data-integrity bug, never bad user input.
    """

