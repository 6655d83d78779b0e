"""Exception hierarchy shared across the package.

ValidationError covers bad inputs a caller can fix (malformed files, shape
mismatches, out-of-domain values); the CLI maps it to exit code 1. Everything
else that escapes is treated as a runtime failure (exit code 2).
"""


class BearlabError(Exception):
    """Base class for all package errors."""


class ValidationError(BearlabError):
    """Caller-fixable input problem."""


class ShapeError(ValidationError):
    """Array shapes do not conform to an operation's shape rule."""


class DomainError(ValidationError):
    """Values fall outside an operation's documented domain."""


class ContextLengthError(ValidationError):
    """Token context exceeds the model's maximum context length."""


class ArtifactError(BearlabError):
    """A saved artifact is damaged or incomplete (a runtime failure, not a
    caller-fixable input)."""


class DivergenceError(BearlabError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch_index: int, value: float):
        self.epoch = epoch
        self.batch_index = batch_index
        self.value = value
        super().__init__(
            f"non-finite loss {value!r} at epoch {epoch}, batch {batch_index}"
        )
