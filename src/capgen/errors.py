"""Exception types shared across the package."""


class CapgenError(Exception):
    """Base class for every package-specific error."""


class ShapeError(CapgenError, ValueError):
    """Operands have incompatible shapes or ranks."""


class ClipShapeError(ShapeError):
    """One clip of a decode call does not fit the decoder.  ``clip`` is its
    place among the call's clips and ``detail`` says what does not fit, so
    a caller that knows the clips by name can name it."""

    def __init__(self, clip: int, clips: int, detail: str):
        super().__init__(f"clip {clip} of {clips} {detail}")
        self.clip = clip
        self.detail = detail


class EmptyInputError(ShapeError):
    """An operation received an empty feature set or sequence."""


class DomainError(CapgenError, ValueError):
    """A value lies outside the mathematical domain of the operation."""


class ContractError(CapgenError, ValueError):
    """A documented precondition was violated by the caller."""


class VocabularyError(CapgenError, LookupError):
    """A token or token id is not covered by the vocabulary."""


class ConfigError(CapgenError, ValueError):
    """Invalid or inconsistent configuration."""


class FormatError(CapgenError, ValueError):
    """A serialized file violates its declared binary or text format."""
