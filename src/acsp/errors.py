"""Exception types shared across the package.

Everything raised on purpose derives from AcspError so the CLI can map
failures to a single machine-parseable error line.
"""


class AcspError(Exception):
    """Base class for all errors this package raises deliberately."""


class BadMagic(AcspError):
    """File does not start with the container magic."""


class VersionMismatch(AcspError):
    """Container format version is not supported."""


class TruncatedFile(AcspError):
    """File ends early, or carries bytes beyond the declared payload."""


class WrongKind(AcspError):
    """Container holds a different payload kind than the reader expects."""


class NonFiniteValue(AcspError):
    """A tensor holds NaN or Inf, or a value beyond float32's range."""


class InvalidDataset(AcspError):
    """Labeled dataset violates a structural invariant."""


class MalformedPlan(AcspError):
    """Pruning plan is syntactically or semantically invalid."""


class ShapeMismatch(AcspError):
    """Tensor shape is incompatible with a layer or model."""


class Divergence(AcspError):
    """Training produced a non-finite loss or non-finite weights."""


class BadParams(AcspError):
    """An argument is out of range or of the wrong type."""


class ParseError(AcspError):
    """Architecture string is malformed; `offset` is the failing position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
