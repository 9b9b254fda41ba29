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
    """A stored or computed tensor contains NaN or Inf."""


class InvalidDataset(AcspError):
    """Labeled dataset violates a structural invariant."""


class MalformedPlan(AcspError):
    """Pruning plan is syntactically or semantically invalid."""


class ShapeMismatch(AcspError):
    """Tensor shape is incompatible with a layer or model."""


class NotPrunableLayer(AcspError):
    """Operation targets a layer that cannot be pruned."""


class Divergence(AcspError):
    """Training produced a non-finite loss or non-finite weights."""


class BadK(AcspError):
    """Requested cluster count is outside [2, n_points]."""


class BadRange(AcspError):
    """Sweep bounds or stride are invalid."""


class TooFewPoints(AcspError):
    """Curve is too short for knee detection at the requested degree."""


class BadParams(AcspError):
    """Command or generator parameters are out of range."""


class ParseError(AcspError):
    """Architecture string is malformed; `offset` is the failing position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
