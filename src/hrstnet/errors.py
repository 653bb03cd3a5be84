"""Exception hierarchy shared by all engine modules."""


class HRSTError(Exception):
    """Base class for every error raised by this package."""


class FormatError(HRSTError):
    """A binary container violated its declared layout (magic, version, lengths)."""


class PersistenceError(HRSTError):
    """An I/O operation failed; the message carries the offending path."""


class ShapeError(HRSTError):
    """Operands have incompatible shapes, dims or channel counts."""


class ConfigError(HRSTError):
    """A configuration value violates a documented invariant."""


class CropError(HRSTError):
    """A requested crop does not fit inside the source volume."""


class NumericError(HRSTError):
    """A numeric failure (NaN/Inf) was detected; fail fast, no partial state."""


class MappingError(HRSTError):
    """A label id is not covered by the active region specification."""


class CheckpointError(HRSTError):
    """A checkpoint cannot be written or read: I/O, truncation, version or schema."""
