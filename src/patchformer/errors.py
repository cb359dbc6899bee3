"""Exception taxonomy shared across the package."""


class PatchFormerError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(PatchFormerError, ValueError):
    """An operand has the wrong rank or an incompatible axis length."""


class ConfigurationError(PatchFormerError, ValueError):
    """A configuration violates one of its invariants."""


class DataFormatError(PatchFormerError, ValueError):
    """An on-disk artifact is malformed; the message names the byte offset."""


class MetricUndefinedError(PatchFormerError, ValueError):
    """A metric was requested on inputs where it has no defined value."""


class TrainingDivergedError(PatchFormerError, RuntimeError):
    """Training produced non-finite values; the message names the culprit."""


class GraphFreedError(PatchFormerError, RuntimeError):
    """backward() reached a node whose graph an earlier backward() freed."""


class FoldError(PatchFormerError, RuntimeError):
    """A LOSO fold failed with an error from outside the package; the original
    error is chained as the cause and named in the message."""
