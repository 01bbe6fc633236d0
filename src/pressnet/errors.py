"""Exception types shared across the package."""


class PressnetError(Exception):
    """Base class for all package errors."""


class ShapeError(PressnetError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigError(PressnetError):
    """A configuration value is out of its legal range or inconsistent."""


class NumericFault(PressnetError):
    """A computation met or would produce a NaN/Inf or undefined value."""


class ParseError(PressnetError):
    """A dataset file could not be parsed; message names file and record."""


class LabelError(PressnetError):
    """A class label is outside the legal range."""


class CheckpointError(PressnetError):
    """A checkpoint file is corrupt, truncated, or version-incompatible."""


class TrainingFault(PressnetError):
    """Training aborted (e.g. NaN loss); message names epoch and batch."""


class UsageError(PressnetError):
    """An API was called out of sequence (e.g. backward without forward)."""
