"""Exception types shared across the package, and the one type check of
the config dataclasses."""

from dataclasses import fields


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


# what each config annotation admits; a bool is admitted only as bool
_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_field_types(config) -> None:
    """ConfigError naming the first field of a config dataclass whose value
    its annotation (a string) does not admit; None passes where it is the
    default. A float value is stored as a Python float, so equal configs
    write the same JSON (1 and 1.0 both as 1.0)."""
    for f in fields(config):
        value, kind = getattr(config, f.name), f.type.removesuffix(" | None")
        if value is None and f.default is None:
            continue
        ok = (isinstance(value, bool) is (kind == "bool")
              and isinstance(value, _KINDS[kind]))
        if ok and kind == "float":
            try:
                setattr(config, f.name, float(value))
            except OverflowError:  # an int too large for a float
                ok = False
        if not ok:
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
