"""Shared exception types and the field check of the config dataclasses."""

import dataclasses


class ConfigError(ValueError):
    """Invalid or inconsistent configuration / usage."""


class NumericError(RuntimeError):
    """Non-finite values encountered during computation."""


def check_fields(config, counts=()) -> None:
    """Raise ConfigError naming the first field of the dataclass `config`
    whose value has another type than its default (an int passes for a
    float, a bool for nothing else), or, if the field is named in `counts`,
    is below 1."""
    for f in dataclasses.fields(config):
        value, want = getattr(config, f.name), type(f.default)
        kinds = (int, float) if want is float else want
        if isinstance(value, bool) != (want is bool) or not isinstance(value, kinds):
            raise ConfigError(f"{f.name} {value!r} must be {want.__name__}")
        if f.name in counts and value < 1:
            raise ConfigError(f"{f.name} {value!r} must be >= 1")
