"""Shared exception types, the key and number rules of outside input, the
config field check and the one converter of malformed-file errors.

A ConfigError is the one usage error: only the owner of a rule for a value
read from outside (a flag, a config key, a file) raises it, and `cli.main`
ends it in exit 2. Any other ValueError is a defect or a misuse of the API."""

import contextlib
import dataclasses
import math
import numbers


class ConfigError(ValueError):
    """A value read from outside (a flag, a config key or a file) breaks its rule."""


class NumericError(RuntimeError):
    """Non-finite values encountered during computation."""


def brief(value) -> str:
    """What a message shows of a value read from outside: its repr, cut to 24 characters."""
    text = repr(value)
    return text if len(text) <= 24 else text[:21] + "..."


def check_keys(what: str, d, keys, required=()) -> None:
    """The key rule of outside input: `d` is a dict with no key outside `keys` and
    every key in `required`, else ConfigError naming `what` and up to four keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for problem, found in (("unknown", d.keys() - set(keys)), ("missing", set(required) - d.keys())):
        if found:
            more = f" and {len(found) - 4} more" if len(found) > 4 else ""
            raise ConfigError(f"{what} has {problem} keys {sorted(found)[:4]}{more}")


def check_number(name: str, value, kind=numbers.Real) -> None:
    """The number rule of outside input, else ConfigError naming `name`: `value` is
    a `kind`, never a bool; an integer fits an int64, any other number is finite."""
    if isinstance(value, numbers.Integral):
        ok = not isinstance(value, bool) and -2 ** 63 <= value < 2 ** 63
    else:
        ok = kind is numbers.Real and isinstance(value, numbers.Real) and math.isfinite(value)
    if not ok:
        want = "a 64-bit integer" if kind is numbers.Integral else "a finite number"
        raise ConfigError(f"{name} {brief(value)} is not {want}")


def check_fields(config, counts=()) -> None:
    """Raise ConfigError naming the first field of the dataclass `config`
    whose value breaks its default's type: an int field holds an integer and
    a float field any number, each by `check_number`; a bool or str field
    holds a value of that type. A field named in `counts` is at least 1."""
    for f in dataclasses.fields(config):
        value, want = getattr(config, f.name), type(f.default)
        if want in (int, float):
            check_number(f.name, value, numbers.Integral if want is int else numbers.Real)
        elif not isinstance(value, want):
            raise ConfigError(f"{f.name} {brief(value)} must be {want.__name__}")
        if f.name in counts and value < 1:
            raise ConfigError(f"{f.name} {value!r} must be >= 1")


@contextlib.contextmanager
def file_errors(kind: str, path):
    """Turn what a malformed file makes its reader raise into a one-line
    ConfigError naming the file: the ValueError of a rule the file breaks (a
    ConfigError, or json's bad UTF-8 or over-long integer) or the
    RecursionError of nesting too deep. Any other error is a defect and
    passes through."""
    try:
        yield
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"{kind} {path}: {err}") from None
