"""The ``key = value`` reader behind every config file."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConfigError

# Fraction expands an exponent into an integer power of ten; cap it
_HUGE_EXPONENT = re.compile(r"[eE][+-]?0*[0-9]{4}")


def rational(text):
    """Exact rational from text such as ``3``, ``-1/8``, ``0.25`` or ``2e-5``."""
    try:
        if not _HUGE_EXPONENT.search(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"malformed number {text!r}")


def real(text):
    return float(rational(text))


def reals(text):
    """Comma-separated list of reals, e.g. ``1/8,1/16``."""
    return tuple(real(part.strip()) for part in text.split(","))


def ints(text):
    return tuple(int(part) for part in text.split(","))


def read_config(text, converter):
    """Read ``key = value`` lines into a dict of converted values.

    Blank lines and ``#`` comments are skipped; a repeated key keeps its
    last value.  ``converter(key)`` returns the function that converts
    the value text of ``key``, or None when the key is unknown.  A line
    without ``=``, an unknown key, or a value that its converter rejects
    raises ConfigError.
    """
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"malformed line {raw!r}")
        convert = converter(key)
        if convert is None:
            raise ConfigError(f"unknown key {key!r}")
        try:
            fields[key] = convert(value)
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError(f"malformed value for {key!r}: {value!r}") from exc
    return fields
