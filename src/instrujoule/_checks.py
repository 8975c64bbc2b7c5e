"""The two rules for a parameter: a number or an integer count, never a bool, within its bounds."""

from __future__ import annotations

import math

import numpy as np

# concrete types: isinstance checks on the numbers ABCs made the model check 3.7 times as slow;
# a bool is an int, and np.bool_ is neither an integer nor a float
_INTEGER = (int, np.integer)
_NUMBER = (float, np.floating) + _INTEGER


def check_number(name: str, value, bound: str | None = None, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a number, ``> 0`` or ``>= 0`` as
    ``bound`` says (None: any sign), and finite, checked in that order."""
    # a finite float, the common case, passes the first and last checks: only its bound is left
    finite_float = type(value) is float and math.isfinite(value)
    if not finite_float and (not isinstance(value, _NUMBER) or isinstance(value, bool)):
        raise error(f"{name} must be a number, got {value!r}")
    if bound == "> 0" and not value > 0 or bound == ">= 0" and not value >= 0:
        raise error(f"{name} must be {bound}, got {_digits(value)}")
    if finite_float:
        return
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past float range
        raise error(f"{name} is too large for a float") from None
    if not finite:
        raise error(f"{name} must be finite, got {value}")


def check_integer(name: str, value, low: int, high: float | None = None, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an int or numpy integer from ``low``
    up to ``high`` (None: no ceiling), checked in that order."""
    if type(value) is not int and (not isinstance(value, _INTEGER) or isinstance(value, bool)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {_digits(value)}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {_digits(value)}")


def _digits(value) -> str:
    try:
        return str(value)
    except ValueError:  # more digits than Python converts an int to text
        return f"an integer of {value.bit_length()} bits"
