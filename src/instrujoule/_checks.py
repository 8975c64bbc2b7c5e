"""The one rule for a numeric parameter: a number, not a bool, within its bound, finite."""

from __future__ import annotations

import math

import numpy as np

# concrete types: isinstance checks on the numbers ABCs made the model check 3.7 times as slow
_INTEGER = (int, np.integer)
_NUMBER = (float, np.floating) + _INTEGER


def is_integer(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, _INTEGER) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int, float or numpy integer or float, not a bool (nor ``np.bool_``, which is neither)."""
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def check_number(name: str, value, bound: str | None = None, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a number, ``> 0`` or ``>= 0`` as
    ``bound`` says (None: any sign), and finite, checked in that order."""
    # a finite float, the common case, passes the first and last checks: only its bound is left
    finite_float = type(value) is float and math.isfinite(value)
    if not finite_float and not is_number(value):
        raise error(f"{name} must be a number, got {value!r}")
    if bound == "> 0" and not value > 0 or bound == ">= 0" and not value >= 0:
        raise error(f"{name} must be {bound}, got {value}")
    if finite_float:
        return
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past float range
        raise error(f"{name} is too large for a float") from None
    if not finite:
        raise error(f"{name} must be finite, got {value}")
