"""The one rule for input that must be numbers, shared by every module that
reads arrays from outside the package."""

from __future__ import annotations

import numpy as np


def as_numbers(a, what):
    """An array-like of numbers as a complex array.  Anything else (None, a
    string, a bool, an object) raises TypeError naming ``what`` and its
    dtype, where a cast to complex would read it as NaN or parse it."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "iufc":
        raise TypeError(f"{what} must be numbers, not of dtype {arr.dtype}")
    return arr if arr.dtype == complex else arr.astype(complex)
