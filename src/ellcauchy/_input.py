"""The package's rules for input from outside it, one per kind of input."""

from __future__ import annotations

import operator

import numpy as np


def as_numbers(a, what):
    """An array-like of numbers as a complex array.  Anything else (None, a
    string, a bool, an object) raises TypeError naming ``what`` and its
    dtype, where a cast to complex would read it as NaN or parse it."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "iufc":
        raise TypeError(f"{what} must be numbers, not of dtype {arr.dtype}")
    return arr if arr.dtype == complex else arr.astype(complex)


def as_number(x, what):
    """One number as a Python complex, by :func:`as_numbers`; an array raises TypeError too."""
    arr = as_numbers(x, what)
    if arr.ndim:
        raise TypeError(f"{what} must be one number, not an array of shape {arr.shape}")
    return complex(arr)


def as_integer(n, what):
    """One integer as a Python int.  Anything else (a bool, a float, a
    string, None, an array) raises TypeError naming ``what``."""
    try:
        if not isinstance(n, (bool, np.bool_)):  # operator.index reads True as 1
            return operator.index(n)
    except TypeError:
        pass
    raise TypeError(f"{what} must be an integer, not {n!r}")


def as_integers(a, what):
    """An array-like of integers as an array, each entry read as the object
    it is by :func:`as_integer`; an integer array passes with no loop."""
    if isinstance(a, (np.ndarray, np.integer)) and a.dtype.kind in "iu":
        return np.asarray(a)
    entries = np.asarray(a, dtype=object)
    arr = np.asarray(a, dtype=None if entries.size else int)  # [] as int, not float; ragged raises
    for v in entries.flat:
        try:
            as_integer(v, what)
        except TypeError:
            raise TypeError(f"{what} must be integers, not of dtype {np.asarray(v).dtype}") from None
    return arr if arr.dtype.kind in "iu" else entries  # [-1, 2**63], which numpy reads as floats
