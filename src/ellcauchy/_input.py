"""The package's rules for input from outside it, one per kind of input,
and its one rule for a per-member result leaving it."""

from __future__ import annotations

import operator

import numpy as np


def as_numbers(a, what):
    """An array-like of numbers as a complex array.  Anything else (None, a
    string, a bool, an object), also among its entries, raises TypeError
    naming ``what`` and its dtype, where a cast to complex would read it as
    NaN, parse it or read a bool as 1; so does an int no double holds.  A
    ragged sequence raises ValueError naming ``what``.  An ndarray or numpy
    scalar passes by its dtype, with no loop."""
    if not isinstance(a, (np.ndarray, np.generic)):
        # an int that numpy holds only as an object is a number
        for v in np.asarray(a, dtype=object).flat:
            if not (type(v) is int or np.asarray(v).dtype.kind in "iufc"):
                raise TypeError(f"{what} must be numbers, not of dtype {np.asarray(v).dtype}")
        try:
            a = np.asarray(a, dtype=complex)
        except OverflowError:
            raise TypeError(f"{what} must be numbers a double holds") from None
        except ValueError:
            raise ValueError(f"{what} must be a rectangular array, not a ragged sequence") from None
    arr = np.asarray(a)
    if arr.dtype.kind not in "iufc":
        raise TypeError(f"{what} must be numbers, not of dtype {arr.dtype}")
    return arr if arr.dtype == complex else arr.astype(complex)


def as_number(x, what):
    """One number as a Python complex, by :func:`as_numbers`; an array raises TypeError too."""
    arr = as_numbers(x, what)
    if arr.ndim:
        raise TypeError(f"{what} must be one number, not an array of shape {arr.shape}")
    return arr.item()


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
    it is by :func:`as_integer`; an integer array passes with no loop.  A
    ragged sequence raises ValueError naming ``what``."""
    if isinstance(a, (np.ndarray, np.integer)) and a.dtype.kind in "iu":
        return np.asarray(a)
    entries = np.asarray(a, dtype=object)
    try:
        arr = np.asarray(a, dtype=None if entries.size else int)  # [] as int, not float
    except ValueError:
        raise ValueError(f"{what} must be a rectangular array, not a ragged sequence") from None
    for v in entries.flat:
        try:
            as_integer(v, what)
        except TypeError:
            raise TypeError(f"{what} must be integers, not of dtype {np.asarray(v).dtype}") from None
    return arr if arr.dtype.kind in "iu" else entries  # [-1, 2**63], which numpy reads as floats


def as_result(v):
    """A per-member value leaving the package: a stack's array as is, one
    member's as ``v.item()``, which keeps a dtype such as ``np.clongdouble``."""
    return v.item() if v.ndim == 0 else v
