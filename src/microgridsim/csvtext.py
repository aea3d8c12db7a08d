"""Comma-separated data lines read by numpy's C reader, where its reading is Python's.

The results reader (engine) and the weather-trace reader (weather) parse
their data lines here first, and read them with the csv module, int()
and float() wherever :func:`loadtxt_columns` returns None.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

# Characters that send lines to Python's reading.  numpy's C reader and the
# csv module can split quoted text apart: numpy takes a quote left open at
# the end of its input as a cell.  And numpy strips the ASCII information
# separators around a number, as str.isspace() counts them, but int() and
# float() reject them.
_PYTHON_ONLY = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def loadtxt_columns(lines: list[str], dtype: np.dtype, converters=None) -> np.ndarray | None:
    """The rows of lines, one per line, as a 1-D record array of dtype, or None.

    numpy calls converters[column], if given, on each cell of the column,
    in row order, for its field's value.  None where Python could read a
    cell of the lines otherwise: they hold a character of _PYTHON_ONLY, a
    line is longer than the csv module's field limit (at which csv
    raises), numpy raises or warns, or numpy does not give one row per
    line: it skips a blank line, which the csv module reads as an empty
    row for the caller to skip, so lines with a blank one go to Python's
    reading.  numpy releases that still read an int cell such as '1.0'
    or '1e3' through float, truncating it, only warn (DeprecationWarning)
    where int() raises.  Where an array is returned, its rows are those
    of csv.reader, their numbers as int() and float() read them.
    """
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    text = "".join(lines)
    if any(map(text.__contains__, _PYTHON_ONLY)):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1, converters=converters)
        except (ValueError, Warning):
            return None
    return table if len(table) == len(lines) else None
