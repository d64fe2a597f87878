"""One reader for every tab-separated table the pipeline reads.

The rules are the same for every table. A table the pipeline writes starts
with its exact header line; an external input has no header. Empty lines
are skipped but still counted in line numbers. A path ending in ".gz" is
read through gzip. A malformed row, or a line that is not UTF-8 text,
raises InputError("path:lineno: ...").
"""

from __future__ import annotations

import gzip
import warnings
from typing import Iterator, TextIO

import numpy as np

from .errors import InputError

_DTYPES = {str: object, int: np.int64, float: np.float64}
_INT64 = np.iinfo(np.int64)


def open_text(path: str, errors: str = "strict") -> TextIO:
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors=errors)
    return open(path, encoding="utf-8", errors=errors)


def read_header(path: str) -> tuple[str, ...]:
    """The cells of a table's first line."""
    with open_text(path, errors="surrogateescape") as fh:
        return tuple(_checked(path, 1, fh.readline()).split("\t"))


def read_table(path: str, header: tuple[str, ...] | None,
               types: tuple[type, ...]) -> list:
    """One column per type: int64 or float64 arrays for int and float
    columns, lists of strings for str columns.

    The rows are parsed in one np.loadtxt call; only when it fails is the
    file read again row by row, to name the first bad line.
    """
    dtype = np.dtype([(f"c{i}", _DTYPES[t]) for i, t in enumerate(types)])
    try:
        with open_text(path) as fh:
            if header is not None:
                _check_header(path, fh.readline().rstrip("\n"), header)
            with warnings.catch_warnings():
                # a table with no rows is not an error
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, dtype=dtype, delimiter="\t", comments=None,
                                  encoding="utf-8", ndmin=1)
    except (ValueError, OverflowError):   # UnicodeDecodeError is a ValueError
        return _read_rows(path, header, types)
    return [data[name].tolist() if t is str else data[name].copy()
            for name, t in zip(dtype.names, types)]


def where(path: str, header: tuple[str, ...] | None, row: int) -> str:
    """The "path:lineno" of data row `row` (0-based) of a table read_table
    read, for an error that a reader's own checks find."""
    for i, (lineno, _) in enumerate(_data_lines(path, header)):
        if i == row:
            return f"{path}:{lineno}"
    raise IndexError(row)


def _check_header(path: str, line: str, header: tuple[str, ...]) -> None:
    expected = "\t".join(header)
    if line != expected:
        raise InputError(f"{path}:1: expected header {expected!r}")


def _checked(path: str, lineno: int, line: str) -> str:
    """A line read with errors="surrogateescape", without its newline; a
    byte that was not UTF-8 left a surrogate that cannot be encoded."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InputError(f"{path}:{lineno}: not UTF-8 text at column "
                         f"{exc.start + 1}") from None
    return line.rstrip("\n")


def _data_lines(path: str, header: tuple[str, ...] | None) -> Iterator[tuple[int, str]]:
    """(lineno, line) for each non-empty line after the header; each line is
    checked on its own, so a byte that is not UTF-8 names its line."""
    with open_text(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = _checked(path, lineno, line)
            if lineno == 1 and header is not None:
                _check_header(path, line, header)
            elif line:
                yield lineno, line


def _read_rows(path: str, header: tuple[str, ...] | None,
               types: tuple[type, ...]) -> list:
    """read_table's columns, parsed cell by cell; the first malformed row
    raises InputError naming its line."""
    parsers = [_PARSERS[t] for t in types]
    cols: list[list] = [[] for _ in types]
    for lineno, line in _data_lines(path, header):
        cells = line.split("\t")
        where = f"{path}:{lineno}"
        if len(cells) != len(types):
            raise InputError(f"{where}: expected {len(types)} fields, "
                             f"got {len(cells)}")
        for col, parse, cell in zip(cols, parsers, cells):
            col.append(parse(cell, where))
    return [col if t is str else np.array(col, dtype=_DTYPES[t])
            for col, t in zip(cols, types)]


def _parse_str(text: str, where: str) -> str:
    return text


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{where}: not a number: {text.strip()!r}") from None


def _parse_int(text: str, where: str) -> int:
    try:
        x = int(text)
    except ValueError:
        raise InputError(f"{where}: not an integer: {text.strip()!r}") from None
    if not _INT64.min <= x <= _INT64.max:
        raise InputError(f"{where}: integer out of range: {x}")
    return x


_PARSERS = {str: _parse_str, int: _parse_int, float: _parse_float}
