"""One reader and one writer for every tab-separated table the pipeline
reads or writes, the reader and writer of every JSON file, and the one
decoder (`decode`) of the JSON objects that configure a run or a corpus.

The rules are the same for every table. A table the pipeline writes starts
with its exact header line; an external input has no header. A float cell
is written as its repr, so it reads back to the same bits. Empty lines are
skipped but still counted in line numbers. A path ending in ".gz" is read
through gzip. A malformed row, or a line that is not UTF-8 text, raises
InputError("path:lineno: ..."), and so does a JSON file that does not parse.

Every write goes to `path + ".tmp"`, renamed onto `path` once complete: a
crash or an interrupt of the process leaves the old file or the new one,
never a part of one. There is no fsync, so a power loss still can.
"""

from __future__ import annotations

import collections.abc
import contextlib
import dataclasses
import functools
import gzip
import itertools
import json
import os
import types
import typing
import warnings
from typing import Callable, Iterable, Iterator, TextIO

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


def write_table(path: str, header: tuple[str, ...] | None,
                columns: Iterable[Iterable]) -> None:
    """One row per position of the columns, which have one length, under
    `header` (None for an external input format, which has no header)."""
    with _replacing(path) as fh:
        if header is not None:
            fh.write("\t".join(header) + "\n")
        rows = map("\t".join, zip(*map(_cells, columns), strict=True))
        # one write per block of rows: a write per row costs more than its text
        while block := list(itertools.islice(rows, 4096)):
            fh.write("\n".join(block) + "\n")


def write_json(payload, path: str) -> None:
    """Compact JSON with sorted keys and a trailing newline: the byte format
    of every JSON report."""
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path: str) -> dict:
    """The object in a JSON file; a file that is not UTF-8 JSON text, or
    whose top-level value is not an object, raises InputError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{lineno}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object, got "
                         f"{type(payload).__name__}")
    return payload


def decode(cls, obj):
    """An instance of the dataclass `cls` built from the JSON object `obj`,
    each value checked against its field's annotation:

    * `bool` is true or false, and `int` an integer that is not one;
    * `float` is a number, and an integer is kept as given;
    * `str` is a string, and `X | None` is X or null;
    * `tuple[T, ...]`, or a fixed `tuple[T, T]`, is a list (or a tuple) of T,
      and becomes a tuple;
    * `Mapping[str, T]` is an object of T;
    * a nested dataclass is an object, decoded by the same rules.

    A key that names no field, a missing field without a default, or a value
    of the wrong type raises ValueError naming the first such key by its
    path (`pages.clean.x_min`). A field annotated otherwise raises TypeError,
    whatever `obj` holds.
    """
    return _object(cls, obj, "")


def _object(cls, obj, key: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{key or 'the top-level value'} must be an object, "
                         f"not {obj!r}")
    prefix = key + "." if key else ""
    fields = _fields(cls)
    unknown = sorted(obj.keys() - fields.keys())
    if unknown:
        raise ValueError(f"unknown key {prefix + unknown[0]!r}")
    kwargs = {}
    for name, (value_of, required) in fields.items():
        if name in obj:
            kwargs[name] = value_of(obj[name], prefix + name)
        elif required:
            raise ValueError(f"missing key {prefix + name!r}")
    return cls(**kwargs)


@functools.cache
def _fields(cls) -> dict[str, tuple[Callable[[object, str], object], bool]]:
    """Each field's decoder and whether the field has no default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_decoder(hints[f.name]),
                     f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# a scalar annotation: its test, one value of it, several
_SCALARS: dict[type, tuple[Callable[[object], bool], str, str]] = {
    bool: (lambda v: isinstance(v, bool), "true or false", "booleans"),
    int: (_is_int, "an integer", "integers"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number", "numbers"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
}


def _decoder(hint) -> Callable[[object, str], object]:
    """The decoder of one annotation: (value, key) in, the field's value out."""
    if dataclasses.is_dataclass(hint):
        _fields(hint)
        return lambda v, key: _object(hint, v, key)
    test, kind = _rule(hint)

    def value_of(v, key: str):
        if not test(v):
            raise ValueError(f"{key} must be {kind}, not {v!r}")
        return tuple(v) if isinstance(v, list) else v
    return value_of


def _rule(hint) -> tuple[Callable[[object], bool], str]:
    """The test and the description of a non-dataclass annotation."""
    if hint in _SCALARS:
        return _SCALARS[hint][:2]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType and len(args) == 2 and type(None) in args:
        test, kind = _rule(args[args[0] is type(None)])
        return (lambda v: v is None or test(v)), f"{kind} or null"
    if origin is tuple and args and args[0] in _SCALARS \
            and set(args) <= {args[0], ...}:
        test, _, many = _SCALARS[args[0]]
        n = None if args[-1] is ... else len(args)   # tuple[T, ...] or n Ts
        return (lambda v: isinstance(v, (list, tuple)) and all(map(test, v))
                and (n is None or len(v) == n),
                f"a list of {many}" if n is None else f"a list of {n} {many}")
    if origin is collections.abc.Mapping and args[0] is str and args[1] in _SCALARS:
        test, _, many = _SCALARS[args[1]]
        return (lambda v: isinstance(v, dict) and all(map(test, v.values())),
                f"an object of {many}")
    raise TypeError(f"no JSON rule for the annotation {hint!r}")


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A text file that becomes `path` only if the block completes; on any
    exception, KeyboardInterrupt included, the temp file is removed."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_NO_VALUE = object()


def _cells(column: Iterable) -> Iterator[str]:
    """A column's text: an array's Python scalars, each through str, which
    for a float is its repr. The formatter is chosen once, by the first
    value: a column of str is left as it is, and must hold only str. A
    float64 array is formatted one distinct bit pattern at a time, so a
    repeated value costs an index, not a repr."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits, which = np.unique(column.view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        return iter(text[which].tolist())
    values = iter(column.tolist() if isinstance(column, np.ndarray) else column)
    first = next(values, _NO_VALUE)
    if first is _NO_VALUE:
        return values
    values = itertools.chain((first,), values)
    return values if type(first) is str else map(str, values)


def where(path: str, header: tuple[str, ...] | None, row: int) -> str:
    """The "path:lineno" of data row `row` (0-based) of a table read_table
    read, for an error that a reader's own checks find."""
    for i, (lineno, _) in enumerate(_data_lines(path, header)):
        if i == row:
            return f"{path}:{lineno}"
    raise IndexError(row)


def reject_duplicate_rows(path: str, header: tuple[str, ...] | None,
                          keys: list[str]) -> None:
    """A line-numbered InputError at the first row whose key an earlier row
    of the table already has."""
    seen: set[str] = set()
    for i, key in enumerate(keys):
        if key in seen:
            raise InputError(f"{where(path, header, i)}: duplicate row for {key!r}")
        seen.add(key)


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
