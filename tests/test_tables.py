"""The shared table reader and writer: one set of rules and messages for
every table."""

import argparse
import dataclasses
import gzip
import json
import os
import warnings
from typing import Mapping

import numpy as np
import pytest

from webmal import cli, pipeline
from webmal.dga import DGA_HEADER, read_dga_scores
from webmal.errors import EmptyInput, InputError
from webmal.graph import EDGE_HEADER, NODE_HEADER, read_graph
from webmal.mdn import COOCCUR_SET_HEADER, read_cooccurrence
from webmal.metrics import METRICS_HEADER, read_metrics
from webmal.predict import read_alexa, read_features
from webmal.reputation import (REPUTATION_HEADER, read_observations,
                               read_reputation, read_verdicts)
from webmal.synthlab import ClassPair, FamilySpec, SyntheticSpec
from webmal.tables import (_read_rows, decode, read_json, read_table, write_json,
                           write_table)

_NODES = "pld\tnode_id\tpage_count\na.com\t0\t2\nb.com\t1\t1\n"
_EDGES = "src_id\tdst_id\tweight\n0\t1\t3\n"


def _with(companion_name, companion_text, call):
    """A reader of `path` that needs a valid companion table beside it."""
    def read(path, tmp_path):
        other = tmp_path / companion_name
        other.write_text(companion_text)
        return call(path, str(other))
    return read


def _cli(command, **args):
    def read(path, tmp_path):
        return command(argparse.Namespace(out=str(tmp_path / "out"), **args,
                                          values=path, names=path))
    return read


def _stage_dga(path, tmp_path):
    pipeline._stage_dga(None, {"graph_nodes.tsv": path,
                               "dga.tsv": str(tmp_path / "dga.tsv")})


# name -> (reader, header, valid rows, short row, bad cell row, its message)
READERS = {
    "graph-nodes": (_with("edges.tsv", _EDGES, read_graph), NODE_HEADER,
                    "a.com\t0\t2\nb.com\t1\t1\n", "c.com\t2", "c.com\t2\tx",
                    "not an integer: 'x'"),
    "graph-edges": (_with("nodes.tsv", _NODES, lambda p, o: read_graph(o, p)),
                    EDGE_HEADER, "0\t1\t3\n", "1\t0", "1\t0\tx",
                    "not an integer: 'x'"),
    "metrics": (lambda p, t: read_metrics(p), METRICS_HEADER,
                "a.com\t1\t1\t2\t0.5\t0.5\t0.5\t0\t3\n", "b.com\t1",
                "b.com\t1\t1\t2\tx\t0.5\t0.5\t0\t3", "not a number: 'x'"),
    "dga": (lambda p, t: read_dga_scores(p), DGA_HEADER,
            "a.com\t12.5\tlikely_regular\n", "b.com", "b.com\tx\tlikely_dga",
            "not a number: 'x'"),
    "verdicts": (lambda p, t: read_verdicts(p), None, "h1\t8\t1f\n", "h2\t8",
                 "h2\tx\t1f", "not an integer: 'x'"),
    "observations": (lambda p, t: read_observations(p), None, "a.com\th1\t2\n",
                     "a.com\th2", "a.com\th2\t1.5", "not an integer: '1.5'"),
    "reputation": (lambda p, t: read_reputation(p), REPUTATION_HEADER,
                   "a.com\tclean\t0.0\t1\t1\t0.0\n", "b.com\tclean",
                   "b.com\tclean\tx\t1\t1\t0.0", "not a number: 'x'"),
    "cooccur-sets": (lambda p, t: read_cooccurrence(p), COOCCUR_SET_HEADER,
                     "a.com\tf1\nb.com\tf1\n", "c.com", None, None),
    "features": (lambda p, t: read_features(p), ("pld", "f1", "label"),
                 "a.com\t0.5\t0\n", "b.com\t0.5", "b.com\tx\t1",
                 "not a number: 'x'"),
    "alexa": (lambda p, t: read_alexa(p), None, "a.com\t1\n", "b.com",
              "b.com\tx", "not an integer: 'x'"),
    "labels": (lambda p, t: dict(zip(*read_table(p, None, (str, str)))), None, "a.com\tclean\n", "b.com",
               None, None),
    "dga-stage-nodes": (_stage_dga, NODE_HEADER, "a.com\t0\t2\n", "b.com\t1",
                        "b.com\t1\tx", "not an integer: 'x'"),
    "fit-values": (_cli(cli.cmd_fit, restarts=2, families=None), None, "3\n5\n",
                   "7\t8", "abc", "not a number: 'abc'"),
    "dga-names": (_cli(cli.cmd_dga, table=None), None, "google\n", "a\tb",
                  None, None),
}

CASES = [(name, case) for name, spec in READERS.items()
         for case in ("short-row", "bad-cell", "wrong-header", "blank-line",
                      "not-utf8")
         if (case != "bad-cell" or spec[4] is not None)
         and (case != "wrong-header" or spec[1] is not None)]


@pytest.mark.parametrize("name, case", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_malformed_table_names_its_line(tmp_path, name, case):
    read, header, rows, short, bad, message = READERS[name]
    head = "" if header is None else "\t".join(header) + "\n"
    lineno = head.count("\n") + rows.count("\n") + 1
    if case == "short-row":
        text, want = head + rows + short + "\n", "fields, got"
    elif case == "bad-cell":
        text, want = head + rows + bad + "\n", message
    elif case == "wrong-header":
        text, want, lineno = "wrong\n" + rows, "header", 1
    elif case == "blank-line":   # the empty line before the short row is counted
        text, want, lineno = head + rows + "\n" + short + "\n", "fields, got", lineno + 1
    else:   # "\udcff" is written as the byte 0xff
        text, want = head + rows + "\udcff" + short + "\n", "not UTF-8 text"
    path = tmp_path / "table.tsv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(InputError) as err:
        read(str(path), tmp_path)
    assert str(err.value).startswith(f"{path}:{lineno}: ")
    assert want in str(err.value)


def test_empty_tables_keep_their_results(tmp_path):
    def table(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_metrics(table("m.tsv", "\t".join(METRICS_HEADER) + "\n")).plds == []
        assert read_observations(table("o.tsv", "")).sets == {}
        assert read_reputation(table("r.tsv", "\t".join(REPUTATION_HEADER) + "\n")).plds == []
        assert read_dga_scores(table("d.tsv", "\t".join(DGA_HEADER) + "\n")) == {}
        assert read_alexa(table("a.tsv", "\n")) == {}
        with pytest.raises(InputError, match="no verdict rows"):
            read_verdicts(table("v.tsv", ""))
        with pytest.raises(EmptyInput):
            read_graph(table("n.tsv", _NODES), table("e.tsv", "\t".join(EDGE_HEADER) + "\n"))


def test_gz_by_suffix(tmp_path):
    path = tmp_path / "metrics.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("\t".join(METRICS_HEADER) + "\na.com\t1\t2\t3\t0.25\t0.5\t0.75\t4\t5\n")
    m = read_metrics(str(path))
    assert m.plds == ["a.com"] and m.total_degree.tolist() == [3]
    assert m.hub.tolist() == [0.5]


def test_both_parses_agree(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    path = tmp_path / "t.tsv"
    path.write_text("".join(f"p{i}\t{i - 250}\t{float(v)!r}\n" for i, v in enumerate(x)))
    types = (str, int, float)
    fast = read_table(str(path), None, types)
    slow = _read_rows(str(path), None, types)
    assert fast[0] == slow[0]
    assert fast[1].dtype == slow[1].dtype and np.array_equal(fast[1], slow[1])
    assert fast[2].tobytes() == slow[2].tobytes() == x.tobytes()
    # a cell Python reads but np.loadtxt does not falls back to Python's parse
    path.write_text("p\t1_000\t2.5\n")
    assert read_table(str(path), None, types)[1].tolist() == [1000]


def test_written_table_reads_back_to_the_same_bits(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    ids = np.arange(5000, dtype=np.int64) - 2500
    names = [f"p{i}" for i in range(5000)]
    path = str(tmp_path / "t.tsv")
    write_table(path, ("pld", "id", "x"), (names, ids, x))
    got = read_table(path, ("pld", "id", "x"), (str, int, float))
    assert got[0] == names and np.array_equal(got[1], ids)
    assert got[2].tobytes() == x.tobytes()
    # no header for an external input format; a list of floats is written
    # like an array of them
    write_table(path, None, (["a", "b"], [0.1, 1e-300]))
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "a\t0.1\nb\t1e-300\n"
    assert os.listdir(tmp_path) == ["t.tsv"]


def test_written_table_of_no_rows_is_its_header(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(str(path), ("a", "b"), ([], np.zeros(0)))
    assert path.read_text() == "a\tb\n"


def _interrupted_column():
    yield from range(10_000)       # more than one block reaches the temp file
    raise KeyboardInterrupt


@pytest.mark.parametrize("write,error", [
    (lambda path: write_table(path, ("a", "b"),
                              (["x"] * 20_000, _interrupted_column())),
     KeyboardInterrupt),
    (lambda path: write_table(path, ("a", "b"), (["x"] * 3, [1, 2])), ValueError),
    (lambda path: write_json({"a": list(range(10_000)), "b": object()}, path),
     TypeError),
], ids=["table-interrupted", "table-ragged", "json-unserializable"])
def test_failed_write_keeps_the_old_file(tmp_path, write, error):
    path = tmp_path / "out"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(error):
        write(str(path))
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out"]


def test_write_json_format(tmp_path):
    path = tmp_path / "r.json"
    write_json({"b": [1.5, None], "a": {"y": 1, "x": "s"}}, str(path))
    assert path.read_text() == '{"a":{"x":"s","y":1},"b":[1.5,null]}\n'
    assert json.loads(path.read_text()) == {"a": {"x": "s", "y": 1}, "b": [1.5, None]}


def test_read_json_reads_back_write_json(tmp_path):
    path = tmp_path / "r.json"
    write_json({"b": [1.5, None], "a": {"x": "s"}}, str(path))
    assert read_json(str(path)) == {"a": {"x": "s"}, "b": [1.5, None]}


@pytest.mark.parametrize("raw, message", [
    (b'{"alphabet": "ab",', ":1: Expecting property name"),
    (b'{\n "a": 1,\n "b": }\n', ":3: Expecting value"),
    (b"", ":1: Expecting value"),
    (b'{\n "a": "\xff"}\n', ":2: not UTF-8 text"),
    (b"[1]\n", ": expected a JSON object, got list"),
], ids=["truncated", "third-line", "empty", "not-utf8", "not-an-object"])
def test_malformed_json_names_its_line(tmp_path, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(InputError) as exc:
        read_json(str(path))
    assert str(exc.value).startswith(f"{path}{message}")


# ---------------------------------------------------------------------------
# the JSON object decoder

@dataclasses.dataclass
class _Inner:
    n: int
    tags: tuple[str, ...] = ()


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    x: float = 0.5
    flag: bool = False
    name: str | None = None
    pair: tuple[int, int] = (1, 2)
    weights: Mapping[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class _Unsupported:
    values: set[int] = dataclasses.field(default_factory=set)


def test_decode_keeps_each_value_as_given():
    got = decode(_Outer, {"inner": {"n": 3, "tags": ["a", "b"]}, "x": 2,
                          "flag": True, "name": None, "pair": [4, 5],
                          "weights": {"a": 1, "b": 0.25}})
    assert got == _Outer(_Inner(3, ("a", "b")), 2, True, None, (4, 5),
                         {"a": 1, "b": 0.25})
    assert type(got.x) is int       # an integer is a number, kept as given
    assert decode(_Outer, {"inner": {"n": 1}, "pair": (6, 7)}).pair == (6, 7)


@pytest.mark.parametrize("obj, message", [
    ({"inner": {"n": True}}, "inner.n must be an integer, not True"),
    ({"inner": {"n": 1.0}}, "inner.n must be an integer, not 1.0"),
    ({"inner": {"n": 1}, "x": False}, "x must be a number, not False"),
    ({"inner": {"n": 1}, "flag": 1}, "flag must be true or false, not 1"),
    ({"inner": {"n": 1}, "name": 3}, "name must be a string or null, not 3"),
    ({"inner": {"n": 1}, "pair": [1]}, "pair must be a list of 2 integers, not [1]"),
    ({"inner": {"n": 1, "tags": "ab"}},
     "inner.tags must be a list of strings, not 'ab'"),
    ({"inner": {"n": 1}, "weights": {"a": None}},
     "weights must be an object of numbers, not {'a': None}"),
    ({"inner": [1]}, "inner must be an object, not [1]"),
    ({"inner": {"n": 1}, "z": 0, "y": 0}, "unknown key 'y'"),
    ({"inner": {"n": 1, "m": 0}}, "unknown key 'inner.m'"),
    ({"inner": {}}, "missing key 'inner.n'"),
    ({}, "missing key 'inner'"),
], ids=["bool-int", "float-int", "bool-number", "int-bool", "int-str-or-null",
        "short-pair", "str-list", "null-mapping", "list-object", "unknown",
        "unknown-nested", "missing-nested", "missing"])
def test_decode_names_the_first_bad_key(obj, message):
    with pytest.raises(ValueError) as exc:
        decode(_Outer, obj)
    assert str(exc.value) == message


def test_decode_rejects_an_unsupported_annotation_for_any_object():
    with pytest.raises(TypeError):
        decode(_Unsupported, {})


@pytest.mark.parametrize("cls", [pipeline.RunConfig, SyntheticSpec, ClassPair,
                                 FamilySpec])
def test_every_json_object_field_has_a_decoder_rule(cls):
    """A field of an unsupported type would be a TypeError here, before any
    value is read; a missing key is what the empty object lacks."""
    with pytest.raises(ValueError, match="missing key"):
        decode(cls, {})
