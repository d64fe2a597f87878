"""Pay-level-domain graph construction from page-level edge lists.

Page URL pairs aggregate into a directed PLD graph: parallel page links
collapse into one weighted edge, intra-PLD links become self-loops, and each
node keeps the count of distinct page URLs seen for it.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import EmptyInput, InputError, WebmalError, parse_int
from .psl import SuffixRules, extract_pld, pld_of_host, _host_of

_INT64 = np.iinfo(np.int64)


@dataclass
class PldGraph:
    """Immutable directed PLD graph with dense node ids.

    Node ids are assigned by sorted PLD name, so the graph is a pure function
    of the edge multiset regardless of input order. Edge arrays are sorted by
    (src, dst).
    """

    plds: list[str]
    page_counts: np.ndarray        # int64, per node
    edge_src: np.ndarray           # int64
    edge_dst: np.ndarray           # int64
    edge_weight: np.ndarray        # int64, collapsed multiplicity
    skipped_rows: int = 0
    ingested_rows: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.plds)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    def node_id(self, pld: str) -> int:
        i = int(np.searchsorted(self.plds_array, pld))
        if i >= self.n_nodes or self.plds[i] != pld:
            raise KeyError(pld)
        return i

    @property
    def plds_array(self) -> np.ndarray:
        if not hasattr(self, "_plds_array"):
            self._plds_array = np.array(self.plds, dtype=object)
        return self._plds_array

    def adjacency(self, weighted: bool = False, drop_self_loops: bool = False) -> sp.csr_matrix:
        """CSR adjacency; A[i, j] nonzero for edge i -> j."""
        src, dst, w = self.edge_src, self.edge_dst, self.edge_weight
        if drop_self_loops:
            keep = src != dst
            src, dst, w = src[keep], dst[keep], w[keep]
        data = w.astype(np.float64) if weighted else np.ones(len(src))
        return sp.csr_matrix((data, (src, dst)), shape=(self.n_nodes, self.n_nodes))

    def edge_dict(self) -> dict[tuple[int, int], int]:
        return {
            (int(s), int(d)): int(w)
            for s, d, w in zip(self.edge_src, self.edge_dst, self.edge_weight)
        }


class GraphBuilder:
    """Accumulates page edges; mergeable so input streams can be sharded."""

    def __init__(self, rules: SuffixRules, strict: bool = False):
        self.rules = rules
        self.strict = strict
        self._pages: dict[str, set[str]] = {}
        self._edges: dict[tuple[str, str], int] = {}
        self._host_cache: dict[str, str] = {}
        self.skipped = 0
        self.ingested = 0

    def _pld(self, url: str) -> str:
        host = _host_of(url)
        pld = self._host_cache.get(host)
        if pld is None:
            pld = pld_of_host(host, self.rules, strict=self.strict)
            self._host_cache[host] = pld
        return pld

    def add(self, src_url: str, dst_url: str) -> bool:
        """Ingest one page link; returns False when the row is skipped."""
        try:
            s = self._pld(src_url)
            d = self._pld(dst_url)
        except InputError:
            self.skipped += 1
            return False
        self._pages.setdefault(s, set()).add(src_url)
        self._pages.setdefault(d, set()).add(dst_url)
        key = (s, d)
        self._edges[key] = self._edges.get(key, 0) + 1
        self.ingested += 1
        return True

    def merge(self, other: "GraphBuilder") -> "GraphBuilder":
        for pld, pages in other._pages.items():
            self._pages.setdefault(pld, set()).update(pages)
        for key, w in other._edges.items():
            self._edges[key] = self._edges.get(key, 0) + w
        self.skipped += other.skipped
        self.ingested += other.ingested
        return self

    def build(self) -> PldGraph:
        if not self._edges:
            raise EmptyInput("no valid page edges ingested")
        plds = sorted(self._pages)
        index = {p: i for i, p in enumerate(plds)}
        page_counts = np.array([len(self._pages[p]) for p in plds], dtype=np.int64)
        items = sorted((index[s], index[d], w) for (s, d), w in self._edges.items())
        src = np.array([it[0] for it in items], dtype=np.int64)
        dst = np.array([it[1] for it in items], dtype=np.int64)
        weight = np.array([it[2] for it in items], dtype=np.int64)
        return PldGraph(plds, page_counts, src, dst, weight,
                        skipped_rows=self.skipped, ingested_rows=self.ingested)


def build_pld_graph(page_edges: Iterable[tuple[str, str]], rules: SuffixRules,
                    strict: bool = False) -> PldGraph:
    """Aggregate an iterable of (src_url, dst_url) pairs into a PLD graph.

    Rows whose endpoints yield no PLD are counted in skipped_rows, not fatal.
    """
    builder = GraphBuilder(rules, strict=strict)
    for src_url, dst_url in page_edges:
        builder.add(src_url, dst_url)
    return builder.build()


def iter_edge_file(path: str) -> Iterator[tuple[str, str]]:
    """Yield URL pairs from a TSV file (src<TAB>dst), gzip-aware."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                yield ("", "")  # malformed row: endpoints fail extraction
                continue
            yield (parts[0], parts[1])


def build_from_file(path: str, rules: SuffixRules, strict: bool = False) -> PldGraph:
    return build_pld_graph(iter_edge_file(path), rules, strict=strict)


NODE_HEADER = ("pld", "node_id", "page_count")
EDGE_HEADER = ("src_id", "dst_id", "weight")


def write_graph(g: PldGraph, node_path: str, edge_path: str) -> None:
    with open(node_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(NODE_HEADER) + "\n")
        for i, pld in enumerate(g.plds):
            fh.write(f"{pld}\t{i}\t{g.page_counts[i]}\n")
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(EDGE_HEADER) + "\n")
        for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight):
            fh.write(f"{s}\t{d}\t{w}\n")


def _table_rows(path: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """(lineno, cells) for each row after `header`; a row with another
    number of cells raises InputError."""
    with open(path, encoding="utf-8") as fh:
        expected = "\t".join(header)
        if fh.readline().rstrip("\n") != expected:
            raise InputError(f"{path}:1: expected header {expected!r}")
        for lineno, line in enumerate(fh, 2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} "
                                 f"fields, got {len(parts)}")
            yield lineno, parts


def read_graph(node_path: str, edge_path: str) -> PldGraph:
    plds: list[str] = []
    counts: list[int] = []
    for lineno, (pld, node_id, page_count) in _table_rows(node_path, NODE_HEADER):
        where = f"{node_path}:{lineno}"
        if parse_int(node_id, where) != len(plds):
            raise InputError(f"{where}: non-dense node id {node_id!r}")
        plds.append(pld)
        counts.append(parse_int(page_count, where))
    src: list[int] = []
    dst: list[int] = []
    weight: list[int] = []
    for lineno, (s, d, w) in _table_rows(edge_path, EDGE_HEADER):
        try:
            src.append(int(s))
            dst.append(int(d))
            weight.append(int(w))
        except ValueError:
            # the edge table is large: name the line only once a cell fails
            where = f"{edge_path}:{lineno}"
            s, d, w = (parse_int(c, where) for c in (s, d, w))
    (counts_arr,) = _int64_rows(node_path, counts)
    edges = _int64_rows(edge_path, src, dst, weight)
    ends = edges[:2]
    outside = ((ends < 0) | (ends >= len(plds))).any(axis=0)
    if outside.any():
        i = int(outside.argmax())
        raise InputError(f"{edge_path}:{i + 2}: edge {ends[0, i]} -> {ends[1, i]} "
                         f"leaves the node ids [0, {len(plds)})")
    if not src:
        raise EmptyInput(f"no edges in {edge_path}")
    return PldGraph(plds, counts_arr, edges[0], edges[1], edges[2])


def _int64_rows(path: str, *columns: list[int]) -> np.ndarray:
    """The columns of a table as the rows of one int64 array.

    A cell outside the int64 range raises InputError naming its line;
    _table_rows skips no line, so table row i is line i + 2.
    """
    try:
        return np.array(columns, dtype=np.int64).reshape(len(columns), -1)
    except OverflowError:
        lo, hi = _INT64.min, _INT64.max
        i, x = next((i, x) for i, row in enumerate(zip(*columns))
                    for x in row if not lo <= x <= hi)
        raise InputError(f"{path}:{i + 2}: integer out of range: {x}") from None
