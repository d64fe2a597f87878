"""Pay-level-domain graph construction from page-level edge lists.

Page URL pairs aggregate into a directed PLD graph: parallel page links
collapse into one weighted edge, intra-PLD links become self-loops, and each
node keeps the count of distinct page URLs seen for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import EmptyInput, InputError
from .psl import SuffixRules, pld_of_host, _host_of
from .tables import open_text, read_table, where, write_table


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

    def adjacency(self) -> sp.csr_matrix:
        """CSR 0/1 adjacency without self-loops; A[i, j] = 1 for edge i -> j."""
        keep = self.edge_src != self.edge_dst
        return sp.csr_matrix((np.ones(int(keep.sum())),
                              (self.edge_src[keep], self.edge_dst[keep])),
                             shape=(self.n_nodes, self.n_nodes))


class GraphBuilder:
    """Accumulates page edges; resolves each URL of an ingested row to its PLD
    once, parsing the host and consulting the host cache only on a miss."""

    def __init__(self, rules: SuffixRules, strict: bool = False):
        self.rules = rules
        self.strict = strict
        self._url_pld: dict[str, str] = {}
        self._edges: dict[tuple[str, str], int] = {}
        self._host_cache: dict[str, str] = {}
        self.skipped = 0
        self.ingested = 0

    def _pld(self, url: str) -> str:
        pld = self._url_pld.get(url)
        if pld is None:
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
            d = s if dst_url == src_url else self._pld(dst_url)
        except InputError:
            self.skipped += 1
            return False
        # stored once both ends resolve: a URL seen only in skipped rows is no page
        self._url_pld[src_url] = s
        self._url_pld[dst_url] = d
        key = (s, d)
        self._edges[key] = self._edges.get(key, 0) + 1
        self.ingested += 1
        return True

    def build(self) -> PldGraph:
        if not self._edges:
            raise EmptyInput("no valid page edges ingested")
        pages = Counter(self._url_pld.values())
        plds = sorted(pages)
        index = {p: i for i, p in enumerate(plds)}
        page_counts = np.array([pages[p] for p in plds], dtype=np.int64)
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
    """Yield URL pairs from a TSV file (src<TAB>dst), gzip-aware. A malformed
    row, a line that is not UTF-8 text among them, yields ("", ""), which
    the builder counts as skipped."""
    with open_text(path, errors="surrogateescape") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not (line.isascii() or _is_utf8(line)):
                yield ("", "")  # malformed row: endpoints fail extraction
                continue
            yield (parts[0], parts[1])


def _is_utf8(line: str) -> bool:
    """False for a line read with errors="surrogateescape" that held a byte
    that is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def build_from_file(path: str, rules: SuffixRules, strict: bool = False) -> PldGraph:
    return build_pld_graph(iter_edge_file(path), rules, strict=strict)


NODE_HEADER = ("pld", "node_id", "page_count")
EDGE_HEADER = ("src_id", "dst_id", "weight")


def write_graph(g: PldGraph, node_path: str, edge_path: str) -> None:
    write_table(node_path, NODE_HEADER, (g.plds, range(len(g.plds)), g.page_counts))
    write_table(edge_path, EDGE_HEADER, (g.edge_src, g.edge_dst, g.edge_weight))


def read_graph(node_path: str, edge_path: str) -> PldGraph:
    plds, node_ids, counts = read_table(node_path, NODE_HEADER, (str, int, int))
    dense = node_ids == np.arange(len(plds))
    if not dense.all():
        i = int(dense.argmin())
        raise InputError(f"{where(node_path, NODE_HEADER, i)}: non-dense node id "
                         f"{str(node_ids[i])!r}")
    src, dst, weight = read_table(edge_path, EDGE_HEADER, (int, int, int))
    outside = (src < 0) | (src >= len(plds)) | (dst < 0) | (dst >= len(plds))
    if outside.any():
        i = int(outside.argmax())
        raise InputError(f"{where(edge_path, EDGE_HEADER, i)}: edge {src[i]} -> "
                         f"{dst[i]} leaves the node ids [0, {len(plds)})")
    if not len(src):
        raise EmptyInput(f"no edges in {edge_path}")
    return PldGraph(plds, counts, src, dst, weight)
