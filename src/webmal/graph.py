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


def build_pld_graph(page_edges: Iterable[tuple[str, str]], rules: SuffixRules,
                    strict: bool = False) -> PldGraph:
    """Aggregate an iterable of (src_url, dst_url) pairs into a PLD graph.

    Each URL of an ingested row is resolved to its PLD once, parsing the
    host and consulting the host cache only on a miss. Rows whose endpoints
    yield no PLD are counted in skipped_rows, not fatal; with strict, a host
    that no suffix rule matches is one of those.
    """
    url_pld: dict[str, str] = {}
    host_pld: dict[str, str] = {}
    edges: dict[tuple[str, str], int] = {}
    skipped = 0

    def resolve(url: str) -> str:
        pld = url_pld.get(url)
        if pld is None:
            host = _host_of(url)
            pld = host_pld.get(host)
            if pld is None:
                pld = pld_of_host(host, rules, strict=strict)
                host_pld[host] = pld
        return pld

    for src_url, dst_url in page_edges:
        try:
            s = resolve(src_url)
            d = s if dst_url == src_url else resolve(dst_url)
        except InputError:
            skipped += 1
            continue
        # stored once both ends resolve: a URL seen only in skipped rows is no page
        url_pld[src_url] = s
        url_pld[dst_url] = d
        key = (s, d)
        edges[key] = edges.get(key, 0) + 1
    if not edges:
        raise EmptyInput("no valid page edges ingested")
    pages = Counter(url_pld.values())
    plds = sorted(pages)
    index = {p: i for i, p in enumerate(plds)}
    page_counts = np.fromiter(map(pages.__getitem__, plds), np.int64, len(plds))
    src = np.fromiter((index[s] for s, _ in edges), np.int64, len(edges))
    dst = np.fromiter((index[d] for _, d in edges), np.int64, len(edges))
    weight = np.fromiter(edges.values(), np.int64, len(edges))
    order = np.lexsort((dst, src))
    return PldGraph(plds, page_counts, src[order], dst[order], weight[order],
                    skipped_rows=skipped, ingested_rows=int(weight.sum()))


def iter_edge_file(path: str) -> Iterator[tuple[str, str]]:
    """Yield URL pairs from a TSV file (src<TAB>dst), gzip-aware. A malformed
    row, a line that is not UTF-8 text among them, yields ("", ""), which
    build_pld_graph counts as skipped."""
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
