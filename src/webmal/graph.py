"""Pay-level-domain graph construction from page-level edge lists.

Page URL pairs aggregate into a directed PLD graph: parallel page links
collapse into one weighted edge, intra-PLD links become self-loops, and each
node keeps the count of distinct page URLs seen for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def weak_components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component labels of the n nodes joined by the edges u[i] -- v[i],
    dense 0..k-1 in order of each component's smallest member.

    Hooking and pointer jumping (Shiloach & Vishkin 1982): every node points
    at a node no larger than itself, a root at itself. Each round, every edge
    whose ends have different roots hooks the larger root onto the smaller
    one, and jumping then points every node at its root. An edge is held as
    the roots of its ends, and drops out once they are one. A root is thus
    its component's smallest member. Edge direction, repeats and self-loops
    do not matter.
    """
    label = np.arange(n)
    while True:
        cross = u != v
        u, v = u[cross], v[cross]
        if not len(u):
            return np.unique(label, return_inverse=True)[1]
        np.minimum.at(label, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        u, v = label[u], label[v]


def build_pld_graph(page_edges: Iterable[Sequence[str]], rules: SuffixRules,
                    strict: bool = False) -> PldGraph:
    """Aggregate an iterable of (src_url, dst_url) pairs into a PLD graph.

    Each URL of an ingested row is resolved once to an integer PLD id,
    given in first-seen order. An http(s) URL whose host part, cut out by one split, is a known
    clean host skips the host parse. A host is clean once
    _host_of("http://" + host) gives it back unchanged, so a host part with
    user info, a port, a query, a fragment, brackets, upper case, outer dots
    or outer whitespace always goes through _host_of. pld_of_host runs once
    per distinct host. Edge counts are keyed by (src id << 32) | dst id, and
    the ids are remapped to sorted-name order at the end.

    Rows whose endpoints yield no PLD are counted in skipped_rows, not
    fatal; with strict, a host that no suffix rule matches is one of those.
    A URL seen only in skipped rows is no page, and a PLD with no page drops
    out.
    """
    pld_ids: dict[str, int] = {}    # PLD name -> first-seen id
    host_ids: dict[str, int] = {}   # host -> PLD id, -1 when it has none
    part_ids: dict[str, int] = {}   # clean host part -> PLD id, or _UNCLEAN
    url_ids: dict[str, int] = {}    # page URL -> PLD id
    edges: dict[int, int] = {}
    skipped = 0

    def host_id(host: str) -> int:
        i = host_ids.get(host)
        if i is None:
            try:
                pld = pld_of_host(host, rules, strict=strict)
            except InputError:
                i = -1
            else:
                i = pld_ids.setdefault(pld, len(pld_ids))
            host_ids[host] = i
        return i

    def resolve(url: str) -> int:
        """PLD id of a URL not in url_ids, -1 when it yields none."""
        part = None
        if url.startswith(("http://", "https://")):
            part = url.split("/", 3)[2]
            i = part_ids.get(part)
            if i is not None:
                if i != _UNCLEAN:
                    return i
                part = None
        try:
            host = _host_of(url)
        except InputError:
            host, i = None, -1
        else:
            i = host_id(host)
        if part is not None:
            part_ids[part] = i if host == part and _is_clean(part, url) else _UNCLEAN
        return i

    get = url_ids.get
    for src_url, dst_url in page_edges:
        s = get(src_url)
        if s is None:
            s = resolve(src_url)
            if s < 0:
                skipped += 1
                continue
        d = get(dst_url)
        if d is None:
            d = s if dst_url == src_url else resolve(dst_url)
            if d < 0:
                skipped += 1
                continue
        # stored once both ends resolve: a URL seen only in skipped rows is no page
        url_ids[src_url] = s
        url_ids[dst_url] = d
        key = s << 32 | d
        edges[key] = edges.get(key, 0) + 1
    if not edges:
        raise EmptyInput("no valid page edges ingested")
    ids = np.fromiter(url_ids.values(), np.int64, len(url_ids))
    url_ids.clear()   # frees the URL strings before the arrays below are built
    counts = np.bincount(ids, minlength=len(pld_ids))
    plds = sorted(p for p, i in pld_ids.items() if counts[i])
    first_seen = np.fromiter(map(pld_ids.__getitem__, plds), np.int64, len(plds))
    rank = np.empty(len(pld_ids), np.int64)
    rank[first_seen] = np.arange(len(plds))
    keys = np.fromiter(edges, np.int64, len(edges))
    src = rank[keys >> 32]
    dst = rank[keys & 0xFFFFFFFF]
    weight = np.fromiter(edges.values(), np.int64, len(edges))
    order = np.lexsort((dst, src))
    return PldGraph(plds, counts[first_seen], src[order], dst[order], weight[order],
                    skipped_rows=skipped, ingested_rows=int(weight.sum()))


_UNCLEAN = -2   # a host part that must go through _host_of


def _is_clean(host: str, url: str) -> bool:
    """True when _host_of gives host back from "http://" + host; url is the
    URL it was cut from, which is not parsed a second time."""
    probe = "http://" + host
    if probe == url:
        return True
    try:
        return _host_of(probe) == host
    except InputError:
        return False


def iter_edge_file(path: str) -> Iterator[Sequence[str]]:
    """Yield [src, dst] URL pairs from a TSV file (src<TAB>dst), gzip-aware,
    one line at a time. A malformed row, a line that is not UTF-8 text among
    them, yields ("", ""), which build_pld_graph counts as skipped; a blank
    line yields nothing."""
    with open_text(path, errors="surrogateescape") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 2 and (line.isascii() or _is_utf8(line)):
                yield parts
            elif parts != [""]:
                yield ("", "")  # malformed row: endpoints fail extraction


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
