"""Malware co-occurrence network and its connected components.

PLDs hosting at least one malicious file become nodes; two nodes share an
undirected edge when their malicious-file sets intersect, weighted by the
Jaccard similarity of those sets. Connected components of this network are
the malware distribution networks, reported largest first.

The graph work runs on integer ids: PLD ids follow sorted PLD names and file
ids sorted file hashes. One sparse product B @ B.T of the PLD x file
incidence matrix B counts the shared files of every PLD pair,
`graph.weak_components` labels the components, and names come back only when
a table is written or a component is reported.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EmptyInput
from .graph import weak_components
from .tables import read_table, write_table


class FileSets(Mapping[str, frozenset[str]]):
    """Each PLD's set of file hashes, held as (PLD id, file id) rows.

    `plds` and `files` are sorted, and an id is a position in them, so rows
    sorted by id are in (PLD, hash) order. Each pair is one row, and every
    PLD has at least one: its rows are `indptr[id]:indptr[id + 1]`.
    """

    def __init__(self, plds: tuple[str, ...], files: list[str],
                 pld: np.ndarray, file: np.ndarray):
        self.plds, self.files, self.pld, self.file = plds, files, pld, file
        self.indptr = np.searchsorted(pld, np.arange(len(plds) + 1))

    @classmethod
    def from_rows(cls, plds: Sequence[str],
                  files: Sequence[str]) -> tuple[FileSets, np.ndarray]:
        """The sets of the (pld, file) rows, and the row of the result that
        each input row became (a repeated pair is one row)."""
        # dict.fromkeys keeps first-seen order, which a table sorted by
        # (pld, file) leaves nearly sorted, and sorted() is fast on runs
        names, hashes = tuple(sorted(dict.fromkeys(plds))), sorted(dict.fromkeys(files))
        width = max(len(hashes), 1)
        pairs, where = np.unique(_ids(names, plds) * width + _ids(hashes, files),
                                 return_inverse=True)
        return cls(names, hashes, pairs // width, pairs % width), where

    @classmethod
    def from_mapping(cls, sets: Mapping[str, Iterable[str]]) -> FileSets:
        empty = min((pld for pld, fs in sets.items() if not fs), default=None)
        if empty is not None:
            raise EmptyInput(f"PLD {empty!r} has an empty malicious-file set")
        return cls.from_rows([pld for pld, fs in sets.items() for _ in fs],
                             [h for fs in sets.values() for h in fs])[0]

    def subset(self, keep: np.ndarray) -> FileSets:
        """The sets of the rows where `keep` holds; a PLD left with no row
        drops out, and the others keep their order."""
        used, pld = np.unique(self.pld[keep], return_inverse=True)
        return FileSets(tuple(self.plds[i] for i in used.tolist()), self.files,
                        pld, self.file[keep])

    def __getitem__(self, pld: str) -> frozenset[str]:
        i = bisect_left(self.plds, pld)
        if i == len(self.plds) or self.plds[i] != pld:
            raise KeyError(pld)
        rows = self.file[self.indptr[i]:self.indptr[i + 1]]
        return frozenset(map(self.files.__getitem__, rows.tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self.plds)

    def __len__(self) -> int:
        return len(self.plds)


def _ids(names: Sequence[str], values: Sequence[str]) -> np.ndarray:
    """Each value's position in `names`."""
    index = dict(zip(names, range(len(names))))
    return np.fromiter(map(index.__getitem__, values), np.int64, len(values))


class CooccurrenceGraph:
    """Undirected Jaccard-weighted graph over the PLDs of `file_sets`.

    Edge i joins PLD ids a[i] < b[i] with weight[i]; edges are sorted by
    (a, b). Nodes include PLDs with no shared files (they become singleton
    components).
    """

    def __init__(self, file_sets: FileSets, a: np.ndarray, b: np.ndarray,
                 weight: np.ndarray):
        self.file_sets, self.a, self.b, self.weight = file_sets, a, b, weight

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.file_sets.plds

    @cached_property
    def edges(self) -> dict[tuple[str, str], float]:
        """{(a, b): weight} by name, in sorted (a, b) order."""
        names = self.nodes
        return dict(zip(zip(map(names.__getitem__, self.a.tolist()),
                            map(names.__getitem__, self.b.tolist())),
                        self.weight.tolist()))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.weight)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooccurrenceGraph):
            return NotImplemented
        return (self.nodes, self.edges, dict(self.file_sets)) == \
            (other.nodes, other.edges, dict(other.file_sets))


class ComponentSummary(NamedTuple):
    id: int                  # 1-based rank in the ordering below
    size: int
    members: tuple[str, ...]   # sorted
    shared_files: int        # distinct files on >= 2 members
    mean_weight: float       # 0.0 for singletons


def build_cooccurrence(mal_file_sets: Mapping[str, Iterable[str]]) -> CooccurrenceGraph:
    """The network of non-empty malicious-file sets, a FileSets or a plain
    mapping.

    Entry (i, j) of B @ B.T counts the files PLDs i and j share; its upper
    triangle holds every edge once, and the union size follows from the
    two set sizes.
    """
    sets = (mal_file_sets if isinstance(mal_file_sets, FileSets)
            else FileSets.from_mapping(mal_file_sets))
    n = len(sets.plds)
    incidence = sp.csr_matrix((np.ones(len(sets.pld), dtype=np.int64),
                               (sets.pld, sets.file)), shape=(n, len(sets.files)))
    shared = sp.triu(incidence @ incidence.T, k=1, format="csr")
    shared.sort_indices()
    a = np.repeat(np.arange(n, dtype=np.int64), np.diff(shared.indptr))
    b = shared.indices.astype(np.int64)
    size = np.diff(sets.indptr)
    weight = shared.data / (size[a] + size[b] - shared.data)
    return CooccurrenceGraph(sets, a, b, weight)


def extract_mdns(g: CooccurrenceGraph) -> list[ComponentSummary]:
    """Connected components, largest first (ties by smallest member name).

    A component's mean weight is summed by bincount, one edge at a time in
    edge order, so it has the bits of a sequential sum over `g.edges`.
    """
    sets, n = g.file_sets, g.n_nodes
    if n == 0:
        return []
    label = weak_components(n, g.a, g.b)
    size = np.bincount(label)
    n_comp = len(size)
    members = np.argsort(label, kind="stable")     # ids ascend in each component
    start = np.cumsum(size) - size
    order = np.argsort(-size, kind="stable")       # labels follow smallest members

    edge_label = label[g.a]
    n_weights = np.bincount(edge_label, minlength=n_comp)
    mean = np.divide(np.bincount(edge_label, weights=g.weight, minlength=n_comp),
                     n_weights, out=np.zeros(n_comp), where=n_weights > 0)

    # every PLD that hosts a file is in one component, so a file on two or
    # more PLDs is shared within the component of any one of them
    hosts = np.bincount(sets.file, minlength=len(sets.files))
    host = np.zeros(len(sets.files), dtype=np.int64)
    host[sets.file] = sets.pld
    shared = np.bincount(label[host[hosts >= 2]], minlength=n_comp)

    names = [sets.plds[i] for i in members.tolist()]
    start, size = start.tolist(), size.tolist()
    shared, mean = shared.tolist(), mean.tolist()
    return [ComponentSummary(rank, size[c], tuple(names[start[c]:start[c] + size[c]]),
                             shared[c], mean[c])
            for rank, c in enumerate(order.tolist(), 1)]


# ---------------------------------------------------------------------------
# file formats

COOCCUR_EDGE_HEADER = ("pld_a", "pld_b", "jaccard")
COOCCUR_SET_HEADER = ("pld", "file_hash")


def write_cooccurrence(g: CooccurrenceGraph, edge_path: str, sets_path: str) -> None:
    """Edge TSV (pld_a, pld_b, jaccard) plus the per-PLD file-set rows."""
    names = np.array(g.nodes, dtype=object)
    write_table(edge_path, COOCCUR_EDGE_HEADER, (names[g.a], names[g.b], g.weight))
    sets = g.file_sets
    write_table(sets_path, COOCCUR_SET_HEADER,
                (names[sets.pld], np.array(sets.files, dtype=object)[sets.file]))


def read_cooccurrence(sets_path: str) -> CooccurrenceGraph:
    """The graph rebuilt from its file-set rows; the edge table is a
    derived view of the same sets, so it is not read."""
    plds, hashes = read_table(sets_path, COOCCUR_SET_HEADER, (str, str))
    return build_cooccurrence(FileSets.from_rows(plds, hashes)[0])


def mdn_components(g: CooccurrenceGraph) -> list[dict]:
    """The components of g as JSON-ready dicts, in extract_mdns order."""
    return [c._asdict() for c in extract_mdns(g)]
