"""Malware co-occurrence network and its connected components.

PLDs hosting at least one malicious file become nodes; two nodes share an
undirected edge when their malicious-file sets intersect, weighted by the
Jaccard similarity of those sets. Connected components of this network are
the malware distribution networks, reported largest first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations
from operator import itemgetter
from typing import Mapping

from .errors import EmptyInput
from .tables import read_table, write_table


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Undirected Jaccard-weighted graph plus the file sets behind it.

    Edge keys are (a, b) with a < b lexicographically; nodes include PLDs
    with no shared files (they become singleton components).
    """

    nodes: tuple[str, ...]
    edges: Mapping[tuple[str, str], float]
    file_sets: Mapping[str, frozenset[str]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ComponentSummary:
    id: int                  # 1-based rank in the ordering below
    size: int
    members: tuple[str, ...]   # sorted
    shared_files: int        # distinct files on >= 2 members
    mean_weight: float       # 0.0 for singletons


def build_cooccurrence(mal_file_sets: Mapping[str, set[str]]) -> CooccurrenceGraph:
    """Build the network via an inverted file index.

    Cost scales with the membership of shared-file buckets rather than all
    PLD pairs. Each bucket is one file, so the number of buckets a pair
    shares is the size of its intersection, and the union size follows from
    the two set sizes.
    """
    sets: dict[str, frozenset[str]] = {}
    for pld in sorted(mal_file_sets):
        fs = frozenset(mal_file_sets[pld])
        if not fs:
            raise EmptyInput(f"PLD {pld!r} has an empty malicious-file set")
        sets[pld] = fs

    # Buckets fill in sorted PLD order, so combinations() yields (a, b) with a < b.
    index: dict[str, list[str]] = {}
    for pld in sets:
        for h in sets[pld]:
            index.setdefault(h, []).append(pld)

    shared: Counter[tuple[str, str]] = Counter()
    for bucket in index.values():
        if len(bucket) > 1:
            shared.update(combinations(bucket, 2))

    edges: dict[tuple[str, str], float] = {}
    for a, b in sorted(shared):
        n = shared[(a, b)]
        edges[(a, b)] = n / (len(sets[a]) + len(sets[b]) - n)
    return CooccurrenceGraph(nodes=tuple(sorted(sets)), edges=edges, file_sets=sets)


def extract_mdns(g: CooccurrenceGraph) -> list[ComponentSummary]:
    """Connected components, largest first (ties by smallest member name).

    One union-find pass and one pass over the edges, so the cost is linear
    in nodes + edges. Each component's weights keep `g.edges` order, the
    order its mean is summed in.
    """
    parent = {n: n for n in g.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    groups: dict[str, list[str]] = {}
    for n in g.nodes:
        groups.setdefault(find(n), []).append(n)
    weights: dict[str, list[float]] = {}
    for (a, _), w in g.edges.items():
        weights.setdefault(find(a), []).append(w)
    comps = sorted(((sorted(members), root) for root, members in groups.items()),
                   key=lambda mr: (-len(mr[0]), mr[0][0]))

    out = []
    for rank, (members, root) in enumerate(comps, 1):
        ws = weights.get(root, [])
        hosts: dict[str, int] = {}
        for m in members:
            for h in g.file_sets[m]:
                hosts[h] = hosts.get(h, 0) + 1
        shared = sum(1 for c in hosts.values() if c >= 2)
        mean_w = sum(ws) / len(ws) if ws else 0.0
        out.append(ComponentSummary(id=rank, size=len(members),
                                    members=tuple(members),
                                    shared_files=shared, mean_weight=mean_w))
    return out


# ---------------------------------------------------------------------------
# file formats

COOCCUR_EDGE_HEADER = ("pld_a", "pld_b", "jaccard")
COOCCUR_SET_HEADER = ("pld", "file_hash")


def write_cooccurrence(g: CooccurrenceGraph, edge_path: str, sets_path: str) -> None:
    """Edge TSV (pld_a, pld_b, jaccard) plus the per-PLD file-set rows."""
    rows = [(a, b, float(w)) for (a, b), w in sorted(g.edges.items())]
    write_table(edge_path, COOCCUR_EDGE_HEADER, [map(itemgetter(i), rows) for i in range(3)])
    rows = [(pld, h) for pld in g.nodes for h in sorted(g.file_sets[pld])]
    write_table(sets_path, COOCCUR_SET_HEADER, [map(itemgetter(i), rows) for i in (0, 1)])


def read_cooccurrence(sets_path: str) -> CooccurrenceGraph:
    """The graph rebuilt from its file-set rows; the edge table is a
    derived view of the same sets, so it is not read."""
    sets: dict[str, set[str]] = {}
    for pld, file_hash in zip(*read_table(sets_path, COOCCUR_SET_HEADER, (str, str))):
        sets.setdefault(pld, set()).add(file_hash)
    return build_cooccurrence(sets)


def mdn_components(g: CooccurrenceGraph) -> list[dict]:
    """The components of g as JSON-ready dicts, in extract_mdns order."""
    return [asdict(c) for c in extract_mdns(g)]
