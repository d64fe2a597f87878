"""Malware co-occurrence network and its connected components.

PLDs hosting at least one malicious file become nodes; two nodes share an
undirected edge when their malicious-file sets intersect, weighted by the
Jaccard similarity of those sets. Connected components of this network are
the malware distribution networks, reported largest first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from .errors import EmptyInput, InputError


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
    PLD pairs; candidate pairs are deduplicated through sorted-pair keys.
    """
    sets: dict[str, frozenset[str]] = {}
    for pld in sorted(mal_file_sets):
        fs = frozenset(mal_file_sets[pld])
        if not fs:
            raise EmptyInput(f"PLD {pld!r} has an empty malicious-file set")
        sets[pld] = fs

    index: dict[str, list[str]] = {}
    for pld in sets:
        for h in sets[pld]:
            index.setdefault(h, []).append(pld)

    pairs: set[tuple[str, str]] = set()
    for bucket in index.values():
        if len(bucket) < 2:
            continue
        bucket.sort()
        for i, a in enumerate(bucket):
            for b in bucket[i + 1:]:
                pairs.add((a, b))

    edges: dict[tuple[str, str], float] = {}
    for a, b in sorted(pairs):
        fa, fb = sets[a], sets[b]
        edges[(a, b)] = len(fa & fb) / len(fa | fb)
    return CooccurrenceGraph(nodes=tuple(sorted(sets)), edges=edges, file_sets=sets)


def extract_mdns(g: CooccurrenceGraph) -> list[ComponentSummary]:
    """Connected components, largest first (ties by smallest member name)."""
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
    comps = sorted((sorted(members) for members in groups.values()),
                   key=lambda m: (-len(m), m[0]))

    out = []
    for rank, members in enumerate(comps, 1):
        member_set = set(members)
        weights = [w for (a, b), w in g.edges.items() if a in member_set]
        hosts: dict[str, int] = {}
        for m in members:
            for h in g.file_sets[m]:
                hosts[h] = hosts.get(h, 0) + 1
        shared = sum(1 for c in hosts.values() if c >= 2)
        mean_w = sum(weights) / len(weights) if weights else 0.0
        out.append(ComponentSummary(id=rank, size=len(members),
                                    members=tuple(members),
                                    shared_files=shared, mean_weight=mean_w))
    return out


# ---------------------------------------------------------------------------
# file formats

def write_cooccurrence(g: CooccurrenceGraph, edge_path: str, sets_path: str) -> None:
    """Edge TSV (pld_a, pld_b, jaccard) plus the per-PLD file-set rows."""
    with open(edge_path, "w") as fh:
        for (a, b) in sorted(g.edges):
            fh.write(f"{a}\t{b}\t{repr(float(g.edges[(a, b)]))}\n")
    with open(sets_path, "w") as fh:
        for pld in g.nodes:
            for h in sorted(g.file_sets[pld]):
                fh.write(f"{pld}\t{h}\n")


def read_cooccurrence(edge_path: str, sets_path: str) -> CooccurrenceGraph:
    sets: dict[str, set[str]] = {}
    with open(sets_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{sets_path}:{lineno}: expected 2 fields")
            sets.setdefault(parts[0], set()).add(parts[1])
    g = build_cooccurrence(sets)
    with open(edge_path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InputError(f"{edge_path}:{lineno}: expected 3 fields")
            key = (parts[0], parts[1])
            if key not in g.edges:
                raise InputError(f"{edge_path}:{lineno}: edge absent from file sets")
    return g


def mdn_components(g: CooccurrenceGraph) -> list[dict]:
    """The components of g as JSON-ready dicts, in extract_mdns order."""
    return [asdict(c) for c in extract_mdns(g)]
