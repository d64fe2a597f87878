"""Slow reference implementations used to cross-check the production code.

Everything here takes a deliberately different route from the main modules:
dense matrices, explicit union-find, cubic loops. Sizes are capped because
these exist for correctness, not throughput.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr

from webmal.dga import FreqTable
from webmal.errors import InputError, InvalidParams
from webmal.heavytail.families import log_upper_gamma
from webmal.graph import PldGraph
from webmal.mdn import CooccurrenceGraph

class InstanceTooLarge(InputError):
    """An instance above an oracle's size cap."""


_MAX_DENSE = 500
_MAX_CUBIC = 200
_MAX_JACCARD = 2000


def oracle_degrees(g: PldGraph) -> tuple[np.ndarray, np.ndarray]:
    """Degree recount via a dense 0/1 matrix."""
    if g.n_nodes > _MAX_DENSE:
        raise InstanceTooLarge(f"{g.n_nodes} nodes")
    A = np.zeros((g.n_nodes, g.n_nodes), dtype=np.int64)
    for s, d in zip(g.edge_src, g.edge_dst):
        A[s, d] = 1
    return A.sum(axis=0), A.sum(axis=1)


def oracle_pagerank(g: PldGraph, damping: float = 0.85) -> np.ndarray:
    """Exact stationary vector by solving the dense linear system."""
    n = g.n_nodes
    if n > _MAX_DENSE:
        raise InstanceTooLarge(f"{n} nodes")
    A = np.zeros((n, n))
    for s, d in zip(g.edge_src, g.edge_dst):
        if s != d:
            A[s, d] = 1.0
    outdeg = A.sum(axis=1)
    M = np.zeros((n, n))
    for i in range(n):
        if outdeg[i] > 0:
            M[:, i] = A[i, :] / outdeg[i]
        else:
            M[:, i] = 1.0 / n
    # p = damping * M p + (1 - damping)/n  =>  (I - damping M) p = (1-d)/n
    b = np.full(n, (1.0 - damping) / n)
    p = np.linalg.solve(np.eye(n) - damping * M, b)
    return p / p.sum()


def _dominant_projection(M: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Normalized projection of start onto M's top eigenspace.

    This is the exact limit of normalized power iteration from start; with a
    degenerate top eigenvalue the limit depends on the start vector, so
    taking any single eigenvector would not reproduce it.
    """
    w, v = np.linalg.eigh(M)
    top = v[:, w >= w[-1] * (1.0 - 1e-9)]
    proj = top @ (top.T @ start)
    norm = np.linalg.norm(proj)
    return proj / norm if norm > 0 else proj


def oracle_hits(g: PldGraph) -> tuple[np.ndarray, np.ndarray]:
    """Eigenspace limits of the mutual-reinforcement iteration.

    Hubs converge to the projection of the uniform start onto the top
    eigenspace of A A^T; authorities to the projection of A^T u onto the top
    eigenspace of A^T A.
    """
    n = g.n_nodes
    if n > _MAX_DENSE:
        raise InstanceTooLarge(f"{n} nodes")
    A = np.zeros((n, n))
    for s, d in zip(g.edge_src, g.edge_dst):
        if s != d:
            A[s, d] = 1.0
    if not A.any():
        return np.zeros(n), np.zeros(n)
    u = np.full(n, 1.0 / np.sqrt(n))
    hub = _dominant_projection(A @ A.T, u)
    auth = _dominant_projection(A.T @ A, A.T @ u)
    return hub, auth


def oracle_triangles(g: PldGraph) -> np.ndarray:
    """Cubic per-node triangle count on the undirected simplification."""
    n = g.n_nodes
    if n > _MAX_CUBIC:
        raise InstanceTooLarge(f"{n} nodes")
    A = np.zeros((n, n), dtype=bool)
    for s, d in zip(g.edge_src, g.edge_dst):
        if s != d:
            A[s, d] = True
            A[d, s] = True
    tri = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if not A[i, j]:
                continue
            for k in range(j + 1, n):
                if A[i, k] and A[j, k]:
                    tri[i] += 1
                    tri[j] += 1
                    tri[k] += 1
    return tri


def oracle_triangles_intersect(g: PldGraph) -> np.ndarray:
    """Per-node triangle counts by one neighbourhood intersection per edge.

    Edges are oriented from lower to higher degree (ties by id); each
    triangle is found once as an out-neighbourhood intersection and
    credited to its three corners. Quadratic at worst, so it reaches graphs
    far beyond oracle_triangles' cap.
    """
    n = g.n_nodes
    tri = np.zeros(n, dtype=np.int64)
    keep = g.edge_src != g.edge_dst
    lo = np.minimum(g.edge_src[keep], g.edge_dst[keep])
    hi = np.maximum(g.edge_src[keep], g.edge_dst[keep])
    if len(lo) == 0:
        return tri
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    u, v = pairs[:, 0], pairs[:, 1]
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    rank = np.lexsort((np.arange(n), deg))
    pos = np.empty(n, dtype=np.int64)
    pos[rank] = np.arange(n)
    swap = pos[u] > pos[v]
    ou = np.where(swap, v, u)
    ov = np.where(swap, u, v)
    order = np.lexsort((ov, ou))
    ou, ov = ou[order], ov[order]
    starts = np.searchsorted(ou, np.arange(n))
    ends = np.searchsorted(ou, np.arange(n) + 1)
    for a, b in zip(ou.tolist(), ov.tolist()):
        na = ov[starts[a]:ends[a]]
        nb = ov[starts[b]:ends[b]]
        common = np.intersect1d(na, nb, assume_unique=True)
        if len(common):
            tri[a] += len(common)
            tri[b] += len(common)
            tri[common] += 1
    return tri


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def oracle_components(g: PldGraph) -> np.ndarray:
    """Union-find components with the same dense relabeling convention."""
    uf = _UnionFind(g.n_nodes)
    for s, d in zip(g.edge_src, g.edge_dst):
        uf.union(int(s), int(d))
    roots = [uf.find(i) for i in range(g.n_nodes)]
    sizes: dict[int, int] = {}
    first: dict[int, int] = {}
    for i, r in enumerate(roots):
        sizes[r] = sizes.get(r, 0) + 1
        first.setdefault(r, i)
    order = sorted(sizes, key=lambda r: (-sizes[r], first[r]))
    remap = {r: i for i, r in enumerate(order)}
    return np.array([remap[r] for r in roots], dtype=np.int64)


def oracle_jaccard(file_sets: dict[str, set[str]]) -> dict[tuple[str, str], float]:
    """All-pairs Jaccard similarity by direct double loop."""
    names = sorted(file_sets)
    if len(names) > _MAX_JACCARD:
        raise InstanceTooLarge(f"{len(names)} nodes")
    out: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        fa = file_sets[a]
        if not fa:
            continue
        for b in names[i + 1:]:
            fb = file_sets[b]
            inter = len(fa & fb)
            if inter:
                out[(a, b)] = inter / len(fa | fb)
    return out


def oracle_mdns(g: CooccurrenceGraph) -> list[dict]:
    """MDN components in the order and format of mdn.mdn_components.

    Components come from breadth-first search; each one's mean weight
    rescans every edge (components x edges), in `g.edges` order.
    """
    if g.n_nodes > _MAX_JACCARD:
        raise InstanceTooLarge(f"{g.n_nodes} nodes")
    adj: dict[str, list[str]] = {n: [] for n in g.nodes}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[str] = set()
    comps = []
    for n in g.nodes:
        if n in seen:
            continue
        seen.add(n)
        queue = [n]
        for x in queue:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(sorted(queue))
    comps.sort(key=lambda m: (-len(m), m[0]))
    out = []
    for rank, members in enumerate(comps, 1):
        member_set = set(members)
        weights = [w for (a, b), w in g.edges.items() if a in member_set]
        files = set().union(*(g.file_sets[m] for m in members))
        shared = sum(1 for h in files
                     if sum(h in g.file_sets[m] for m in members) >= 2)
        out.append({"id": rank, "size": len(members), "members": tuple(members),
                    "shared_files": shared,
                    "mean_weight": sum(weights) / len(weights) if weights else 0.0})
    return out


def oracle_tail_loglik(stats, family: str, params: dict[str, float]) -> float:
    """Tail log-likelihood of one family from a parameter dict.

    stats is a heavytail.families._TailStats. The formulas are the ones each
    family's fused objective must reproduce bit for bit.
    """
    n, xm = stats.n, stats.x_min
    if family == "power_law":
        a = params["alpha"]
        return n * math.log(a - 1) - n * stats.log_xmin - a * (stats.sum_log - n * stats.log_xmin)
    if family == "trunc_power_law":
        a, lam = params["alpha"], params["lambda"]
        log_c = (1 - a) * math.log(lam) - log_upper_gamma(1 - a, lam * xm)
        return n * log_c - a * stats.sum_log - lam * stats.sum_x
    if family == "exponential":
        lam = params["lambda"]
        return n * math.log(lam) - lam * (stats.sum_x - n * xm)
    if family == "stretched_exponential":
        b, lam = params["beta"], params["lambda"]
        s_b = float(np.exp(b * stats.log_x).sum())
        return (n * (math.log(b) + math.log(lam)) + (b - 1) * stats.sum_log
                - lam * (s_b - n * xm ** b))
    if family in ("lognormal", "lognormal_positive"):
        mu, sigma = params["mu"], params["sigma"]
        z0 = (stats.log_xmin - mu) / sigma
        quad = stats.sum_log_sq - 2 * mu * stats.sum_log + n * mu * mu
        return (-stats.sum_log - n * math.log(sigma) - 0.5 * n * math.log(2 * math.pi)
                - quad / (2 * sigma * sigma) - n * float(log_ndtr(-z0)))
    raise InvalidParams(f"unknown family {family!r}")


def oracle_graph_recount(page_edges: list[tuple[str, str]], pld_func) -> tuple[
        dict[str, int], dict[tuple[str, str], int]]:
    """Recount page counts and collapsed edge weights with plain dicts.

    pld_func maps a URL to its PLD or raises; failing rows are dropped whole.
    """
    pages: dict[str, set[str]] = {}
    edges: dict[tuple[str, str], int] = {}
    for src, dst in page_edges:
        try:
            s, d = pld_func(src), pld_func(dst)
        except Exception:
            continue
        pages.setdefault(s, set()).add(src)
        pages.setdefault(d, set()).add(dst)
        edges[(s, d)] = edges.get((s, d), 0) + 1
    return {p: len(v) for p, v in pages.items()}, edges


def oracle_name_badness(name: str, table: FreqTable) -> float:
    """dga.name_badness from the counts, one conditional probability per
    adjacent pair of in-alphabet characters."""
    lowered = name.lower()
    pairs = [(table.alphabet.index(a), table.alphabet.index(b))
             for a, b in zip(lowered, lowered[1:])
             if a in table.alphabet and b in table.alphabet]
    if not pairs:
        return 0.0
    denom = table.counts.sum(axis=1).astype(np.float64) + table.smoothing * len(table.alphabet)
    total = 0.0
    for i, j in pairs:
        total += (table.counts[i, j] + table.smoothing) / denom[i] if denom[i] else 0.0
    return float(100.0 * total / len(pairs))


def oracle_logistic_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                         l2: float) -> float:
    """The loss predict.train_logreg descends: mean cross-entropy, written
    stably as log(1 + e^z) - z y, plus l2/2 |w|^2 (the bias is free)."""
    z = X @ w + b
    ce = np.mean(np.logaddexp(0.0, z) - z * y)
    return float(ce + 0.5 * l2 * np.dot(w, w))


def oracle_stacked_feature(g: PldGraph, base_prob: dict[str, float]) -> dict[str, float]:
    """predict.stacked_feature from per-node neighbor sets."""
    fallback = float(np.mean(list(base_prob.values()))) if base_prob else 0.5
    neighbors: dict[int, set[int]] = {i: set() for i in range(g.n_nodes)}
    for s, d in zip(g.edge_src, g.edge_dst):
        s, d = int(s), int(d)
        if s == d:
            continue
        neighbors[s].add(d)
        neighbors[d].add(s)
    out: dict[str, float] = {}
    for i, pld in enumerate(g.plds):
        vals = [base_prob[g.plds[j]] for j in neighbors[i] if g.plds[j] in base_prob]
        out[pld] = float(np.mean(vals)) if vals else fallback
    return out
