"""Local and network features of a PLD graph.

Conventions, applied uniformly: a self-loop contributes 1 to indegree and 1
to outdegree, but is excluded from the PageRank transition matrix, from HITS,
and from triangle counting. Edge weights are ignored. Triangles are counted
on the undirected simplification (antiparallel pairs merge into one edge).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import PldGraph, weak_components
from .tables import read_table, reject_duplicate_rows, write_table

log = logging.getLogger(__name__)


@dataclass
class PowerIterationResult:
    scores: np.ndarray
    iterations: int
    converged: bool


@dataclass
class HitsResult:
    hubs: np.ndarray
    authorities: np.ndarray
    iterations: int
    converged: bool


@dataclass
class NodeMetrics:
    plds: list[str]
    indegree: np.ndarray
    outdegree: np.ndarray
    total_degree: np.ndarray
    pagerank: np.ndarray
    hub: np.ndarray
    authority: np.ndarray
    triangles: np.ndarray
    num_pages: np.ndarray
    pagerank_converged: bool = True
    hits_converged: bool = True


def degrees(g: PldGraph) -> tuple[np.ndarray, np.ndarray]:
    """(indegree, outdegree) over distinct collapsed edges, self-loops included."""
    indeg = np.bincount(g.edge_dst, minlength=g.n_nodes).astype(np.int64)
    outdeg = np.bincount(g.edge_src, minlength=g.n_nodes).astype(np.int64)
    return indeg, outdeg


def pagerank(g: PldGraph, damping: float = 0.85, tol: float = 1e-10,
             max_iter: int = 100) -> PowerIterationResult:
    """Power iteration with uniform teleport and uniform dangling mass.

    Self-loops are excluded from the transition, so a node whose only edge is
    a self-loop is dangling. Convergence is an L1 step delta below tol; on
    max_iter the last iterate is still returned, flagged unconverged.
    """
    n = g.n_nodes
    keep = g.edge_src != g.edge_dst
    src = g.edge_src[keep]
    dst = g.edge_dst[keep]
    outdeg = np.bincount(src, minlength=n).astype(np.float64)
    dangling = outdeg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / outdeg[~dangling]
    # column-stochastic transition restricted to non-dangling columns
    M = sp.csr_matrix((inv_out[src], (dst, src)), shape=(n, n))
    p = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        nxt = damping * (M @ p) + damping * p[dangling].sum() / n + teleport
        delta = float(np.abs(nxt - p).sum())
        p = nxt
        if delta < tol:
            converged = True
            break
    if not converged:
        log.warning("pagerank did not converge in %d iterations", max_iter)
    return PowerIterationResult(p, iterations, converged)


def hits(g: PldGraph, tol: float = 1e-10, max_iter: int = 1000) -> HitsResult:
    """Hub and authority scores, L2-normalized each half-step.

    Self-loops are dropped. Converged when both vectors move less than tol
    in the max norm.
    """
    n = g.n_nodes
    A = g.adjacency()
    if A.nnz == 0:
        return HitsResult(np.zeros(n), np.zeros(n), 0, True)
    At = A.T.tocsr()
    h = np.full(n, 1.0 / np.sqrt(n))
    a = np.zeros(n)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        a_new = At @ h
        norm = np.linalg.norm(a_new)
        if norm > 0:
            a_new /= norm
        h_new = A @ a_new
        norm = np.linalg.norm(h_new)
        if norm > 0:
            h_new /= norm
        moved = max(np.abs(a_new - a).max(), np.abs(h_new - h).max())
        a, h = a_new, h_new
        if moved < tol:
            converged = True
            break
    if not converged:
        log.warning("hits did not converge in %d iterations", max_iter)
    return HitsResult(h, a, iterations, converged)


def _undirected_adjacency(g: PldGraph) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique undirected edge list (u < v), self-loops dropped."""
    keep = g.edge_src != g.edge_dst
    u = np.minimum(g.edge_src[keep], g.edge_dst[keep])
    v = np.maximum(g.edge_src[keep], g.edge_dst[keep])
    # one flat key per pair sorts as (u, v) does, far cheaper than a row-wise unique
    n = g.n_nodes
    keys = np.unique(u * n + v)
    return keys // n, keys % n


def triangle_counts(g: PldGraph) -> np.ndarray:
    """Per-node triangle counts on the undirected simplification.

    Edges are oriented from lower to higher degree (ties by id), so each
    triangle is a -> b -> c with a -> c for exactly one ordering of its
    corners. With O the oriented adjacency, (O @ O) * O has a 1 for it at
    (a, c), credited to a by its row sum and to c by its column sum, and
    (O.T @ O) * O a 1 at (b, c), credited to b by its row sum.
    """
    n = g.n_nodes
    u, v = _undirected_adjacency(g)
    if len(u) == 0:
        return np.zeros(n, dtype=np.int64)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    rank = np.lexsort((np.arange(n), deg))  # order: degree asc, id asc
    pos = np.empty(n, dtype=np.int64)
    pos[rank] = np.arange(n)
    # orient each edge toward the higher-ranked endpoint
    swap = pos[u] > pos[v]
    O = sp.csr_matrix((np.ones(len(u), dtype=np.int64),
                       (np.where(swap, v, u), np.where(swap, u, v))), shape=(n, n))
    closing = (O @ O).multiply(O)
    shared_tail = (O.T @ O).multiply(O)
    tri = (np.asarray(closing.sum(axis=1)).ravel() + np.asarray(closing.sum(axis=0)).ravel()
           + np.asarray(shared_tail.sum(axis=1)).ravel())
    return tri.astype(np.int64)


def connected_components(g: PldGraph) -> np.ndarray:
    """Weak component ids, dense 0..k-1, ordered by decreasing size then
    smallest member id."""
    return _relabel_components(weak_components(g.n_nodes, g.edge_src, g.edge_dst))


def _relabel_components(raw: np.ndarray) -> np.ndarray:
    # weak_components labels are dense 0..k-1 in smallest-member order, so a
    # stable sort by decreasing size breaks ties by smallest member
    size = np.bincount(raw)
    order = np.argsort(-size, kind="stable")
    remap = np.empty(len(size), dtype=np.int64)
    remap[order] = np.arange(len(size))
    return remap[raw]


def compute_node_metrics(g: PldGraph, damping: float = 0.85, pagerank_max_iter: int = 100,
                         hits_max_iter: int = 1000) -> NodeMetrics:
    indeg, outdeg = degrees(g)
    pr = pagerank(g, damping=damping, max_iter=pagerank_max_iter)
    ht = hits(g, max_iter=hits_max_iter)
    tri = triangle_counts(g)
    return NodeMetrics(
        plds=g.plds,
        indegree=indeg,
        outdegree=outdeg,
        total_degree=indeg + outdeg,
        pagerank=pr.scores,
        hub=ht.hubs,
        authority=ht.authorities,
        triangles=tri,
        num_pages=g.page_counts.copy(),
        pagerank_converged=pr.converged,
        hits_converged=ht.converged,
    )


METRICS_HEADER = ("pld", "indeg", "outdeg", "total", "pagerank", "hub", "auth",
                  "triangles", "pages")


def write_metrics(m: NodeMetrics, path: str) -> None:
    write_table(path, METRICS_HEADER, (
        m.plds, m.indegree, m.outdegree, m.total_degree, m.pagerank, m.hub,
        m.authority, m.triangles, m.num_pages))


def read_metrics(path: str) -> NodeMetrics:
    plds, indeg, outdeg, total, pr, hub, auth, tri, pages = read_table(
        path, METRICS_HEADER, (str, int, int, int, float, float, float, int, int))
    reject_duplicate_rows(path, METRICS_HEADER, plds)
    return NodeMetrics(plds=plds, indegree=indeg, outdegree=outdeg,
                       total_degree=total, pagerank=pr, hub=hub, authority=auth,
                       triangles=tri, num_pages=pages)
