import numpy as np
import pytest

from webmal.graph import PldGraph, build_pld_graph
from webmal.metrics import (compute_node_metrics, connected_components, degrees,
                            hits, pagerank, triangle_counts)
from webmal.oracles import (oracle_components, oracle_degrees, oracle_hits,
                            oracle_pagerank, oracle_triangles,
                            oracle_triangles_intersect)
from webmal.psl import parse_psl
from webmal.synthlab import default_spec, plant_crawl


def make_graph(n, edges):
    """Graph from explicit integer edge tuples (src, dst[, weight])."""
    plds = [f"n{i:03d}.com" for i in range(n)]
    rows = sorted((e[0], e[1], e[2] if len(e) > 2 else 1) for e in edges)
    src = np.array([r[0] for r in rows], dtype=np.int64)
    dst = np.array([r[1] for r in rows], dtype=np.int64)
    w = np.array([r[2] for r in rows], dtype=np.int64)
    return PldGraph(plds, np.ones(n, dtype=np.int64), src, dst, w)


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < m:
        s, d = rng.integers(0, n, size=2)
        seen.add((int(s), int(d)))
    return make_graph(n, sorted(seen))


def test_degrees_self_loop_counts_once_each_way():
    g = make_graph(3, [(0, 1), (1, 1), (2, 1)])
    indeg, outdeg = degrees(g)
    assert list(indeg) == [0, 3, 0]
    assert list(outdeg) == [1, 1, 1]


def test_degrees_ignore_weights():
    g = make_graph(2, [(0, 1, 99)])
    indeg, outdeg = degrees(g)
    assert list(indeg) == [0, 1]
    assert list(outdeg) == [1, 0]


def test_pagerank_two_node_chain():
    # a -> b with a dangling b: exact fixed point is (20/57, 37/57)
    g = make_graph(2, [(0, 1)])
    res = pagerank(g, damping=0.85, tol=1e-14, max_iter=500)
    assert res.converged
    assert res.scores[0] == pytest.approx(20 / 57, abs=1e-12)
    assert res.scores[1] == pytest.approx(37 / 57, abs=1e-12)
    # coarse figures often quoted for this configuration
    assert res.scores[0] == pytest.approx(0.35044, abs=1e-3)
    assert res.scores[1] == pytest.approx(0.64956, abs=1e-3)


def test_pagerank_cycle_uniform():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    res = pagerank(g)
    assert np.allclose(res.scores, 1 / 3, atol=1e-9)


def test_pagerank_self_loop_excluded():
    # node 1's only out-edge is a self-loop, so it is dangling
    g1 = make_graph(2, [(0, 1), (1, 1)])
    g2 = make_graph(2, [(0, 1)])
    r1 = pagerank(g1, tol=1e-14, max_iter=500)
    r2 = pagerank(g2, tol=1e-14, max_iter=500)
    assert np.allclose(r1.scores, r2.scores, atol=1e-12)


def test_pagerank_sums_to_one_and_damping_to_zero_uniform():
    g = random_graph(30, 120, seed=1)
    res = pagerank(g)
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-9)
    res0 = pagerank(g, damping=1e-9)
    assert np.allclose(res0.scores, 1 / 30, atol=1e-6)


def test_pagerank_nonconvergence_reported():
    g = random_graph(40, 160, seed=2)
    res = pagerank(g, tol=1e-15, max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert res.scores.sum() == pytest.approx(1.0, abs=1e-9)


def test_hits_star():
    # one center pointing at three leaves: center is the only hub
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    res = hits(g)
    assert res.converged
    assert res.hubs[0] == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.authorities[1:], 1 / np.sqrt(3), atol=1e-9)
    assert res.authorities[0] == pytest.approx(0.0, abs=1e-9)


def test_hits_unit_norm():
    g = random_graph(25, 90, seed=3)
    res = hits(g)
    assert np.linalg.norm(res.hubs) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(res.authorities) == pytest.approx(1.0, abs=1e-9)


def test_triangles_simple():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert list(triangle_counts(g)) == [1, 1, 1]


def test_triangles_k4():
    edges = [(i, j) for i in range(4) for j in range(4) if i < j]
    g = make_graph(4, edges)
    assert list(triangle_counts(g)) == [3, 3, 3, 3]


def test_triangles_antiparallel_merge_and_self_loops():
    # 0<->1 plus 1->2, 2->0, and a self-loop: still exactly one triangle
    g = make_graph(3, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 2)])
    assert list(triangle_counts(g)) == [1, 1, 1]


def test_components_ordering():
    # sizes 3 and 2; bigger first
    g = make_graph(5, [(3, 4), (0, 1), (1, 2)])
    comp = connected_components(g)
    assert list(comp) == [0, 0, 0, 1, 1]


def test_components_tie_breaks_by_smallest_member():
    g = make_graph(4, [(2, 3), (0, 1)])
    comp = connected_components(g)
    assert list(comp) == [0, 0, 1, 1]


@pytest.mark.parametrize("seed", range(8))
def test_against_oracles_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    m = int(rng.integers(n, 4 * n))
    g = random_graph(n, m, seed=seed + 100)
    indeg, outdeg = degrees(g)
    o_in, o_out = oracle_degrees(g)
    assert np.array_equal(indeg, o_in)
    assert np.array_equal(outdeg, o_out)
    assert np.array_equal(triangle_counts(g), oracle_triangles(g))
    assert np.array_equal(oracle_triangles_intersect(g), oracle_triangles(g))
    assert np.array_equal(connected_components(g), oracle_components(g))
    pr = pagerank(g, tol=1e-14, max_iter=1000)
    assert np.abs(pr.scores - oracle_pagerank(g)).max() < 1e-8
    ht = hits(g, tol=1e-13, max_iter=5000)
    o_hub, o_auth = oracle_hits(g)
    assert np.abs(ht.hubs - o_hub).max() < 1e-6
    assert np.abs(ht.authorities - o_auth).max() < 1e-6


def test_triangles_match_intersect_oracle_on_planted_graph():
    # beyond the cubic oracle's reach: a planted crawl of 2,000 PLDs
    c = plant_crawl(default_spec(seed=5, n_plds=2000))
    g = build_pld_graph(c.edges, parse_psl(c.psl_text))
    tri = triangle_counts(g)
    assert tri.dtype == np.int64
    assert tri.sum() > 0
    assert np.array_equal(tri, oracle_triangles_intersect(g))


def test_compute_node_metrics_assembly():
    g = make_graph(4, [(0, 1), (1, 2), (2, 0), (0, 0), (3, 0)])
    m = compute_node_metrics(g)
    assert m.total_degree.tolist() == (m.indegree + m.outdegree).tolist()
    assert m.pagerank.sum() == pytest.approx(1.0, abs=1e-9)
    assert m.triangles.tolist() == [1, 1, 1, 0]
    assert m.plds == g.plds
