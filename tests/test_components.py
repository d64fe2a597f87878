"""graph.weak_components against union-find and against scipy's csgraph.

The package never imports scipy.sparse.csgraph (see test_imports.py); these
tests do, as a second reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components as cs_components

from webmal.cli import main
from webmal.graph import PldGraph, weak_components
from webmal.metrics import connected_components

from oracles import oracle_components


def _graph(n, u, v):
    """A PldGraph with edges u[i] -> v[i], sorted by (src, dst)."""
    u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
    order = np.lexsort((v, u))
    return PldGraph([f"n{i:06d}.com" for i in range(n)], np.ones(n, np.int64),
                    u[order], v[order], np.ones(len(u), np.int64))


def _by_smallest_member(labels):
    """The same partition, labelled 0..k-1 in order of smallest member."""
    first = np.unique(labels, return_index=True)[1]
    rank = np.empty(len(first), np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[labels]


def _check(n, u, v):
    """weak_components agrees with csgraph and with union-find; returns it."""
    labels = weak_components(n, np.asarray(u, np.int64), np.asarray(v, np.int64))
    assert labels.shape == (n,)
    adjacency = sp.csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    cs = cs_components(adjacency, directed=True, connection="weak")[1]
    assert np.array_equal(labels, _by_smallest_member(cs))
    g = _graph(n, u, v)
    assert np.array_equal(connected_components(g), oracle_components(g))
    return labels


def test_no_nodes():
    assert weak_components(0, np.zeros(0, np.int64), np.zeros(0, np.int64)).shape == (0,)


def test_no_edges_leaves_every_node_alone():
    assert list(_check(5, [], [])) == [0, 1, 2, 3, 4]


def test_isolated_nodes_keep_their_own_labels():
    assert list(_check(7, [4, 1], [1, 5])) == [0, 1, 2, 3, 1, 1, 4]


def test_self_loops_join_nothing():
    assert list(_check(4, [0, 2, 3, 3], [0, 2, 3, 1])) == [0, 1, 2, 1]


def test_duplicate_and_reversed_edges():
    u = [3, 5, 3, 5, 0, 6]
    v = [5, 3, 5, 3, 6, 0]
    assert list(_check(7, u, v)) == [0, 1, 2, 3, 4, 3, 0]


@pytest.mark.parametrize("center", [0, 4, 9])
def test_star(center):
    leaves = [i for i in range(10) if i != center]
    labels = _check(12, leaves, [center] * len(leaves))
    assert list(labels) == [0] * 10 + [1, 2]


@pytest.mark.parametrize("order", ["descending", "random"])
def test_long_path_is_one_component(order):
    # a path of 200k nodes takes many hooking rounds and pointer jumps
    n = 200_000
    ids = (np.arange(n)[::-1] if order == "descending"
           else np.random.default_rng(5).permutation(n))
    labels = _check(n, ids[:-1], ids[1:])
    assert not labels.any()


@pytest.mark.parametrize("seed", range(6))
def test_random_sparse_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 2_000))
    m = int(rng.integers(0, n))
    _check(n, rng.integers(0, n, m), rng.integers(0, n, m))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=40))))
def test_matches_union_find(case):
    n, edges = case
    _check(n, [a for a, _ in edges], [b for _, b in edges])


def test_cooccur_with_one_malicious_pld(tmp_path):
    # one node and no edge: one singleton MDN, as the csgraph labelling gave
    verdicts = tmp_path / "verdicts.tsv"
    verdicts.write_text("f1\t8\tff\nf2\t8\t0\n")
    observations = tmp_path / "observations.tsv"
    observations.write_text("a.com\tf1\t2\nb.com\tf2\t1\n")
    mdns = tmp_path / "mdns.json"
    assert main(["cooccur", "--verdicts", str(verdicts), "--observations",
                 str(observations), "--out-edges", str(tmp_path / "e.tsv"),
                 "--out-sets", str(tmp_path / "s.tsv"), "--mdn-out", str(mdns)]) == 0
    assert mdns.read_bytes() == (b'[{"id":1,"mean_weight":0.0,"members":["a.com"],'
                                 b'"shared_files":0,"size":1}]\n')
