"""Co-occurrence network: Jaccard weights vs the quadratic oracle, component
extraction and ordering."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webmal.errors import EmptyInput, InputError
from webmal.mdn import (CooccurrenceGraph, build_cooccurrence, extract_mdns,
                        mdn_components, read_cooccurrence, write_cooccurrence)
from webmal.oracles import oracle_jaccard


def test_identical_sets_weight_one():
    g = build_cooccurrence({"a.com": {"f1", "f2"}, "b.com": {"f1", "f2"}})
    assert g.edges == {("a.com", "b.com"): 1.0}


def test_partial_overlap_weight():
    g = build_cooccurrence({"a.com": {"f1", "f2"}, "b.com": {"f2", "f3"}})
    assert g.edges[("a.com", "b.com")] == pytest.approx(1 / 3, abs=0)


def test_no_overlap_no_edge():
    g = build_cooccurrence({"a.com": {"f1"}, "b.com": {"f2"}})
    assert g.edges == {}
    assert g.nodes == ("a.com", "b.com")


def test_empty_set_rejected():
    with pytest.raises(EmptyInput):
        build_cooccurrence({"a.com": set()})


def test_no_self_edges_and_sorted_keys():
    g = build_cooccurrence({"z.com": {"f"}, "a.com": {"f"}, "m.com": {"f"}})
    assert all(a < b for a, b in g.edges)
    assert len(g.edges) == 3


def test_matches_quadratic_oracle_on_random_corpora():
    rng = np.random.default_rng(42)
    for trial in range(10):
        file_pool = [f"h{j:03d}" for j in range(200)]
        sets = {}
        for i in range(50):
            k = int(rng.integers(1, 12))
            sets[f"pld{i:02d}.net"] = set(rng.choice(file_pool, size=k, replace=False))
        g = build_cooccurrence(sets)
        oracle = oracle_jaccard(sets)
        assert set(g.edges) == set(oracle)
        for key in oracle:
            assert g.edges[key] == oracle[key]   # identical floats, not approx


@given(st.lists(st.tuples(st.sampled_from("abcdefgh"),
                          st.sets(st.sampled_from("0123456789"), min_size=1)),
                min_size=1, max_size=8, unique_by=lambda t: t[0]))
@settings(max_examples=150)
def test_input_order_invariance(entries):
    d = {f"{name}.com": files for name, files in entries}
    keys = list(d)
    random.Random(7).shuffle(keys)
    a = build_cooccurrence(d)
    b = build_cooccurrence({k: d[k] for k in keys})
    assert a == b


@given(st.dictionaries(st.sampled_from([f"p{i}.com" for i in range(10)]),
                       st.sets(st.sampled_from("0123456789ab"), min_size=1),
                       min_size=1, max_size=10))
@settings(max_examples=150)
def test_jaccard_bounds_and_edge_rule(sets):
    g = build_cooccurrence(sets)
    for (a, b), w in g.edges.items():
        assert 0.0 < w <= 1.0
        assert sets[a] & sets[b]
    # edge exists iff intersection non-empty
    names = sorted(sets)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert ((a, b) in g.edges) == bool(sets[a] & sets[b])


# ---------------------------------------------------------------------------
# component extraction

def test_two_disjoint_triangles():
    sets = {
        "a1.com": {"x"}, "a2.com": {"x"}, "a3.com": {"x"},
        "b1.com": {"y"}, "b2.com": {"y"}, "b3.com": {"y"},
    }
    comps = extract_mdns(build_cooccurrence(sets))
    assert len(comps) == 2
    assert [c.size for c in comps] == [3, 3]
    # tie broken by smallest member name
    assert comps[0].members == ("a1.com", "a2.com", "a3.com")
    assert comps[1].members == ("b1.com", "b2.com", "b3.com")
    assert comps[0].id == 1 and comps[1].id == 2


def test_empty_graph_empty_list():
    g = CooccurrenceGraph(nodes=(), edges={}, file_sets={})
    assert extract_mdns(g) == []


def test_components_size_ordering():
    sets = {
        "solo.com": {"s"},
        "p1.com": {"u"}, "p2.com": {"u"},
        "q1.com": {"v"}, "q2.com": {"v"}, "q3.com": {"v"},
    }
    comps = extract_mdns(build_cooccurrence(sets))
    assert [c.size for c in comps] == [3, 2, 1]
    assert comps[2].members == ("solo.com",)
    assert comps[2].mean_weight == 0.0
    assert comps[2].shared_files == 0


def test_shared_files_and_mean_weight():
    # chain: a-{f1,f2}, b-{f2,f3}, c-{f3}; f2 and f3 each on two members
    sets = {"a.com": {"f1", "f2"}, "b.com": {"f2", "f3"}, "c.com": {"f3"}}
    comps = extract_mdns(build_cooccurrence(sets))
    assert len(comps) == 1
    c = comps[0]
    assert c.size == 3
    assert c.shared_files == 2
    assert c.mean_weight == pytest.approx((1 / 3 + 1 / 2) / 2)


def test_component_partition_covers_nodes_once():
    rng = np.random.default_rng(3)
    sets = {f"p{i:02d}.org": {f"f{rng.integers(0, 30)}"} for i in range(40)}
    g = build_cooccurrence(sets)
    comps = extract_mdns(g)
    seen = [m for c in comps for m in c.members]
    assert sorted(seen) == sorted(g.nodes)
    assert len(seen) == len(set(seen))


def test_planted_components_recovered():
    rng = np.random.default_rng(8)
    sets = {}
    planted = []
    for comp in range(12):
        size = int(rng.integers(1, 6))
        members = [f"c{comp:02d}n{i}.com" for i in range(size)]
        planted.append(sorted(members))
        token = f"shared{comp:02d}"
        for i, m in enumerate(members):
            files = {token} if size > 1 else {f"lone{comp:02d}"}
            files.add(f"priv{comp:02d}x{i}")
            sets[m] = files
    comps = extract_mdns(build_cooccurrence(sets))
    assert len(comps) == 12
    got = sorted(list(c.members) for c in comps)
    assert got == sorted(planted)


# ---------------------------------------------------------------------------
# serialization

def test_roundtrip(tmp_path):
    sets = {"a.com": {"f1", "f2"}, "b.com": {"f2"}, "c.com": {"zz"}}
    g = build_cooccurrence(sets)
    epath, spath = str(tmp_path / "edges.tsv"), str(tmp_path / "sets.tsv")
    write_cooccurrence(g, epath, spath)
    back = read_cooccurrence(epath, spath)
    assert back == g


def test_components_json_deterministic():
    g = build_cooccurrence({"a.com": {"f"}, "b.com": {"f"}, "c.com": {"g"}})
    text = json.dumps(mdn_components(g), sort_keys=True)
    assert json.loads(text) == [
        {"id": 1, "size": 2, "members": ["a.com", "b.com"], "shared_files": 1,
         "mean_weight": 1.0},
        {"id": 2, "size": 1, "members": ["c.com"], "shared_files": 0,
         "mean_weight": 0.0}]
    assert text == json.dumps(mdn_components(g), sort_keys=True)


def test_read_rejects_orphan_edge(tmp_path):
    (tmp_path / "sets.tsv").write_text("a.com\tf1\nb.com\tf2\n")
    (tmp_path / "edges.tsv").write_text("a.com\tb.com\t0.5\n")
    with pytest.raises(InputError):
        read_cooccurrence(str(tmp_path / "edges.tsv"), str(tmp_path / "sets.tsv"))
