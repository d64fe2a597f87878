import gzip
import random

import numpy as np
import pytest

from webmal.errors import EmptyInput, InputError
from webmal.graph import (GraphBuilder, build_from_file, build_pld_graph,
                          read_graph, write_graph)
from webmal.oracles import oracle_graph_recount
from webmal.psl import parse_psl, extract_pld

RULES = parse_psl("com\nnet\norg\nfi\ncn\ncom.cn\n")


def test_collapse_and_self_loop():
    edges = [
        ("http://a.one.com/p1", "http://two.com/x"),
        ("http://b.one.com/p2", "http://two.com/y"),
        ("http://one.com/p1", "http://one.com/p3"),
    ]
    g = build_pld_graph(edges, RULES)
    assert g.plds == ["one.com", "two.com"]
    d = g.edge_dict()
    one, two = g.node_id("one.com"), g.node_id("two.com")
    assert d[(one, two)] == 2
    assert d[(one, one)] == 1  # intra-PLD link becomes a self-loop
    # distinct page URLs per PLD: one.com has p1(a sub), p2(b sub), p1, p3 -> 4
    assert g.page_counts[one] == 4
    assert g.page_counts[two] == 2


def test_page_counts_sum_to_distinct_urls():
    edges = [
        ("http://a.com/1", "http://b.com/1"),
        ("http://a.com/1", "http://b.com/2"),
        ("http://a.com/2", "http://b.com/1"),
    ]
    g = build_pld_graph(edges, RULES)
    assert int(g.page_counts.sum()) == 4


def test_order_invariance():
    base = [
        (f"http://s{i % 7}.com/p{i}", f"http://t{i % 5}.net/q{i % 3}")
        for i in range(50)
    ] + [("http://s1.com/p0", "http://s1.com/self")]
    g1 = build_pld_graph(base, RULES)
    rng = random.Random(7)
    shuffled = base[:]
    rng.shuffle(shuffled)
    g2 = build_pld_graph(shuffled, RULES)
    assert g1.plds == g2.plds
    assert np.array_equal(g1.page_counts, g2.page_counts)
    assert np.array_equal(g1.edge_src, g2.edge_src)
    assert np.array_equal(g1.edge_dst, g2.edge_dst)
    assert np.array_equal(g1.edge_weight, g2.edge_weight)


def test_skipped_rows_counted_not_fatal():
    edges = [
        ("http://a.com/1", "http://b.com/1"),
        ("http://192.168.0.1/x", "http://b.com/1"),
        ("nonsense", "http://b.com/1"),
    ]
    g = build_pld_graph(edges, RULES)
    assert g.skipped_rows == 2
    assert g.ingested_rows == 1


def test_empty_input_raises():
    with pytest.raises(EmptyInput):
        build_pld_graph([], RULES)
    with pytest.raises(EmptyInput):
        build_pld_graph([("bad", "bad")], RULES)


def test_builder_merge_matches_single_pass():
    rows = [
        (f"http://h{i % 11}.com/p{i}", f"http://h{(i * 3) % 11}.com/p{i + 1}")
        for i in range(200)
    ]
    whole = GraphBuilder(RULES)
    for s, d in rows:
        whole.add(s, d)
    left, right = GraphBuilder(RULES), GraphBuilder(RULES)
    for s, d in rows[:90]:
        left.add(s, d)
    for s, d in rows[90:]:
        right.add(s, d)
    merged = left.merge(right).build()
    g = whole.build()
    assert merged.plds == g.plds
    assert np.array_equal(merged.page_counts, g.page_counts)
    assert merged.edge_dict() == g.edge_dict()


def _random_stream(n, seed):
    rng = random.Random(seed)
    hosts = [f"h{i}.com" for i in range(40)] + [f"sub{i}.h{i % 40}.com" for i in range(20)]
    rows = []
    for _ in range(n):
        s = f"http://{rng.choice(hosts)}/p{rng.randrange(30)}"
        d = f"http://{rng.choice(hosts)}/p{rng.randrange(30)}"
        rows.append((s, d))
    return rows


def test_against_recount_oracle():
    rows = _random_stream(5000, seed=3)
    g = build_pld_graph(rows, RULES)
    pages, edges = oracle_graph_recount(rows, lambda u: extract_pld(u, RULES))
    assert {p: int(c) for p, c in zip(g.plds, g.page_counts)} == pages
    named = {(g.plds[s], g.plds[d]): int(w) for (s, d), w in g.edge_dict().items()}
    assert named == edges
    assert int(g.edge_weight.sum()) == len(rows)


def test_tsv_roundtrip(tmp_path):
    rows = _random_stream(300, seed=5)
    g = build_pld_graph(rows, RULES)
    np_, ep = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    write_graph(g, str(np_), str(ep))
    g2 = read_graph(str(np_), str(ep))
    assert g2.plds == g.plds
    assert np.array_equal(g2.page_counts, g.page_counts)
    assert g2.edge_dict() == g.edge_dict()


_NODES = "pld\tnode_id\tpage_count\na.com\t0\t2\nb.com\t1\t1\n"
_EDGES = "src_id\tdst_id\tweight\n0\t1\t3\n1\t0\t1\n"


@pytest.mark.parametrize("table, bad, message", [
    ("nodes", "b.com\t1\n", "expected 3 fields, got 2"),
    ("edges", "1\t0\t1\t9\n", "expected 3 fields, got 4"),
    ("nodes", "b.com\t1\tmany\n", "not an integer: 'many'"),
    ("edges", "1\t0.5\t1\n", "not an integer: '0.5'"),
    ("edges", "1\t2\t1\n", "edge 1 -> 2 leaves the node ids [0, 2)"),
    ("edges", "-1\t0\t1\n", "edge -1 -> 0 leaves the node ids [0, 2)"),
    ("nodes", "b.com\t1\t99999999999999999999\n",
     "integer out of range: 99999999999999999999"),
    ("edges", "1\t0\t99999999999999999999\n",
     "integer out of range: 99999999999999999999"),
    ("edges", "1\t-99999999999999999999\t1\n",
     "integer out of range: -99999999999999999999"),
], ids=["node-fields", "edge-fields", "node-cell", "edge-cell", "edge-id-high",
        "edge-id-negative", "page-count-overflow", "weight-overflow",
        "edge-id-overflow"])
def test_read_graph_malformed_is_input_error(tmp_path, table, bad, message):
    text = {"nodes": _NODES, "edges": _EDGES}
    text[table] = text[table].rsplit("\n", 2)[0] + "\n" + bad   # bad line 3
    paths = {}
    for name, body in text.items():
        paths[name] = tmp_path / f"{name}.tsv"
        paths[name].write_text(body)
    with pytest.raises(InputError) as err:
        read_graph(str(paths["nodes"]), str(paths["edges"]))
    assert str(err.value) == f"{paths[table]}:3: {message}"


def test_gzip_edge_file(tmp_path):
    path = tmp_path / "edges.tsv.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("http://a.com/1\thttp://b.com/2\n")
        fh.write("http://b.com/2\thttp://a.com/1\n")
        fh.write("malformed-line-without-tab\n")
    g = build_from_file(str(path), RULES)
    assert g.plds == ["a.com", "b.com"]
    assert g.skipped_rows == 1
