import gzip
import random
from collections import Counter

import numpy as np
import pytest

from webmal.errors import EmptyInput, InputError
from webmal import graph
from webmal.graph import build_from_file, build_pld_graph, read_graph, write_graph
from webmal.psl import parse_psl, extract_pld

from oracles import oracle_graph_recount

RULES = parse_psl("com\nnet\norg\nfi\ncn\ncom.cn\n")


def _edges_by_pair(g):
    return {(int(s), int(d)): int(w)
            for s, d, w in zip(g.edge_src, g.edge_dst, g.edge_weight)}


def test_collapse_and_self_loop():
    edges = [
        ("http://a.one.com/p1", "http://two.com/x"),
        ("http://b.one.com/p2", "http://two.com/y"),
        ("http://one.com/p1", "http://one.com/p3"),
    ]
    g = build_pld_graph(edges, RULES)
    assert g.plds == ["one.com", "two.com"]
    d = _edges_by_pair(g)
    one, two = g.plds.index("one.com"), g.plds.index("two.com")
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


def test_whitespace_host_rows_are_skipped():
    edges = [
        ("http://a.com/1", "http://b.com/1"),
        ("http://a.com /x", "http://b.com/1"),
        ("http://a.com/1", "http:// b.com/y"),
        ("http://a.b c.com/q", "http://a.com/1"),
    ]
    g = build_pld_graph(edges, RULES)
    assert g.plds == ["a.com", "b.com"]
    assert not any(c.isspace() for pld in g.plds for c in pld)
    assert (g.ingested_rows, g.skipped_rows) == (1, 3)


def test_empty_input_raises():
    with pytest.raises(EmptyInput):
        build_pld_graph([], RULES)
    with pytest.raises(EmptyInput):
        build_pld_graph([("bad", "bad")], RULES)


def _random_stream(n, seed):
    rng = random.Random(seed)
    hosts = [f"h{i}.com" for i in range(40)] + [f"sub{i}.h{i % 40}.com" for i in range(20)]
    rows = []
    for _ in range(n):
        s = f"http://{rng.choice(hosts)}/p{rng.randrange(30)}"
        d = f"http://{rng.choice(hosts)}/p{rng.randrange(30)}"
        rows.append((s, d))
    return rows


_BAD_ENDPOINTS = ("http://192.168.0.1/x", "http://[2001:db8::1]/x", "nonsense")


def _with_skipped_rows(rows, seed):
    """rows, plus rows whose good endpoint appears nowhere else and whose
    other endpoint, the source or the destination in turn, yields no PLD."""
    rng = random.Random(seed)
    out = list(rows)
    for i in range(60):
        lone = f"http://lone{i}.h{i % 40}.com/only-here"
        bad = _BAD_ENDPOINTS[i % 3]
        row = (lone, bad) if i % 2 else (bad, lone)
        out.insert(rng.randrange(len(out) + 1), row)
    return out


def test_against_recount_oracle():
    rows = _with_skipped_rows(_random_stream(5000, seed=3), seed=4)
    g = build_pld_graph(rows, RULES)
    assert g.skipped_rows == 60
    pages, edges = oracle_graph_recount(rows, lambda u: extract_pld(u, RULES))
    assert {p: int(c) for p, c in zip(g.plds, g.page_counts)} == pages
    named = {(g.plds[s], g.plds[d]): int(w) for (s, d), w in _edges_by_pair(g).items()}
    assert named == edges
    assert int(g.edge_weight.sum()) == len(rows) - 60


def test_each_url_is_parsed_once(monkeypatch):
    good = [(s, d) for s, d in _random_stream(2000, seed=9) if s != d]
    # hosts that must go through _host_of, some of them on many URLs
    unclean = [(f"http://User@H{i % 4}.com:8080/p{i}", f"HTTPS://h{i % 6}.com/q{i % 9}")
               for i in range(40)]
    self_links = [(f"http://self{i}.com/p", f"http://self{i}.com/p")
                  for i in range(20)]
    # skipped rows: bad endpoints and good unclean endpoints both repeat
    skipped = [(f"http://Lone{i % 4}.com/x", _BAD_ENDPOINTS[i % 3]) for i in range(30)]
    rows = good[:500] + unclean + self_links + good[500:1000] + skipped + good[1000:]
    host_calls, pld_calls = [], []
    real_host_of, real_pld_of_host = graph._host_of, graph.pld_of_host

    def counted_host_of(url):
        host_calls.append(url)
        return real_host_of(url)

    def counted_pld_of_host(host, *args, **kwargs):
        pld_calls.append(host)
        return real_pld_of_host(host, *args, **kwargs)

    monkeypatch.setattr(graph, "_host_of", counted_host_of)
    monkeypatch.setattr(graph, "pld_of_host", counted_pld_of_host)
    g = build_pld_graph(rows, RULES)
    assert g.skipped_rows == len(skipped)
    ingested = good + unclean + self_links
    pages = {u for row in ingested for u in row}
    assert int(g.page_counts.sum()) == len(pages)
    # no URL of an ingested row is parsed twice, and of the URLs on a clean
    # host only the first one per host is parsed at all
    parsed = Counter(u for u in host_calls if u in pages)
    assert max(parsed.values()) == 1
    good_urls = {u for row in good for u in row}
    assert sum(u in parsed for u in good_urls) == len({u.split("/")[2] for u in good_urls})
    hosts = set()
    for url in {u for row in rows for u in row}:
        try:
            hosts.add(real_host_of(url))
        except InputError:
            pass
    assert sorted(pld_calls) == sorted(hosts)


# one PLD reachable through clean and unclean forms of its host; the last
# entries are hosts no rule matches and hosts with no PLD at all
_HOST_FORMS = [
    ("a.com", ["user@a.com", "u:pw@a.com", "a.com:8080", "A.com", "a.com.",
               ".a.com", "www.a.com?q=1", "a.com#frag", " a.com", "a.com "]),
    ("b.net", ["x.b.net", "X.B.NET", "x.b.net:443", "x.b.net.", "x.b.net?q"]),
    ("d.com.cn", ["d.com.cn", "www.D.com.cn", "d.com.cn:1"]),
    ("e.zz", ["e.zz", "w.E.zz", "e.zz.", "e.zz:99"]),
    (None, ["[2001:db8::1]", "[::1]:80", "10.0.0.1", "com", "COM.", "", " "]),
]


def _url_forms(seed):
    """Page URLs over every host form, with https://, no path, a path that
    starts with ? or #, and some URLs that begin with no scheme at all."""
    rng = random.Random(seed)
    urls = []
    for _, forms in _HOST_FORMS:
        for host in forms:
            for scheme in ("http://", "https://", "HTTP://", "//", ""):
                urls.append(f"{scheme}{host}")
                urls.append(f"{scheme}{host}/p{rng.randrange(3)}")
                urls.append(f"{scheme}{host}/?p{rng.randrange(3)}")
    return urls


@pytest.mark.parametrize("strict", [False, True], ids=["loose", "strict"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fast_host_path_against_recount_oracle(strict, seed):
    urls = _url_forms(seed)
    rng = random.Random(seed)
    rows = [(rng.choice(urls), rng.choice(urls)) for _ in range(3000)]
    rows += [(u, u) for u in rng.sample(urls, 40)]
    rng.shuffle(rows)
    g = build_pld_graph(rows, RULES, strict=strict)
    pages, edges = oracle_graph_recount(rows, lambda u: extract_pld(u, RULES, strict))
    assert {p: int(c) for p, c in zip(g.plds, g.page_counts)} == pages
    named = {(g.plds[s], g.plds[d]): int(w) for (s, d), w in _edges_by_pair(g).items()}
    assert named == edges
    assert g.skipped_rows == len(rows) - sum(edges.values())
    assert ("e.zz" in g.plds) is not strict
    assert {"a.com", "b.net", "d.com.cn"} <= set(g.plds)


def test_crlf_edge_file_is_the_lf_graph(tmp_path):
    # each URL is a source and a destination, so a kept CR would split pages
    rows = [("http://a.com/1", "http://b.com/2"), ("http://b.com/2", "http://a.com"),
            ("http://a.com", "http://a.com/1"), ("http://c.com/x", "http://b.com/2")]
    graphs = []
    for name, newline in (("lf.tsv", "\n"), ("crlf.tsv", "\r\n")):
        path = tmp_path / name
        path.write_bytes("".join(f"{s}\t{d}{newline}" for s, d in rows).encode())
        graphs.append(build_from_file(str(path), RULES))
    lf, crlf = graphs
    assert crlf.plds == lf.plds == ["a.com", "b.com", "c.com"]
    assert crlf.page_counts.tolist() == lf.page_counts.tolist() == [2, 1, 1]
    assert _edges_by_pair(crlf) == _edges_by_pair(lf)
    assert (crlf.ingested_rows, crlf.skipped_rows) == (4, 0)


def test_tsv_roundtrip(tmp_path):
    rows = _random_stream(300, seed=5)
    g = build_pld_graph(rows, RULES)
    np_, ep = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    write_graph(g, str(np_), str(ep))
    g2 = read_graph(str(np_), str(ep))
    assert g2.plds == g.plds
    assert np.array_equal(g2.page_counts, g.page_counts)
    assert _edges_by_pair(g2) == _edges_by_pair(g)


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


def test_non_utf8_row_is_skipped(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_bytes(b"http://a.com/1\thttp://b.com/2\n"
                     b"http://a.com/\xff\thttp://b.com/3\n"
                     + "http://b.com/\u00fc\thttp://a.com/1\n".encode("utf-8"))
    g = build_from_file(str(path), RULES)
    assert (g.skipped_rows, g.ingested_rows) == (1, 2)
    assert g.plds == ["a.com", "b.com"] and g.page_counts.tolist() == [1, 2]


def test_strict_skips_a_host_no_rule_matches():
    rules = parse_psl("com\n")
    edges = [("http://a.zz/x", "http://b.com/y"), ("http://c.com/1", "http://b.com/y")]
    loose = build_pld_graph(edges, rules)
    # without strict the host's last label is taken as its suffix
    assert loose.plds == ["a.zz", "b.com", "c.com"]
    assert (loose.ingested_rows, loose.skipped_rows) == (2, 0)
    strict = build_pld_graph(edges, rules, strict=True)
    assert strict.plds == ["b.com", "c.com"]
    assert (strict.ingested_rows, strict.skipped_rows) == (1, 1)
    assert _edges_by_pair(strict) == {(1, 0): 1}
