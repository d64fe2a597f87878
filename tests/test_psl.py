import pytest
from hypothesis import given, strategies as st

from webmal.errors import MalformedRule, NoHost, SuffixOnly, UnknownSuffix
from webmal.psl import extract_pld, parse_psl, pld_of_host

BASIC = parse_psl("com\ncn\ncom.cn\nfi\nuk\nco.uk\n*.ck\n!www.ck\n")


def test_parse_counts_and_dedup():
    rules = parse_psl("com\ncn\ncom.cn\n")
    assert len(rules) == 3
    assert len(parse_psl("com\ncom\n")) == 1


def test_parse_comments_and_blank_lines():
    rules = parse_psl("// a comment\n\ncom\n  \n// another\nnet\n")
    assert len(rules) == 2
    assert "com" in rules.normal and "net" in rules.normal


def test_parse_kinds():
    assert "ck" in BASIC.wildcard
    assert "www.ck" in BASIC.exception
    assert "co.uk" in BASIC.normal


def test_parse_lowercases_rules():
    rules = parse_psl("COM\n")
    assert "com" in rules.normal


@pytest.mark.parametrize("text", ["co m\n", "com..cn\n", ".com\n", "com.\n", "!\n", "*.\n"])
def test_parse_malformed(text):
    with pytest.raises(MalformedRule):
        parse_psl(text)


def test_private_section_flag():
    text = ("com\n"
            "// ===BEGIN PRIVATE DOMAINS===\n"
            "blogspot.com\n"
            "// ===END PRIVATE DOMAINS===\n")
    assert "blogspot.com" in parse_psl(text).normal


def test_extract_basic():
    assert extract_pld("http://www.aalto.fi/studies", BASIC) == "aalto.fi"
    assert extract_pld("http://a.2.com.cn/index.html", BASIC) == "2.com.cn"


def test_extract_longest_rule_wins():
    # com.cn should beat cn
    assert extract_pld("http://x.y.com.cn/", BASIC) == "y.com.cn"
    assert extract_pld("http://shop.example.co.uk/p?q=1", BASIC) == "example.co.uk"


def test_extract_wildcard_and_exception():
    assert pld_of_host("a.b.ck", BASIC) == "a.b.ck"
    assert pld_of_host("foo.www.ck", BASIC) == "www.ck"
    assert pld_of_host("www.ck", BASIC) == "www.ck"
    with pytest.raises(SuffixOnly):
        pld_of_host("b.ck", BASIC)


def test_extract_host_forms():
    assert extract_pld("https://user:pw@www.example.com:8443/a#f", BASIC) == "example.com"
    assert extract_pld("example.com/path", BASIC) == "example.com"
    assert extract_pld("//cdn.example.com/x.js", BASIC) == "example.com"
    assert extract_pld("HTTP://WWW.EXAMPLE.COM/", BASIC) == "example.com"


def test_extract_errors():
    with pytest.raises(NoHost):
        extract_pld("http:///nopath", BASIC)
    with pytest.raises(NoHost):
        extract_pld("http://192.168.0.1/x", BASIC)
    with pytest.raises(SuffixOnly):
        extract_pld("http://com/", BASIC)
    with pytest.raises(UnknownSuffix):
        extract_pld("http://foo.zz/", BASIC, strict=True)


@pytest.mark.parametrize("url", ["http://a.com /x", "http:// b.com/y",
                                 "http://a.b c.com/q", "http://a.com\t/x",
                                 "http://a.b\u00a0c.com/"])
def test_whitespace_in_host_is_no_host(url):
    with pytest.raises(NoHost, match="whitespace"):
        extract_pld(url, BASIC)


def test_extract_unknown_suffix_fallback():
    # default policy: last label acts as the suffix
    assert extract_pld("http://foo.zz/", BASIC) == "foo.zz"
    assert extract_pld("http://a.b.foo.zz/", BASIC) == "foo.zz"


_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8)


@given(st.lists(_label, min_size=1, max_size=3))
def test_extract_idempotent(labels):
    host = ".".join(labels + ["com"])
    pld = pld_of_host(host, BASIC)
    assert pld_of_host(pld, BASIC) == pld
    assert extract_pld(f"http://{host}/x", BASIC) == pld


def test_pld_is_suffix_plus_one_label():
    for host in ("deep.sub.tree.example.com", "example.com", "x.example.co.uk"):
        pld = pld_of_host(host, BASIC)
        assert host.endswith(pld)
        assert pld.count(".") >= 1
