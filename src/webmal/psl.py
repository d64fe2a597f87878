"""Public suffix rules and pay-level-domain extraction.

A pay-level domain (PLD) is the public suffix of a host plus one more label,
i.e. the registrable domain. Rules follow the public suffix list format:
one rule per line, ``//`` comments, blank lines ignored, ``*.`` prefix for
wildcard rules and ``!`` prefix for exception rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedRule, NoHost, SuffixOnly, UnknownSuffix
from .tables import _checked


@dataclass(frozen=True)
class SuffixRules:
    """Parsed suffix rules, keyed by rule text for O(1) lookup.

    normal and wildcard keys are dot-joined label tuples; for a wildcard rule
    ``*.ck`` the key is the fixed part ``ck`` (the rule matches any single
    label in front of it). Exception keys keep all labels (``www.ck``).
    """

    normal: frozenset[str] = field(default_factory=frozenset)
    wildcard: frozenset[str] = field(default_factory=frozenset)
    exception: frozenset[str] = field(default_factory=frozenset)

    def __len__(self) -> int:
        return len(self.normal) + len(self.wildcard) + len(self.exception)


def _check_labels(rule: str, where: str) -> None:
    for label in rule.split("."):
        if not label:
            raise MalformedRule(f"{where}: empty label in rule {rule!r}")
        if any(c.isspace() for c in label):
            raise MalformedRule(f"{where}: whitespace in rule {rule!r}")


def parse_psl(text: str, path: str = "<string>") -> SuffixRules:
    """Parse public suffix rules from text read from `path`; the rules of
    the list's private section count like any other. A malformed rule
    raises MalformedRule("path:lineno: ...").
    """
    normal, wildcard, exception = set(), set(), set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        where = f"{path}:{line_no}"
        if any(c.isspace() for c in line):
            raise MalformedRule(f"{where}: whitespace in rule {line!r}")
        rule = line.lower()
        if rule.startswith("!"):
            rule = rule[1:]
            _check_labels(rule, where)
            exception.add(rule)
        elif rule.startswith("*."):
            rule = rule[2:]
            _check_labels(rule, where)
            wildcard.add(rule)
        else:
            _check_labels(rule, where)
            normal.add(rule)
    return SuffixRules(frozenset(normal), frozenset(wildcard), frozenset(exception))


def load_psl(path: str) -> SuffixRules:
    """Parse a rules file; a line that is not UTF-8 text is an InputError
    naming its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = "\n".join(_checked(path, lineno, line)
                         for lineno, line in enumerate(fh, 1))
    return parse_psl(text, path=path)


def _host_of(url: str) -> str:
    """Pull the host out of a URL: the lowercased name between the scheme and
    the path, without user info, port or outer dots. A host with whitespace
    in it raises NoHost, like a URL with no host at all. build_pld_graph calls
    it for a URL whose host part is not yet known clean, and once per host
    part to check that _host_of("http://" + host) gives the host back."""
    s = url.strip()
    i = s.find("://")
    if i >= 0:
        s = s[i + 3:]
    elif s.startswith("//"):
        s = s[2:]
    for sep in ("/", "?", "#"):
        j = s.find(sep)
        if j >= 0:
            s = s[:j]
    at = s.rfind("@")
    if at >= 0:
        s = s[at + 1:]
    if s.startswith("["):  # bracketed IPv6 literal: no registrable domain
        raise NoHost(f"no PLD-bearing host in {url!r}")
    colon = s.find(":")
    if colon >= 0:
        s = s[:colon]
    s = s.strip(".").lower()
    if not s:
        raise NoHost(f"no parsable host in {url!r}")
    if s.split() != [s]:  # a whitespace character anywhere in the host
        raise NoHost(f"whitespace in the host of {url!r}")
    return s


def _looks_like_ipv4(host: str) -> bool:
    parts = host.split(".")
    return len(parts) == 4 and all(p.isdigit() for p in parts)


def pld_of_host(host: str, rules: SuffixRules, strict: bool = False) -> str:
    """Registrable domain of a bare (already lowercased) host name."""
    if _looks_like_ipv4(host):
        raise NoHost(f"address literal {host!r} has no registrable domain")
    labels = host.split(".")
    if any(not lab for lab in labels):
        raise NoHost(f"empty label in host {host!r}")
    n = len(labels)
    suffix_len = 0
    matched = False
    # exception rules prevail over any other match; suffix is the rule minus
    # its leftmost label
    for i in range(n):
        if ".".join(labels[i:]) in rules.exception:
            suffix_len = n - i - 1
            matched = True
            break
    if not matched:
        # longest match wins; tails shrink as i grows, so take the first hit
        for i in range(n):
            tail = ".".join(labels[i:])
            if tail in rules.normal:
                suffix_len = n - i
                matched = True
                break
            # a wildcard rule *.X matches tail <label>.X
            if i + 1 < n and ".".join(labels[i + 1:]) in rules.wildcard:
                suffix_len = n - i
                matched = True
                break
            if i + 1 == n and tail in rules.wildcard:
                # host sits inside the wildcard's fixed part: "ck" for *.ck
                suffix_len = n  # forces SuffixOnly below
                matched = True
                break
    if not matched:
        if strict:
            raise UnknownSuffix(f"no rule matches host {host!r}")
        suffix_len = 1
    if suffix_len >= n:
        raise SuffixOnly(f"host {host!r} is a bare public suffix")
    return ".".join(labels[n - suffix_len - 1:])


def extract_pld(url: str, rules: SuffixRules, strict: bool = False) -> str:
    """Pay-level domain of a page URL.

    Unmatched hosts fall back to treating the final label as the public
    suffix; strict=True raises UnknownSuffix instead.
    """
    return pld_of_host(_host_of(url), rules, strict=strict)
