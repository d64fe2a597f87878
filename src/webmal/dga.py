"""Domain-name badness score from adjacent-character-pair frequencies.

A frequency table of character bigrams is trained on regular names; a name
is scored as 100 times the mean conditional probability of its adjacent
character pairs under that table. Regular names land well above 5,
algorithmically generated ones below it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable

import numpy as np

from .errors import EmptyCorpus, InputError, UntrainedTable, parse_float

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
DEFAULT_SMOOTHING = 1e-3
DGA_THRESHOLD = 5.0


@dataclass
class FreqTable:
    """Adjacent-pair counts over an alphabet, with additive smoothing."""

    alphabet: str = DEFAULT_ALPHABET
    counts: np.ndarray = field(default_factory=lambda: np.zeros(
        (len(DEFAULT_ALPHABET), len(DEFAULT_ALPHABET)), dtype=np.int64))
    smoothing: float = DEFAULT_SMOOTHING

    def __post_init__(self) -> None:
        if not self.alphabet:
            raise InputError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("alphabet has repeated symbols")
        if self.smoothing < 0:
            raise InputError("smoothing must be >= 0")
        m = len(self.alphabet)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (m, m):
            raise InputError(f"counts must be {m}x{m}, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise InputError("counts must be non-negative")
        self._index = {c: i for i, c in enumerate(self.alphabet)}
        self._row_sums = self.counts.sum(axis=1).astype(np.float64)

    @property
    def trained(self) -> bool:
        return bool(self.counts.sum() > 0)

    def pair_probability(self, c1: str, c2: str) -> float:
        """P(c2 | c1) with additive smoothing over the alphabet."""
        i, j = self._index[c1], self._index[c2]
        denom = self._row_sums[i] + self.smoothing * len(self.alphabet)
        if denom == 0:
            return 0.0
        return (self.counts[i, j] + self.smoothing) / denom

    def pair_indices(self, text: str) -> list[tuple[int, int]]:
        """Adjacent in-alphabet index pairs; other characters break adjacency."""
        pairs = []
        prev = -1
        for ch in text.lower():
            cur = self._index.get(ch, -1)
            if prev >= 0 and cur >= 0:
                pairs.append((prev, cur))
            prev = cur
        return pairs


def train_freq_table(corpus: Iterable[str],
                     alphabet: str = DEFAULT_ALPHABET,
                     smoothing: float = DEFAULT_SMOOTHING) -> FreqTable:
    """Accumulate adjacent-pair counts from lines of text.

    Lowercases everything; characters outside the alphabet act as separators
    so pairs never span them. A corpus yielding no pairs at all is rejected.
    """
    table = FreqTable(alphabet=alphabet,
                      counts=np.zeros((len(alphabet), len(alphabet)), dtype=np.int64),
                      smoothing=smoothing)
    total = 0
    for line in corpus:
        for i, j in table.pair_indices(line):
            table.counts[i, j] += 1
            total += 1
    if total == 0:
        raise EmptyCorpus("corpus produced no adjacent character pairs")
    table._row_sums = table.counts.sum(axis=1).astype(np.float64)
    return table


def name_badness(name: str, table: FreqTable) -> float:
    """100 x mean conditional pair probability of the name under the table.

    Names with fewer than two in-alphabet characters (hence no pairs) score 0.
    """
    if not table.trained:
        raise UntrainedTable("frequency table has no counts")
    lowered = name.lower()
    in_alpha = sum(ch in table._index for ch in lowered)
    if in_alpha < 2:
        return 0.0
    pairs = table.pair_indices(lowered)
    if not pairs:
        return 0.0
    denom = table._row_sums + table.smoothing * len(table.alphabet)
    total = 0.0
    for i, j in pairs:
        total += (table.counts[i, j] + table.smoothing) / denom[i] if denom[i] else 0.0
    return float(100.0 * total / len(pairs))


def classify_dga(score: float) -> str:
    """Threshold rule: below 5 is DGA-like; the boundary itself is regular."""
    return "likely_dga" if score < DGA_THRESHOLD else "likely_regular"


def registrable_label(pld: str) -> str:
    """First label of a registrable domain (the part the registrant chose).

    PLDs are public suffix plus one label, so everything after the first dot
    is the suffix.
    """
    return pld.strip().lower().split(".", 1)[0]


def score_pld_name(pld: str, table: FreqTable) -> float:
    return name_badness(registrable_label(pld), table)


# ---------------------------------------------------------------------------
# persistence

def write_table(table: FreqTable, path: str) -> None:
    payload = {
        "alphabet": table.alphabet,
        "counts": [int(c) for c in table.counts.reshape(-1)],
        "smoothing": table.smoothing,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _table_from_payload(payload: dict, where: str) -> FreqTable:
    try:
        alphabet = payload["alphabet"]
        counts = payload["counts"]
        smoothing = payload["smoothing"]
    except KeyError as exc:
        raise InputError(f"{where}: missing key {exc}") from None
    m = len(alphabet)
    if len(counts) != m * m:
        raise InputError(f"{where}: counts length {len(counts)} != {m * m}")
    return FreqTable(alphabet=alphabet,
                     counts=np.asarray(counts, dtype=np.int64).reshape(m, m),
                     smoothing=float(smoothing))


def read_table(path: str) -> FreqTable:
    with open(path) as fh:
        payload = json.load(fh)
    return _table_from_payload(payload, path)


def write_dga_scores(scores: Iterable[tuple[str, float]], path: str) -> None:
    """dga.tsv: one (pld, score, verdict) row per name, under a header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pld\tscore\tverdict\n")
        for name, s in scores:
            fh.write(f"{name}\t{s!r}\t{classify_dga(s)}\n")


def read_dga_scores(path: str) -> dict[str, float]:
    """pld -> score from a dga.tsv written by write_dga_scores."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, 2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) >= 2:
                out[parts[0]] = parse_float(parts[1], f"{path}:{lineno}")
    return out


@lru_cache(maxsize=1)
def load_default_table() -> FreqTable:
    """The pre-trained English table shipped with the package."""
    text = resources.files("webmal").joinpath("data/english_bigrams.json").read_text()
    return _table_from_payload(json.loads(text), "english_bigrams.json")


@lru_cache(maxsize=1)
def default_wordlist() -> tuple[str, ...]:
    """The English word corpus the shipped table was trained on."""
    text = resources.files("webmal").joinpath("data/english_words.txt").read_text()
    return tuple(w for w in text.splitlines() if w)
