"""Domain-name badness score from adjacent-character-pair frequencies.

A frequency table of character bigrams is trained on regular names; a name
is scored as 100 times the mean conditional probability of its adjacent
character pairs under that table. Regular names land well above 5,
algorithmically generated ones below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from typing import Iterable

import numpy as np

from .errors import EmptyCorpus, InputError, UntrainedTable
from .tables import read_json, read_table, write_json, write_table

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
        self._set_rows()

    def _set_rows(self) -> None:
        """Derive from counts the float rows of P(j | i) that name_badness
        reads, so scoring a name makes no numpy call."""
        row_sums = self.counts.sum(axis=1).astype(np.float64)
        self._trained = bool(row_sums.sum() > 0)
        denom = row_sums + self.smoothing * len(self.alphabet)
        with np.errstate(divide="ignore", invalid="ignore"):
            prob = (self.counts + self.smoothing) / denom[:, None]
        self._rows = np.where(denom[:, None] == 0, 0.0, prob).tolist()

    @property
    def trained(self) -> bool:
        return self._trained

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
    table._set_rows()
    return table


def name_badness(name: str, table: FreqTable) -> float:
    """100 x mean conditional pair probability of the name under the table.

    Names with fewer than two in-alphabet characters (hence no pairs) score 0.
    """
    if not table.trained:
        raise UntrainedTable("frequency table has no counts")
    pairs = table.pair_indices(name)
    if not pairs:
        return 0.0
    rows = table._rows
    total = 0.0
    for i, j in pairs:
        total += rows[i][j]
    return 100.0 * total / len(pairs)


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

def write_freq_table(table: FreqTable, path: str) -> None:
    write_json({
        "alphabet": table.alphabet,
        "counts": [int(c) for c in table.counts.reshape(-1)],
        "smoothing": table.smoothing,
    }, path)


def read_freq_table(path: str) -> FreqTable:
    """A table as write_freq_table writes it; a missing key or a value of the
    wrong type is an InputError naming the file."""
    payload = read_json(path)
    try:
        alphabet = payload["alphabet"]
        counts = payload["counts"]
        m = len(alphabet)
        if len(counts) != m * m:
            raise InputError(f"{path}: counts length {len(counts)} != {m * m}")
        return FreqTable(alphabet=alphabet,
                         counts=np.asarray(counts, dtype=np.int64).reshape(m, m),
                         smoothing=float(payload["smoothing"]))
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from None


DGA_HEADER = ("pld", "score", "verdict")


def write_dga_scores(scores: Iterable[tuple[str, float]], path: str) -> None:
    """dga.tsv: one (pld, score, verdict) row per name, under a header."""
    rows = list(scores)
    write_table(path, DGA_HEADER, (map(itemgetter(0), rows), map(itemgetter(1), rows),
                                   (classify_dga(s) for _, s in rows)))


def read_dga_scores(path: str) -> dict[str, float]:
    """pld -> score from a dga.tsv written by write_dga_scores."""
    plds, scores, _ = read_table(path, DGA_HEADER, (str, float, str))
    return dict(zip(plds, scores.tolist()))


@lru_cache(maxsize=1)
def load_default_table() -> FreqTable:
    """The pre-trained English table shipped with the package."""
    ref = resources.files("webmal").joinpath("data/english_bigrams.json")
    with resources.as_file(ref) as path:
        return read_freq_table(str(path))


@lru_cache(maxsize=1)
def default_wordlist() -> tuple[str, ...]:
    """The English word corpus the shipped table was trained on."""
    text = resources.files("webmal").joinpath("data/english_words.txt").read_text()
    return tuple(w for w in text.splitlines() if w)
