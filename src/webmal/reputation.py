"""File and PLD maliciousness scoring from multi-engine AV verdicts.

Each file carries a verdict vector over d engines. A file is malicious when
its detection ratio exceeds a threshold tau; a PLD is malicious when it hosts
at least one malicious file. The PLD ratio score averages per-file detection
ratios over all file occurrences (copies count), and the file-diversity
entropy summarizes how occurrences spread over distinct files.

pld_dichotomy, pld_ratio_score and file_diversity_entropy define the scores
one PLD at a time. score_plds computes them for every PLD at once from
observation rows on integer ids, sorted by (PLD, file hash): each per-PLD sum
is a bincount, which adds a PLD's rows one at a time in that order, the
order of the scalar loops, so the results are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, ne
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (EmptyProfile, EmptyVector, InputError, InvalidParams,
                     MissingVerdict)
from .mdn import FileSets
from .tables import read_table, reject_duplicate_rows, where, write_table


# ---------------------------------------------------------------------------
# verdict matrix

@dataclass(frozen=True)
class VerdictMatrix:
    """Per-file verdict bit vectors, one shared engine count d.

    Vectors are stored as integers (bit k = engine k). d is a corpus-level
    constant; ragged rows are rejected at load rather than padded.
    """

    d: int
    masks: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise EmptyVector("engine count d must be >= 1")

    def __contains__(self, file_hash: str) -> bool:
        return file_hash in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def detections(self, file_hash: str) -> int:
        return self._mask(file_hash).bit_count()

    def ratio(self, file_hash: str) -> float:
        return self.detections(file_hash) / self.d

    def binary(self, file_hash: str, tau: float = 0.0) -> int:
        _check_tau(tau)
        return 1 if self.ratio(file_hash) > tau else 0

    def _mask(self, file_hash: str) -> int:
        try:
            return self.masks[file_hash]
        except KeyError:
            raise _missing(file_hash) from None


def _missing(file_hash: str) -> MissingVerdict:
    return MissingVerdict(f"no verdict row for file {file_hash!r}")


def _check_tau(tau: float) -> None:
    if not (0.0 <= tau < 1.0):
        raise InvalidParams(f"tau must be in [0,1), got {tau}")


def file_score_binary(verdicts: Sequence[int], tau: float = 0.0) -> int:
    """Dichotomous file score: 1 iff the detection ratio exceeds tau."""
    _check_tau(tau)
    return 1 if file_score_ratio(verdicts) > tau else 0


def file_score_ratio(verdicts: Sequence[int]) -> float:
    """Detection ratio: fraction of engines flagging the file."""
    v = np.asarray(verdicts)
    if v.size == 0:
        raise EmptyVector("verdict vector is empty")
    return float(np.mean(v != 0))


# ---------------------------------------------------------------------------
# PLD profiles: the scores of one PLD

@dataclass(frozen=True)
class PldFileProfile:
    """Files observed on one PLD with occurrence counts (k_i >= 1)."""

    pld: str
    files: Mapping[str, int]

    @property
    def n_unique(self) -> int:
        return len(self.files)

    @property
    def total(self) -> int:
        return sum(self.files.values())


def pld_dichotomy(profile: PldFileProfile, verdicts: VerdictMatrix,
                  tau: float = 0.0) -> str:
    """"malicious" iff some hosted file crosses the tau dichotomy."""
    _check_tau(tau)
    for h in profile.files:
        if verdicts.binary(h, tau):
            return "malicious"
    return "clean"


def pld_ratio_score(profile: PldFileProfile, verdicts: VerdictMatrix) -> float:
    """Occurrence-weighted mean detection ratio over the PLD's files.

    Every copy of a file contributes its ratio once, hence the 1/TF
    normalizer with k_i-weighted terms.
    """
    tf = profile.total
    if tf < 1:
        raise EmptyProfile(f"PLD {profile.pld!r} has no file occurrences")
    total = 0.0
    for h in sorted(profile.files):
        total += profile.files[h] * verdicts.ratio(h)
    return total / tf


def file_diversity_entropy(profile: PldFileProfile) -> float:
    """Shannon entropy (bits) of the occurrence distribution over files."""
    tf = profile.total
    if tf < 1:
        raise EmptyProfile(f"PLD {profile.pld!r} has no file occurrences")
    h = 0.0
    for name in sorted(profile.files):
        p = profile.files[name] / tf
        h -= p * math.log2(p)
    return h


# ---------------------------------------------------------------------------
# observation rows: the scores of every PLD

@dataclass(frozen=True, eq=False)
class Observations:
    """The files each PLD hosts, one (PLD, file) row each in (PLD, hash)
    order, and each row's occurrence count."""

    sets: FileSets
    count: np.ndarray

    @classmethod
    def from_rows(cls, plds: Sequence[str], hashes: Sequence[str],
                  counts: Sequence[int]) -> Observations:
        """Rows of one (pld, hash) pair accumulate."""
        sets, row = FileSets.from_rows(plds, hashes)
        count = np.zeros(len(sets.pld), dtype=np.int64)
        np.add.at(count, row, np.asarray(counts, dtype=np.int64))
        return cls(sets, count)


def _observations(profiles: Observations | Iterable[PldFileProfile]) -> Observations:
    """Observations as they are, or the rows of a list of profiles."""
    if isinstance(profiles, Observations):
        return profiles
    profiles = list(profiles)
    empty = min((p.pld for p in profiles if p.total < 1), default=None)
    if empty is not None:
        raise EmptyProfile(f"PLD {empty!r} has no file occurrences")
    return Observations.from_rows([p.pld for p in profiles for _ in p.files],
                                  [h for p in profiles for h in p.files],
                                  [k for p in profiles for k in p.files.values()])


def _ratios(sets: FileSets, verdicts: VerdictMatrix) -> np.ndarray:
    """The detection ratio of each row's file; a file with no verdict row,
    the first in row order, raises MissingVerdict."""
    masks = verdicts.masks
    try:
        detections = np.fromiter(map(int.bit_count, map(masks.__getitem__, sets.files)),
                                 np.int64, len(sets.files))
    except KeyError:
        known = np.fromiter(map(masks.__contains__, sets.files), bool, len(sets.files))
        raise _missing(sets.files[sets.file[known[sets.file].argmin()]]) from None
    return (detections / verdicts.d)[sets.file]


@dataclass(frozen=True, eq=False)
class Reputation:
    """The scores of every PLD, one position per PLD and no name twice:
    `plds` are sorted when score_plds made the table, and in file order when
    read_reputation read it."""

    plds: list[str]
    malicious: np.ndarray       # bool: the dichotomy
    r_bar: np.ndarray           # float64
    n_unique: np.ndarray        # int64, N
    total: np.ndarray           # int64, TF
    entropy: np.ndarray         # float64, H

    def rows(self, plds: Sequence[str]) -> np.ndarray:
        """Each name's row, or -1 where the name has no row."""
        index = dict(zip(self.plds, range(len(self.plds))))
        return np.fromiter(map(index.get, plds, repeat(-1)), np.int64, len(plds))


_DICHOTOMY = ("clean", "malicious")


def score_plds(observations: Observations | Iterable[PldFileProfile],
               verdicts: VerdictMatrix, tau: float = 0.0) -> Reputation:
    """Score every PLD, sorted by PLD name; each row equals pld_dichotomy,
    pld_ratio_score and file_diversity_entropy of its PLD."""
    _check_tau(tau)
    obs = _observations(observations)
    sets, count = obs.sets, obs.count
    ratio = _ratios(sets, verdicts)
    n = len(sets.plds)
    total = np.add.reduceat(count, sets.indptr[:-1])
    r_bar = np.bincount(sets.pld, weights=count * ratio, minlength=n) / total
    p = count / total[sets.pld]
    log_p = np.fromiter(map(math.log2, p.tolist()), np.float64, len(p))
    # -sum is the bits of h -= term; + 0.0 turns a single file's -0.0 into 0.0
    entropy = -np.bincount(sets.pld, weights=p * log_p, minlength=n) + 0.0
    malicious = np.zeros(n, dtype=bool)
    malicious[sets.pld[ratio > tau]] = True
    return Reputation(list(sets.plds), malicious, r_bar, np.diff(sets.indptr),
                      total, entropy)


def malicious_file_sets(observations: Observations | Iterable[PldFileProfile],
                        verdicts: VerdictMatrix, tau: float = 0.0) -> FileSets:
    """Per-PLD sets of hosted malicious files; clean PLDs are dropped.

    Feeds the co-occurrence builder, which expects non-empty sets only.
    """
    _check_tau(tau)
    obs = _observations(observations)
    return obs.sets.subset(_ratios(obs.sets, verdicts) > tau)


# ---------------------------------------------------------------------------
# file formats

def read_verdicts(path: str) -> VerdictMatrix:
    """Load a verdict TSV: file_hash<TAB>d<TAB>detections_bitmask_hex.

    A malformed row is found by array masks over all rows; the first one
    raises InputError with its line number.
    """
    hashes, ds, hexes = read_table(path, None, (str, int, str))
    if not hashes:
        raise InputError(f"{path}: no verdict rows")
    d = int(ds[0])
    try:
        masks = list(map(int, hexes, repeat(16)))
    except ValueError:
        # the rows before the first that is not hexadecimal are checked below
        masks = []
        for h in hexes:
            try:
                masks.append(int(h, 16))
            except ValueError:
                break
    m = len(masks)
    hashes, ds = hashes[:m], ds[:m]
    beyond = np.fromiter(map(int.bit_length, masks), np.int64, m) > d
    if min(masks, default=0) < 0:
        beyond |= np.fromiter((mask < 0 for mask in masks), bool, m)
    table = dict(zip(hashes, masks))
    bad = (ds < 1) | (ds != d) | beyond
    if len(table) < m:
        # a repeated hash must repeat the mask of its first row
        first = dict(zip(reversed(hashes), reversed(masks)))
        bad |= np.fromiter(map(ne, map(first.__getitem__, hashes), masks), bool, m)
    if bad.any():
        i = int(bad.argmax())
        at = where(path, None, i)
        if ds[i] < 1:
            raise EmptyVector(f"{at}: d must be >= 1")
        if ds[i] != d:
            raise InputError(f"{at}: d={int(ds[i])} differs from corpus d={d}")
        if beyond[i]:
            raise InputError(f"{at}: bitmask has bits beyond engine {d - 1}")
        raise InputError(f"{at}: conflicting rows for {hashes[i]!r}")
    if m < len(hexes):
        raise InputError(f"{where(path, None, m)}: not a hexadecimal bitmask: "
                         f"{hexes[m].strip()!r}")
    return VerdictMatrix(d=d, masks=table)


def write_verdicts(verdicts: VerdictMatrix, path: str) -> None:
    hashes = sorted(verdicts.masks)
    write_table(path, None, (hashes, [verdicts.d] * len(hashes),
                             [format(verdicts.masks[h], "x") for h in hashes]))


def read_observations(path: str) -> Observations:
    """Load observation TSV: pld<TAB>file_hash<TAB>count (rows accumulate)."""
    plds, hashes, counts = read_table(path, None, (str, str, int))
    low = counts < 1
    if low.any():
        raise InputError(f"{where(path, None, int(low.argmax()))}: count must be >= 1")
    return Observations.from_rows(plds, hashes, counts)


def write_observations(profiles: Iterable[PldFileProfile], path: str) -> None:
    rows = [(prof.pld, h, prof.files[h])
            for prof in sorted(profiles, key=lambda p: p.pld) for h in sorted(prof.files)]
    write_table(path, None, [map(itemgetter(i), rows) for i in range(3)])


REPUTATION_HEADER = ("pld", "dichotomy", "r_bar", "n_unique", "total", "entropy")


def write_reputation(rep: Reputation, path: str) -> None:
    """Write the table: pld, dichotomy, r_bar, N, TF, H."""
    write_table(path, REPUTATION_HEADER, (
        rep.plds, map(_DICHOTOMY.__getitem__, rep.malicious.tolist()), rep.r_bar,
        rep.n_unique, rep.total, rep.entropy))


def read_reputation(path: str) -> Reputation:
    plds, dichotomy, r_bar, n_unique, total, entropy = read_table(
        path, REPUTATION_HEADER, (str, str, float, int, int, float))
    try:
        malicious = np.fromiter(map(_DICHOTOMY.index, dichotomy), bool, len(plds))
    except ValueError:
        i = next(i for i, label in enumerate(dichotomy) if label not in _DICHOTOMY)
        raise InputError(f"{where(path, REPUTATION_HEADER, i)}: bad dichotomy "
                         f"{dichotomy[i]!r}") from None
    reject_duplicate_rows(path, REPUTATION_HEADER, plds)
    return Reputation(plds, malicious, r_bar, n_unique, total, entropy)
