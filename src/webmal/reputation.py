"""File and PLD maliciousness scoring from multi-engine AV verdicts.

Each file carries a verdict vector over d engines. A file is malicious when
its detection ratio exceeds a threshold tau; a PLD is malicious when it hosts
at least one malicious file. The PLD ratio score averages per-file detection
ratios over all file occurrences (copies count), and the file-diversity
entropy summarizes how occurrences spread over distinct files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (EmptyProfile, EmptyVector, InputError, InvalidParams,
                     MissingVerdict)
from .tables import read_table, where, write_table

DEFAULT_ENGINES = 56


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

    def vector(self, file_hash: str) -> np.ndarray:
        mask = self._mask(file_hash)
        return np.array([(mask >> k) & 1 for k in range(self.d)], dtype=np.int8)

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
            raise MissingVerdict(f"no verdict row for file {file_hash!r}") from None


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
# PLD profiles

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


@dataclass(frozen=True)
class PldReputation:
    pld: str
    dichotomy: str              # "clean" | "malicious"
    r_bar: float
    n_unique: int
    total: int
    entropy: float


def score_plds(profiles: Iterable[PldFileProfile], verdicts: VerdictMatrix,
               tau: float = 0.0) -> list[PldReputation]:
    """Score every profile; rows come back sorted by PLD name."""
    rows = []
    for prof in sorted(profiles, key=lambda p: p.pld):
        rows.append(PldReputation(
            pld=prof.pld,
            dichotomy=pld_dichotomy(prof, verdicts, tau),
            r_bar=pld_ratio_score(prof, verdicts),
            n_unique=prof.n_unique,
            total=prof.total,
            entropy=file_diversity_entropy(prof),
        ))
    return rows


# ---------------------------------------------------------------------------
# file formats

def read_verdicts(path: str) -> VerdictMatrix:
    """Load a verdict TSV: file_hash<TAB>d<TAB>detections_bitmask_hex."""
    hashes, ds, hexes = read_table(path, None, (str, int, str))
    if not hashes:
        raise InputError(f"{path}: no verdict rows")
    d = int(ds[0])
    masks: dict[str, int] = {}
    for i, (file_hash, row_d, mask_hex) in enumerate(zip(hashes, ds.tolist(), hexes)):
        try:
            mask = int(mask_hex, 16)
        except ValueError:
            raise InputError(f"{where(path, None, i)}: not a hexadecimal bitmask: "
                             f"{mask_hex.strip()!r}") from None
        if row_d < 1:
            raise EmptyVector(f"{where(path, None, i)}: d must be >= 1")
        if row_d != d:
            raise InputError(f"{where(path, None, i)}: d={row_d} differs from "
                             f"corpus d={d}")
        if mask < 0 or mask.bit_length() > d:
            raise InputError(f"{where(path, None, i)}: bitmask has bits beyond "
                             f"engine {d - 1}")
        if masks.get(file_hash, mask) != mask:
            raise InputError(f"{where(path, None, i)}: conflicting rows for "
                             f"{file_hash!r}")
        masks[file_hash] = mask
    return VerdictMatrix(d=d, masks=masks)


def write_verdicts(verdicts: VerdictMatrix, path: str) -> None:
    hashes = sorted(verdicts.masks)
    write_table(path, None, (hashes, [verdicts.d] * len(hashes),
                             [format(verdicts.masks[h], "x") for h in hashes]))


def read_observations(path: str) -> list[PldFileProfile]:
    """Load observation TSV: pld<TAB>file_hash<TAB>count (rows accumulate)."""
    plds, hashes, counts = read_table(path, None, (str, str, int))
    low = counts < 1
    if low.any():
        raise InputError(f"{where(path, None, int(low.argmax()))}: count must be >= 1")
    grouped: dict[str, dict[str, int]] = {}
    for pld, file_hash, count in zip(plds, hashes, counts.tolist()):
        bucket = grouped.setdefault(pld, {})
        bucket[file_hash] = bucket.get(file_hash, 0) + count
    return [PldFileProfile(pld=pld, files=grouped[pld]) for pld in sorted(grouped)]


def write_observations(profiles: Iterable[PldFileProfile], path: str) -> None:
    rows = [(prof.pld, h, prof.files[h])
            for prof in sorted(profiles, key=lambda p: p.pld) for h in sorted(prof.files)]
    write_table(path, None, [map(itemgetter(i), rows) for i in range(3)])


REPUTATION_HEADER = ("pld", "dichotomy", "r_bar", "n_unique", "total", "entropy")


def write_reputation(rows: Iterable[PldReputation], path: str) -> None:
    """Write score rows: pld, dichotomy, r_bar, N, TF, H."""
    rows = list(rows)
    write_table(path, REPUTATION_HEADER, (
        [r.pld for r in rows], [r.dichotomy for r in rows],
        [float(r.r_bar) for r in rows], [r.n_unique for r in rows],
        [r.total for r in rows], [float(r.entropy) for r in rows]))


def read_reputation(path: str) -> list[PldReputation]:
    plds, dichotomy, r_bar, n_unique, total, entropy = read_table(
        path, REPUTATION_HEADER, (str, str, float, int, int, float))
    for i, label in enumerate(dichotomy):
        if label not in ("clean", "malicious"):
            raise InputError(f"{where(path, REPUTATION_HEADER, i)}: bad dichotomy "
                             f"{label!r}")
    return [PldReputation(*row) for row in zip(
        plds, dichotomy, r_bar.tolist(), n_unique.tolist(), total.tolist(),
        entropy.tolist())]


def malicious_file_sets(profiles: Iterable[PldFileProfile],
                        verdicts: VerdictMatrix,
                        tau: float = 0.0) -> dict[str, set[str]]:
    """Per-PLD sets of hosted malicious files; clean PLDs are dropped.

    Feeds the co-occurrence builder, which expects non-empty sets only.
    """
    _check_tau(tau)
    out: dict[str, set[str]] = {}
    for prof in profiles:
        bad = {h for h in prof.files if verdicts.binary(h, tau)}
        if bad:
            out[prof.pld] = bad
    return out
