"""Synthetic data generation: tail samples and planted crawl corpora.

Every draw from a tail family goes through that family's class in
`heavytail.families`, whose `sample` holds its sampler: the inverse CDF, or
for the power law with exponential cutoff a rejection sampler. All draws
are deterministic per seed.

plant_crawl builds a full crawl corpus with known ground truth:

* page counts are planted exactly — every PLD emits a cycle over its own
  pages, so each page appears in at least one edge and the PLD gets one
  self-loop;
* in-degrees are planted exactly up to that structural self-loop (a PLD
  with planted in-degree k has graph in-degree k + 1): k distinct source
  PLDs are drawn per target, weighted by a heavy-tailed out-propensity,
  optionally preferring same-class sources (homophily);
* malicious PLDs receive planted co-occurrence components through shared
  malicious files; all other malicious files are private to one PLD, and
  clean PLDs never host a flagged file, so dichotomies and component
  memberships round-trip exactly.

The bytes write_corpus writes depend on the spec alone: each part of the
corpus draws from its own seeded stream, in a fixed order, and
`tests/test_synthlab.py` pins the sha256 of every file for four specs.
A Corpus keeps its page edges as two URL columns, `sources` and `targets`,
which write_corpus writes as they are; `edges` zips them into pairs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .dga import DEFAULT_ALPHABET, default_wordlist
from .errors import InfeasibleSpec, InputError, InvalidParams
from .heavytail import make_distribution
from .psl import extract_pld, parse_psl
from .reputation import (PldFileProfile, VerdictMatrix, write_observations,
                         write_verdicts)
from .tables import decode, read_json, write_json, write_table


def sample(family: str, params: dict[str, float], x_min: float, n: int,
           seed: int) -> np.ndarray:
    """Draw n points from a tail family on [x_min, inf), deterministic per seed."""
    if n < 0:
        raise InvalidParams("n must be nonnegative")
    return make_distribution(family, params, x_min).sample(n, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# corpus parameters

@dataclass(frozen=True)
class FamilySpec:
    """One tail family with parameters, the unit of planting."""

    family: str
    params: Mapping[str, float]
    x_min: float

    def validate(self) -> None:
        make_distribution(self.family, dict(self.params), self.x_min)


@dataclass(frozen=True)
class ClassPair:
    """Clean/malicious variants of one planted feature."""

    clean: FamilySpec
    malicious: FamilySpec


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int
    n_plds: int
    malicious_fraction: float
    pages: ClassPair
    indegree: ClassPair
    files: ClassPair
    out_propensity: FamilySpec
    d: int = 56
    detections: tuple[int, int] = (1, 8)       # flagged engines per bad file
    components: tuple[int, ...] = ()           # planted MDN sizes
    homophily: float = 0.0
    alexa_clean: float = 0.6                   # P(ranked | clean)
    alexa_malicious: float = 0.15
    dga_fraction: float = 0.8                  # of malicious names random
    suffixes: tuple[str, ...] = ("com", "net", "org")
    occurrences: tuple[int, int] = (1, 3)      # file copy count range
    shared_clean_pool: float = 0.1             # P(reuse a pooled clean file)

    @property
    def n_malicious(self) -> int:
        return int(round(self.n_plds * self.malicious_fraction))

    def validate(self) -> None:
        if self.n_plds < 2:
            raise InfeasibleSpec("need at least 2 PLDs")
        if not (0.0 <= self.malicious_fraction <= 1.0):
            raise InfeasibleSpec("malicious_fraction must be in [0,1]")
        if self.d < 1:
            raise InfeasibleSpec("engine count d must be >= 1")
        if not (0.0 <= self.homophily <= 1.0):
            raise InfeasibleSpec("homophily must be in [0,1]")
        for frac in (self.alexa_clean, self.alexa_malicious, self.dga_fraction,
                     self.shared_clean_pool):
            if not (0.0 <= frac <= 1.0):
                raise InfeasibleSpec("fractions must be in [0,1]")
        if any(s < 1 for s in self.components):
            raise InfeasibleSpec("component sizes must be >= 1")
        if sum(self.components) > self.n_malicious:
            raise InfeasibleSpec(
                f"component sizes sum to {sum(self.components)} but only "
                f"{self.n_malicious} malicious PLDs are available")
        lo, hi = self.detections
        if not (1 <= lo <= hi <= self.d):
            raise InfeasibleSpec("detections range must satisfy 1 <= lo <= hi <= d")
        lo, hi = self.occurrences
        if not (1 <= lo <= hi):
            raise InfeasibleSpec("occurrence range must satisfy 1 <= lo <= hi")
        if not self.suffixes:
            raise InfeasibleSpec("need at least one suffix")
        for suffix in self.suffixes:
            _check_suffix(suffix)
        for pair in (self.pages, self.indegree, self.files):
            pair.clean.validate()
            pair.malicious.validate()
        self.out_propensity.validate()


def _check_suffix(suffix: str) -> None:
    """A suffix must be one plain public suffix rule (no `*`, no `!`) under
    which a planted host `x.<suffix>` is its own PLD. That rejects an empty
    or uppercase suffix too: `""`, `COM` or `.com` would plant a corpus whose
    truth does not round-trip."""
    host = f"x.{suffix}"
    try:
        ok = not set(suffix) & set("*!") and extract_pld(
            f"http://{host}/p0", parse_psl(suffix), strict=True) == host
    except InputError:
        ok = False
    if not ok:
        raise InfeasibleSpec(
            f"suffix {suffix!r} must be a non-empty, lowercase, plain public suffix rule")


def read_spec(path: str) -> SyntheticSpec:
    """The spec in a JSON file such as the spec.json of write_corpus, decoded
    by `tables.decode`; a missing or unknown key, a value of the wrong type,
    a value no float holds or a value out of its range is an InputError
    naming the file."""
    try:
        spec = decode(SyntheticSpec, read_json(path))
        spec.validate()
    except (ValueError, OverflowError, InfeasibleSpec, InvalidParams) as exc:
        raise InputError(f"{path}: {exc}") from None
    return spec


def default_spec(seed: int, n_plds: int = 2000, **overrides) -> SyntheticSpec:
    """A paper-flavored spec: clean exponents above malicious ones."""
    base = dict(
        seed=seed, n_plds=n_plds, malicious_fraction=0.05,
        pages=ClassPair(
            clean=FamilySpec("trunc_power_law", {"alpha": 1.99, "lambda": 2e-4}, 4.0),
            malicious=FamilySpec("trunc_power_law", {"alpha": 1.66, "lambda": 2e-4}, 4.0)),
        indegree=ClassPair(
            clean=FamilySpec("trunc_power_law", {"alpha": 2.21, "lambda": 1e-4}, 1.0),
            malicious=FamilySpec("trunc_power_law", {"alpha": 1.61, "lambda": 1e-4}, 1.0)),
        files=ClassPair(
            clean=FamilySpec("exponential", {"lambda": 0.7}, 1.0),
            malicious=FamilySpec("exponential", {"lambda": 0.4}, 1.0)),
        out_propensity=FamilySpec("power_law", {"alpha": 2.2}, 1.0),
        homophily=0.75,
        components=(),
    )
    base.update(overrides)
    spec = SyntheticSpec(**base)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# planted crawl

@dataclass
class Corpus:
    """In-memory planted corpus with full ground truth."""

    spec: SyntheticSpec
    plds: list[str]                       # index-aligned with labels
    labels: dict[str, str]                # pld -> "clean" | "malicious"
    sources: list[str]                    # page edges as two URL columns
    targets: list[str]
    profiles: list[PldFileProfile]
    verdicts: VerdictMatrix
    alexa: dict[str, int]
    components: list[list[str]]           # planted MDNs incl. singletons
    planted_pages: dict[str, int]
    planted_indegree: dict[str, int]

    @property
    def edges(self) -> list[tuple[str, str]]:
        """The page edges as (source, target) URL pairs."""
        return list(zip(self.sources, self.targets))

    @property
    def psl_text(self) -> str:
        """The suffix rules, one per suffix of the spec: psl.dat's text."""
        return "\n".join(["// synthetic suffix rules", *self.spec.suffixes]) + "\n"


def _draw_ints(fs: FamilySpec, n: int, rng: np.random.Generator,
               cap: int | None = None) -> np.ndarray:
    raw = make_distribution(fs.family, fs.params, fs.x_min).sample(n, rng)
    vals = np.maximum(1, np.rint(raw)).astype(np.int64)
    if cap is not None:
        vals = np.minimum(vals, cap)
    return vals


def _unique_names(spec: SyntheticSpec, is_mal: list[bool],
                  rng: np.random.Generator) -> list[str]:
    words = default_wordlist()
    alphabet = np.array(list(DEFAULT_ALPHABET))
    names: list[str] = []
    seen: set[str] = set()
    for m in is_mal:
        suffix = spec.suffixes[int(rng.integers(0, len(spec.suffixes)))]
        while True:
            if m and rng.random() < spec.dga_fraction:
                label = "".join(rng.choice(alphabet, size=12).tolist())
            elif rng.random() < 0.5:
                label = words[int(rng.integers(0, len(words)))]
            else:
                label = (words[int(rng.integers(0, len(words)))]
                         + words[int(rng.integers(0, len(words)))])
            name = f"{label}.{suffix}"
            if name not in seen:
                seen.add(name)
                names.append(name)
                break
    return names


def _distinct_weighted(rng: np.random.Generator, pool: list[int],
                       cumw: np.ndarray, k: int, taken: set[int]) -> list[int]:
    """Draw k distinct ids from pool (weights via cumw), skipping the ids in
    taken and adding each one drawn to it.

    Rejection over a precomputed cumulative-weight table; falls back to a
    scan of the remaining ids if rejection stalls on a concentrated pool.
    """
    out: list[int] = []
    if k <= 0 or len(pool) == 0:
        return out
    total = cumw[-1]
    for _ in range(64):
        u = rng.random(2 * (k - len(out)) + 4) * total
        # binary search is several times faster on sorted keys than on
        # random ones once a draw holds hundreds of keys
        order = u.argsort()
        picks = np.empty_like(order)
        picks[order] = cumw.searchsorted(u[order], side="right")
        for j in picks.tolist():
            pid = pool[j]
            if pid in taken:
                continue
            taken.add(pid)
            out.append(pid)
            if len(out) == k:
                return out
    rest = [p for p in pool if p not in taken]
    for i in rng.permutation(len(rest))[:k - len(out)].tolist():
        pid = rest[i]
        taken.add(pid)
        out.append(pid)
    return out


def plant_crawl(spec: SyntheticSpec) -> Corpus:
    """Generate a crawl corpus with exact planted ground truth."""
    spec.validate()
    n = spec.n_plds
    n_mal = spec.n_malicious

    rng_cls = np.random.default_rng([spec.seed, 1])
    rng_names = np.random.default_rng([spec.seed, 2])
    rng_pages = np.random.default_rng([spec.seed, 3])
    rng_deg = np.random.default_rng([spec.seed, 4])
    rng_edges = np.random.default_rng([spec.seed, 5])
    rng_files = np.random.default_rng([spec.seed, 6])
    rng_verd = np.random.default_rng([spec.seed, 7])
    rng_alexa = np.random.default_rng([spec.seed, 8])

    mal_flag = np.zeros(n, dtype=bool)
    if n_mal:
        mal_flag[rng_cls.choice(n, size=n_mal, replace=False)] = True
    is_mal = mal_flag.tolist()
    plds = _unique_names(spec, is_mal, rng_names)
    labels = {pld: ("malicious" if m else "clean") for pld, m in zip(plds, is_mal)}
    mal_idx = np.flatnonzero(mal_flag)
    clean_idx = np.flatnonzero(~mal_flag)

    # planted per-PLD page and in-degree counts, by class
    pages = np.zeros(n, dtype=np.int64)
    indeg = np.zeros(n, dtype=np.int64)
    if len(clean_idx):
        pages[clean_idx] = _draw_ints(spec.pages.clean, len(clean_idx), rng_pages)
        indeg[clean_idx] = _draw_ints(spec.indegree.clean, len(clean_idx),
                                      rng_deg, cap=n - 1)
    if len(mal_idx):
        pages[mal_idx] = _draw_ints(spec.pages.malicious, len(mal_idx), rng_pages)
        indeg[mal_idx] = _draw_ints(spec.indegree.malicious, len(mal_idx),
                                    rng_deg, cap=n - 1)

    # page-cycle skeleton: pins page counts and adds one self-loop per PLD;
    # edges are kept as two URL columns, and p0 is each PLD's link target
    sources: list[str] = []
    targets: list[str] = []
    p0: list[str] = []
    page_no = list(map(str, range(int(pages.max()))))
    for host, c in zip(plds, pages.tolist()):
        urls = list(map(f"http://{host}/p".__add__, page_no[:c]))
        sources += urls
        targets += urls[1:]
        targets.append(urls[0])
        p0.append(urls[0])

    # inter-PLD links: k distinct sources per target, propensity-weighted,
    # homophilous draws pick the source from the target's own class pool
    prop = make_distribution(spec.out_propensity.family, spec.out_propensity.params,
                             spec.out_propensity.x_min).sample(n, rng_edges)
    pool_all = list(range(n))
    cum_all = np.cumsum(prop)
    pools = {m: (idx.tolist(), np.cumsum(prop[idx]))     # keyed by is_mal
             for m, idx in ((False, clean_idx), (True, mal_idx))}
    for i, (k, m) in enumerate(zip(indeg.tolist(), is_mal)):
        if k <= 0:
            continue
        same_pool, same_cum = pools[m]
        k_same = int(rng_edges.binomial(k, spec.homophily)) if spec.homophily else 0
        k_same = min(k_same, max(len(same_pool) - 1, 0))
        taken = {i}
        srcs = _distinct_weighted(rng_edges, same_pool, same_cum, k_same,
                                  taken) if k_same else []
        srcs += _distinct_weighted(rng_edges, pool_all, cum_all, k - len(srcs), taken)
        sources += map(p0.__getitem__, srcs)
        targets += [p0[i]] * len(srcs)

    # files: component-shared malicious files pin the MDNs; every other
    # malicious file is private to its PLD; clean PLDs host only clean files
    n_files = np.zeros(n, dtype=np.int64)
    if len(clean_idx):
        n_files[clean_idx] = _draw_ints(spec.files.clean, len(clean_idx), rng_files)
    if len(mal_idx):
        n_files[mal_idx] = _draw_ints(spec.files.malicious, len(mal_idx), rng_files)

    mal_order = (mal_idx[rng_files.permutation(len(mal_idx))] if len(mal_idx)
                 else mal_idx).tolist()
    comp_of = {}
    components: list[list[str]] = []
    pos = 0
    for size in spec.components:
        members = mal_order[pos:pos + size]
        comp_id = len(components)
        components.append(sorted(plds[j] for j in members))
        for j in members:
            comp_of[j] = comp_id
        pos += size
    for j in mal_order[pos:]:                      # leftover -> singletons
        comp_of[j] = len(components)
        components.append([plds[j]])

    file_counter = 0
    clean_pool: list[str] = []
    mal_masks: dict[str, int] = {}
    clean_hashes: set[str] = set()
    profiles: list[PldFileProfile] = []
    occ_lo, occ_hi = spec.occurrences
    det_lo, det_hi = spec.detections

    def fresh_hash() -> str:
        nonlocal file_counter
        h = f"f{file_counter:08d}"
        file_counter += 1
        return h

    def mal_mask() -> int:
        ndet = int(rng_verd.integers(det_lo, det_hi + 1))
        bits = rng_verd.choice(spec.d, size=min(ndet, spec.d), replace=False)
        mask = 0
        for b in bits.tolist():
            mask |= 1 << b
        return mask

    def add(files: dict[str, int], h: str) -> None:
        files[h] = files.get(h, 0) + int(rng_files.integers(occ_lo, occ_hi + 1))

    comp_file: dict[int, str] = {}
    for i, (pld, m, slots) in enumerate(zip(plds, is_mal, n_files.tolist())):
        files: dict[str, int] = {}
        if m:
            cid = comp_of[i]
            if len(components[cid]) > 1:
                if cid not in comp_file:
                    comp_file[cid] = fresh_hash()
                    mal_masks[comp_file[cid]] = mal_mask()
                add(files, comp_file[cid])
            else:
                h = fresh_hash()
                mal_masks[h] = mal_mask()
                add(files, h)
            slots -= 1
        for _ in range(max(slots, 0)):
            if m and rng_files.random() < 0.2:
                h = fresh_hash()          # extra private malicious file
                mal_masks[h] = mal_mask()
            elif clean_pool and rng_files.random() < spec.shared_clean_pool:
                h = clean_pool[int(rng_files.integers(0, len(clean_pool)))]
            else:
                h = fresh_hash()
                clean_hashes.add(h)
                if len(clean_pool) < 64:
                    clean_pool.append(h)
            add(files, h)
        profiles.append(PldFileProfile(pld=pld, files=files))

    masks = {h: 0 for h in clean_hashes}
    masks.update(mal_masks)
    verdicts = VerdictMatrix(d=spec.d, masks=masks)

    # alexa ranks: class-dependent coverage, ranks are a permutation
    ranked = [pld for pld, m in zip(plds, is_mal)
              if rng_alexa.random() < (spec.alexa_malicious if m else spec.alexa_clean)]
    ranks = rng_alexa.permutation(len(ranked)) + 1
    alexa = dict(zip(ranked, ranks.tolist()))

    components = sorted(components, key=lambda m: (-len(m), m[0]))
    return Corpus(spec=spec, plds=plds, labels=labels, sources=sources,
                  targets=targets, profiles=profiles, verdicts=verdicts,
                  alexa=alexa, components=components,
                  planted_pages=dict(zip(plds, pages.tolist())),
                  planted_indegree=dict(zip(plds, indeg.tolist())))


# ---------------------------------------------------------------------------
# corpus serialization

def write_corpus(corpus: Corpus, out_dir: str) -> dict[str, str]:
    """Write the corpus in the pipeline's ingestion formats; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, fname) for name, fname in [
        ("edges", "edges.tsv"), ("observations", "observations.tsv"),
        ("verdicts", "verdicts.tsv"), ("alexa", "alexa.tsv"),
        ("labels", "labels.tsv"), ("psl", "psl.dat"), ("truth", "truth.json"),
        ("spec", "spec.json")]}

    write_table(paths["edges"], None, [corpus.sources, corpus.targets])
    write_observations(corpus.profiles, paths["observations"])
    write_verdicts(corpus.verdicts, paths["verdicts"])
    for name, table in (("alexa", corpus.alexa), ("labels", corpus.labels)):
        plds = sorted(table)
        write_table(paths[name], None, (plds, [table[p] for p in plds]))
    write_table(paths["psl"], None, [corpus.psl_text.splitlines()])
    truth = {
        "seed": corpus.spec.seed,
        "n_plds": corpus.spec.n_plds,
        "n_malicious": corpus.spec.n_malicious,
        "components": corpus.components,
        "planted_pages": corpus.planted_pages,
        "planted_indegree": corpus.planted_indegree,
        "pages": asdict(corpus.spec.pages),
        "indegree": asdict(corpus.spec.indegree),
    }
    write_json(truth, paths["truth"])
    write_json(asdict(corpus.spec), paths["spec"])
    return paths

