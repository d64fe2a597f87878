"""Sampler correctness and planted-corpus round trips."""

import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from webmal.errors import InfeasibleSpec, InvalidParams
from webmal.graph import build_pld_graph
from webmal.heavytail import make_distribution
from webmal.mdn import build_cooccurrence, extract_mdns
from webmal.metrics import degrees
from webmal.psl import parse_psl
from webmal.reputation import malicious_file_sets, score_plds
from webmal.synthlab import (ClassPair, FamilySpec, SyntheticSpec, _distinct_weighted,
                             default_spec, plant_crawl, read_spec, sample,
                             write_corpus)
from webmal.tables import decode, read_table


# ---------------------------------------------------------------------------
# samplers

def test_power_law_log_moment():
    # E[ln(x/x_min)] = 1/(alpha-1)
    x = sample("power_law", {"alpha": 2.5}, 1.0, 100_000, seed=7)
    assert abs(np.mean(np.log(x)) - 1.0 / 1.5) < 0.01


def test_exponential_mean():
    x = sample("exponential", {"lambda": 2.0}, 0.5, 100_000, seed=8)
    assert abs(np.mean(x) - 1.0) < 0.01
    assert x.min() >= 0.5


def test_lognormal_median():
    # median of the unconditioned lognormal is exp(mu); with x_min below the
    # median, the conditional median shifts but the cdf value at exp(mu)
    # is 1 - S(exp(mu))/S(x_min), checked empirically
    dist = make_distribution("lognormal", {"mu": 1.0, "sigma": 0.5}, 1.0)
    x = sample("lognormal", {"mu": 1.0, "sigma": 0.5}, 1.0, 100_000, seed=9)
    q = float(np.mean(x <= np.e))
    assert abs(q - dist.cdf(np.array([np.e]))[0]) < 0.01


def test_stretched_exponential_survival():
    x = sample("stretched_exponential", {"lambda": 0.3, "beta": 0.7}, 1.0,
               100_000, seed=10)
    # S(x) = exp(lam * x_min^beta - lam * x^beta)
    s_emp = float(np.mean(x > 4.0))
    s_true = np.exp(0.3 * 1.0 - 0.3 * 4.0 ** 0.7)
    assert abs(s_emp - s_true) < 0.01


@pytest.mark.parametrize("alpha,lam", [(1.71, 6.6e-6), (2.3, 0.01), (0.8, 0.05)])
def test_trunc_power_law_ks_self_consistency(alpha, lam):
    # both rejection branches must match the model cdf at the 5% KS level
    # in at least 95 of 100 seeds
    dist = make_distribution("trunc_power_law", {"alpha": alpha, "lambda": lam}, 4.0)
    n = 2000
    crit = 1.358 / np.sqrt(n)
    passed = 0
    for seed in range(100):
        x = np.sort(sample("trunc_power_law", {"alpha": alpha, "lambda": lam},
                           4.0, n, seed=seed))
        cdf = dist.cdf(x)
        hi = np.arange(1, n + 1) / n - cdf
        lo = cdf - np.arange(0, n) / n
        if max(hi.max(), lo.max()) < crit:
            passed += 1
    assert passed >= 95


def test_sample_deterministic_and_validates():
    a = sample("power_law", {"alpha": 2.0}, 1.0, 50, seed=3)
    b = sample("power_law", {"alpha": 2.0}, 1.0, 50, seed=3)
    assert np.array_equal(a, b)
    with pytest.raises(InvalidParams):
        sample("power_law", {"alpha": 2.0}, 1.0, -1, seed=3)
    with pytest.raises(InvalidParams):
        sample("trunc_power_law", {"alpha": 2.0, "lambda": -1.0}, 1.0, 5, seed=3)


# ---------------------------------------------------------------------------
# spec validation and serialization

def test_spec_json_roundtrip():
    spec = default_spec(seed=11, n_plds=500, components=(4, 3, 3))
    again = decode(SyntheticSpec, json.loads(json.dumps(asdict(spec))))
    assert again == spec


def test_spec_rejects_oversized_components():
    with pytest.raises(InfeasibleSpec):
        default_spec(seed=1, n_plds=100, malicious_fraction=0.05,
                     components=(3, 3))  # only 5 malicious PLDs


def test_spec_rejects_bad_fractions_and_ranges():
    with pytest.raises(InfeasibleSpec):
        default_spec(seed=1, n_plds=100, malicious_fraction=1.5)
    with pytest.raises(InfeasibleSpec):
        default_spec(seed=1, n_plds=100, homophily=-0.1)
    with pytest.raises(InfeasibleSpec):
        default_spec(seed=1, n_plds=100, detections=(0, 4))
    with pytest.raises(InfeasibleSpec):
        default_spec(seed=1, n_plds=100, d=8, detections=(1, 9))
    with pytest.raises(InfeasibleSpec):
        default_spec(seed=1, n_plds=1)


@pytest.mark.parametrize("suffix", ["COM", "com.", "//com", "co uk"])
def test_spec_rejects_a_suffix_that_breaks_the_planted_truth(suffix):
    with pytest.raises(InfeasibleSpec, match="plain public suffix rule"):
        default_spec(seed=1, n_plds=100, suffixes=("com", suffix))


# ---------------------------------------------------------------------------
# weighted draws

def test_distinct_weighted_falls_back_to_a_scan_on_a_concentrated_pool():
    # one id holds nearly all the weight, so rejection cannot reach the
    # others and the scan over the remaining ids must supply them
    pool = [10, 11, 12, 13, 14, 15]
    cumw = np.cumsum([1.0, 1e-300, 1e-300, 1e-300, 1e-300, 1e-300])
    k = len(pool) - 1
    draws = []
    for _ in range(2):
        taken = {12, 99}
        out = _distinct_weighted(np.random.default_rng(3), pool, cumw, k, taken)
        assert len(out) == len(set(out)) == k
        assert 12 not in out and set(out) <= set(pool)
        assert taken == {12, 99} | set(out)
        draws.append(out)
    assert draws[0] == draws[1]
    assert draws[0][0] == 10


def test_distinct_weighted_draws_nothing_for_k_zero():
    rng = np.random.default_rng(3)
    assert _distinct_weighted(rng, [1, 2], np.cumsum([1.0, 1.0]), 0, set()) == []
    assert rng.random() == np.random.default_rng(3).random()


# ---------------------------------------------------------------------------
# planted corpus round trips

@pytest.fixture(scope="module")
def corpus():
    spec = default_spec(seed=42, n_plds=400, malicious_fraction=0.1,
                        components=(5, 4, 3, 2, 2))
    return plant_crawl(spec)


def test_planted_page_counts_exact(corpus):
    rules = parse_psl(corpus.psl_text)
    g = build_pld_graph(corpus.edges, rules)
    assert g.n_nodes == corpus.spec.n_plds
    for pld, want in corpus.planted_pages.items():
        assert int(g.page_counts[g.plds.index(pld)]) == want


def test_planted_indegree_exact_up_to_self_loop(corpus):
    rules = parse_psl(corpus.psl_text)
    g = build_pld_graph(corpus.edges, rules)
    indeg, _ = degrees(g)
    for pld, want in corpus.planted_indegree.items():
        assert int(indeg[g.plds.index(pld)]) == want + 1


def test_dichotomy_roundtrips_labels(corpus):
    rep = score_plds(corpus.profiles, corpus.verdicts, tau=0.0)
    got = dict(zip(rep.plds, np.where(rep.malicious, "malicious", "clean").tolist()))
    assert got == corpus.labels


def test_planted_components_recovered(corpus):
    sets = malicious_file_sets(corpus.profiles, corpus.verdicts, tau=0.0)
    comps = extract_mdns(build_cooccurrence(sets))
    got = [list(c.members) for c in comps]
    assert got == corpus.components
    assert len(got) == 5 + (corpus.spec.n_malicious - 16)


def test_alexa_ranks_are_a_permutation(corpus):
    ranks = sorted(corpus.alexa.values())
    assert ranks == list(range(1, len(ranks) + 1))
    covered = set(corpus.alexa)
    assert covered <= set(corpus.plds)


def test_malicious_names_skew_random(corpus):
    # most malicious PLDs get random labels, clean ones are dictionary words
    from webmal.dga import load_default_table, score_pld_name
    table = load_default_table()
    mal = [p for p, lab in corpus.labels.items() if lab == "malicious"]
    clean = [p for p, lab in corpus.labels.items() if lab == "clean"]
    mal_low = np.mean([score_pld_name(p, table) < 5.0 for p in mal])
    clean_low = np.mean([score_pld_name(p, table) < 5.0 for p in clean])
    assert mal_low > 0.5
    assert clean_low < 0.5


def test_zero_malicious_corpus_is_all_clean():
    spec = default_spec(seed=5, n_plds=60, malicious_fraction=0.0)
    c = plant_crawl(spec)
    assert all(lab == "clean" for lab in c.labels.values())
    assert all(m == 0 for m in c.verdicts.masks.values())
    assert malicious_file_sets(c.profiles, c.verdicts, tau=0.0) == {}
    assert c.components == []


def test_corpus_bytes_identical_per_seed(tmp_path):
    spec = default_spec(seed=77, n_plds=150, components=(3, 2))
    p1 = write_corpus(plant_crawl(spec), str(tmp_path / "a"))
    p2 = write_corpus(plant_crawl(spec), str(tmp_path / "b"))
    for name in p1:
        with open(p1[name], "rb") as fa, open(p2[name], "rb") as fb:
            assert fa.read() == fb.read(), name


# Corpus bytes depend on the spec alone. These sha256 digests of the eight
# written files pin them, so a change to plant_crawl or write_corpus that
# moves a random draw or a byte fails here. `stall` plants every in-degree
# at its cap n - 1 from a power-law propensity with alpha 1.05, whose
# weights are so concentrated that rejection cannot reach the lightest
# sources: _distinct_weighted ends in its scan fallback for most targets.
_DEEP = FamilySpec("exponential", {"lambda": 0.5}, 60.0)
GOLDEN_SPECS = {
    "components": lambda: default_spec(seed=42, n_plds=300, malicious_fraction=0.1,
                                       components=(5, 4, 3, 2)),
    "no-homophily": lambda: default_spec(seed=7, n_plds=200, homophily=0.0,
                                         components=(3,), suffixes=("co.uk", "com")),
    "all-malicious": lambda: default_spec(seed=9, n_plds=120, malicious_fraction=1.0,
                                          components=(10, 5)),
    "stall": lambda: default_spec(
        seed=5, n_plds=40, indegree=ClassPair(clean=_DEEP, malicious=_DEEP),
        out_propensity=FamilySpec("power_law", {"alpha": 1.05}, 1.0)),
}
GOLDEN_DIGESTS = {
    "components": {
        "alexa": "f8863fd75e6a1bd089668ef9f6eececca7d0ffa71c1b4600789587e0c21e30e4",
        "edges": "f341239993d07b4f4e6ec1aa59f50d90e5193654410641a28c770d78107cfc84",
        "labels": "ac3653370494797afe7693a3f91c32f8a4d01a3da8c3b764e2aaf625fb9774cf",
        "observations": "f628ab5fcf12b647cc5037c6f5337f3cccd9a976f54f5b17a3e67a6d8d7a2b27",
        "psl": "bfeb6f2eb443c025ad92e9d2a54d660ef78b05f02aef6d4f2c311930a385cfc1",
        "spec": "8ee5eb90944a34cb618092bb0d4deff6d3f675d18d905424d950c68c89ef2dee",
        "truth": "52192e11cd1c04cdfe1c40af918115907611e22595939a7594ba1fb3c7f45ac5",
        "verdicts": "ded73c12d2b89a6249e18a48be4e58fa334a9beb63b774fdf937b96c28a9a035",
    },
    "no-homophily": {
        "alexa": "59a5d588e6f1d3a8db70ce6b202ca15f2e2a685dd7660b13ef453444612b1483",
        "edges": "94033ca90903a8999351787a3758dd91cf99c5c524770561a99ef5773c1f8fa5",
        "labels": "33fb3b35514463c83f0dada362908bc3397e5dedc255a05693be2a2cdb3b75e2",
        "observations": "8b041fdb712a9f8b141d83aeeb5fa34a13dc4f0ab0535d70df7429782af7460d",
        "psl": "f0d61ea0e163678ac7ea5315a22d3591b78014f0e08694bfc43faf24e34537ba",
        "spec": "3415accb9d900c86738d4cf35ecbcfaa8b7c4c7779564b06e95076de2fdac72a",
        "truth": "b1509674a3ee13156a4e36b6fbc1aac3177135aa95c4030e3b6b70d9b0d1b49e",
        "verdicts": "45fffe2f4fd818ff41475710c7771ddb0423e0c82cc17ff680b6b0463df530a2",
    },
    "all-malicious": {
        "alexa": "6a104c3c02825c1eae876f9ddceb9cd88b06e21920b83d7e367dc09d58caa086",
        "edges": "c71a865a9746dd5cfc49866cb3efe4a8badb142bba4ab56ee82dc25934e48819",
        "labels": "618359df192e9f68d77432c7e472037971237d0904472cff1f4f046aa0654bf0",
        "observations": "f6a5352b929501f0eb7b61474de496d910b0c7720afde88f85d018ae8a4c15d7",
        "psl": "bfeb6f2eb443c025ad92e9d2a54d660ef78b05f02aef6d4f2c311930a385cfc1",
        "spec": "3b210ff32fa477243a806001a1882c0815945b981ee0184630fcedc8b18642dd",
        "truth": "b83eef756bf2537257760c3a85d9de31c469a91bc122d892943e890777fa61fb",
        "verdicts": "488fc47b3b345149827793adfa433afbc1001164d163c3d0f87e62e472a26f6b",
    },
    "stall": {
        "alexa": "0b542bb3ac271f7cd229cf7c6584c62e020b7553603580efe13d52c7aa0592d4",
        "edges": "bb2b240d0a306af0faa9a3f32cbe55c1a4e64fb6caaa432dcf60982577b0e10c",
        "labels": "55afc5e6fd4ec8daa42aca15639289d1452317a3c076eb08c3a23dfde9f686e6",
        "observations": "f9963c995752c4c560963705af70ca1a71fdcac6b44e1bd0269a96b43cb2ecf0",
        "psl": "bfeb6f2eb443c025ad92e9d2a54d660ef78b05f02aef6d4f2c311930a385cfc1",
        "spec": "d4bee260baf0d199f7dbb674b63796e25e4edcb482f1bf476529baf78b79e73d",
        "truth": "a19c6a9b9717d64fb470ed1046b5ab46368dc900cc8e24a6ad04f81009245bd4",
        "verdicts": "e6b6b356511ff466df138505c963158fbe6752f3f27c08638558e864999d0077",
    },
}


@pytest.mark.parametrize("name", GOLDEN_SPECS)
def test_corpus_bytes_match_golden_digests(tmp_path, name):
    corpus = plant_crawl(GOLDEN_SPECS[name]())
    paths = write_corpus(corpus, str(tmp_path))
    got = {}
    for key, path in paths.items():
        with open(path, "rb") as fh:
            got[key] = hashlib.sha256(fh.read()).hexdigest()
    assert got == GOLDEN_DIGESTS[name]


def test_stall_spec_links_every_pld_to_every_other():
    corpus = plant_crawl(GOLDEN_SPECS["stall"]())
    n = corpus.spec.n_plds
    assert set(corpus.planted_indegree.values()) == {n - 1}
    g = build_pld_graph(corpus.edges, parse_psl(corpus.psl_text))
    assert g.n_edges == n * n


def test_corpus_files_parse_back(tmp_path):
    from webmal.graph import build_from_file
    from webmal.psl import load_psl
    from webmal.reputation import read_observations, read_verdicts

    spec = default_spec(seed=13, n_plds=120, components=(4,))
    c = plant_crawl(spec)
    paths = write_corpus(c, str(tmp_path / "corpus"))
    rules = load_psl(paths["psl"])
    g = build_from_file(paths["edges"], rules)
    assert g.n_nodes == 120
    profiles = read_observations(paths["observations"])
    verdicts = read_verdicts(paths["verdicts"])
    rep = score_plds(profiles, verdicts, tau=0.0)
    labels = dict(zip(*read_table(paths["labels"], None, (str, str))))
    assert dict(zip(rep.plds,
                    np.where(rep.malicious, "malicious", "clean").tolist())) == labels
    truth = json.loads(open(paths["truth"]).read())
    assert truth["n_malicious"] == spec.n_malicious
    assert read_spec(paths["spec"]) == spec


def test_every_corpus_file_is_written_through_a_rename(tmp_path, monkeypatch):
    renamed = []
    replace = os.replace
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: (renamed.append(dst), replace(src, dst)))
    paths = write_corpus(plant_crawl(default_spec(2, n_plds=60)), str(tmp_path))
    assert sorted(renamed) == sorted(paths.values())
    assert sorted(os.listdir(tmp_path)) == sorted(map(os.path.basename, paths.values()))


def test_psl_text_is_the_written_psl(tmp_path):
    from webmal.graph import build_from_file
    from webmal.psl import load_psl

    c = plant_crawl(default_spec(1, n_plds=60, suffixes=("co.uk",)))
    paths = write_corpus(c, str(tmp_path / "corpus"))
    assert open(paths["psl"]).read() == c.psl_text
    g = build_pld_graph(c.edges, parse_psl(c.psl_text))
    assert g.n_nodes == 60
    g2 = build_from_file(paths["edges"], load_psl(paths["psl"]))
    assert g2.plds == g.plds
    for name in ("page_counts", "edge_src", "edge_dst", "edge_weight"):
        assert np.array_equal(getattr(g2, name), getattr(g, name)), name


def test_homophily_links_within_class():
    # bounded in-degrees keep draws inside each class pool, so with full
    # homophily every non-self edge joins same-class endpoints
    deg = ClassPair(clean=FamilySpec("exponential", {"lambda": 0.5}, 1.0),
                    malicious=FamilySpec("exponential", {"lambda": 0.5}, 1.0))
    spec = default_spec(seed=21, n_plds=300, malicious_fraction=0.3,
                        homophily=1.0, indegree=deg)
    c = plant_crawl(spec)
    rules = parse_psl(c.psl_text)
    g = build_pld_graph(c.edges, rules)
    for s, d in zip(g.edge_src, g.edge_dst):
        if s != d:
            assert c.labels[g.plds[int(s)]] == c.labels[g.plds[int(d)]]


def test_exponent_ordering_recoverable():
    # clean tails planted heavier-indexed (larger alpha) than malicious;
    # a plain power-law fit on planted page counts must preserve order
    from webmal.heavytail import mle_fit
    spec = default_spec(seed=31, n_plds=3000, malicious_fraction=0.3)
    c = plant_crawl(spec)
    clean = np.array([c.planted_pages[p] for p, l in c.labels.items()
                      if l == "clean"], dtype=float)
    mal = np.array([c.planted_pages[p] for p, l in c.labels.items()
                    if l == "malicious"], dtype=float)
    p_c, _ = mle_fit(clean, "trunc_power_law", x_min=4.0)
    p_m, _ = mle_fit(mal, "trunc_power_law", x_min=4.0)
    assert p_c["alpha"] > p_m["alpha"]
