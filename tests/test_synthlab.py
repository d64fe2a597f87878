"""Sampler correctness and planted-corpus round trips."""

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
from webmal.synthlab import (ClassPair, FamilySpec, SyntheticSpec, default_spec,
                             plant_crawl, read_spec, sample, write_corpus)
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
    reps = score_plds(corpus.profiles, corpus.verdicts, tau=0.0)
    got = {r.pld: r.dichotomy for r in reps}
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
    reps = score_plds(profiles, verdicts, tau=0.0)
    labels = dict(zip(*read_table(paths["labels"], None, (str, str))))
    assert {r.pld: r.dichotomy for r in reps} == labels
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
