"""End-to-end acceptance gate.

One test per headline guarantee. Each prints a single summary line with the
measured numbers, so `pytest -v -rA tests/test_acceptance.py` reads as a
checklist. These are the slow, adversarial checks; the per-module suites
cover the fine-grained contracts.
"""

import hashlib
import itertools
import json
import os
import time

import numpy as np
import pytest

from webmal.dga import (default_wordlist, load_default_table, name_badness,
                        score_pld_name)
from webmal.graph import PldGraph, build_pld_graph
from webmal.heavytail import FAMILY_ORDER, mle_fit, select_candidates
from webmal.heavytail.families import make_distribution
from webmal.heavytail.fitting import FitResult, compare, ks_distance
from webmal.mdn import build_cooccurrence, extract_mdns
from webmal.metrics import (compute_node_metrics, connected_components,
                            degrees, hits, pagerank, triangle_counts)
from webmal.pipeline import RunConfig, run_pipeline
from webmal.predict import assemble_features, run_stacked_experiment
from webmal.psl import parse_psl
from webmal.reputation import (PldFileProfile, VerdictMatrix,
                               file_diversity_entropy, file_score_binary,
                               file_score_ratio, malicious_file_sets,
                               pld_dichotomy, pld_ratio_score, score_plds)
from webmal.synthlab import default_spec, plant_crawl, sample, write_corpus

from oracles import (oracle_components, oracle_degrees, oracle_hits,
                     oracle_jaccard, oracle_pagerank, oracle_triangles)


def _line(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS — {detail}")


def _corpus_graph(corpus):
    rules = parse_psl(corpus.psl_text)
    g = build_pld_graph(corpus.edges, rules)
    mal = np.array([corpus.labels[p] == "malicious" for p in g.plds])
    return g, mal


# ---------------------------------------------------------------------------
# 1. parameter recovery on a large truncated power-law sample


def test_criterion_01_truncated_power_law_recovery():
    data = sample("trunc_power_law", {"alpha": 1.71, "lambda": 6.6e-6}, 4.0,
                  100_000, seed=1001)
    t0 = time.perf_counter()
    cs = select_candidates(data)
    dt = time.perf_counter() - t0
    fit = cs.selected_fit()
    assert cs.selection == "trunc_power_law", cs.selection
    assert abs(fit.params["alpha"] - 1.71) < 0.05, fit.params
    assert dt < 120.0, f"refit took {dt:.1f}s"
    _line(1, f"alpha {fit.params['alpha']:.4f} (true 1.71, tol 0.05), "
             f"selection {cs.selection}, {dt:.1f}s of 120s")


# ---------------------------------------------------------------------------
# 2. pairwise model discrimination between the six families
#
# Each unordered pairing is probed in both directions (fit the generator's
# family, compare against the rival); it passes when both directions favor
# the generator at p < 0.01. Three pairings are nested limits of each other
# (pure power law inside the truncated one at small lambda, exponential is
# the beta=1 stretched exponential, the positive-mu lognormal is a slice of
# the free one) and are only required to never significantly favor the
# WRONG side. Lognormal flexibility makes two of the remaining pairings
# legitimately hard (a lognormal with very negative mu mimics a pure power
# law), hence the 13-of-15 bar rather than 15-of-15.

GEN_PARAMS = {
    "power_law": {"alpha": 1.8},
    "trunc_power_law": {"alpha": 1.3, "lambda": 0.01},
    "exponential": {"lambda": 0.3},
    "stretched_exponential": {"beta": 0.35, "lambda": 0.9},
    "lognormal": {"mu": -2.0, "sigma": 2.6},
    "lognormal_positive": {"mu": 2.0, "sigma": 0.8},
}
NESTED = frozenset(frozenset(p) for p in [
    ("power_law", "trunc_power_law"),
    ("exponential", "stretched_exponential"),
    ("lognormal", "lognormal_positive"),
])


def test_criterion_02_pairwise_family_discrimination():
    results = {}
    for fam_a in FAMILY_ORDER:
        data = sample(fam_a, GEN_PARAMS[fam_a], 1.0, 10_000, seed=11)
        params, ll = mle_fit(data, fam_a, 1.0)
        dist = make_distribution(fam_a, params, 1.0)
        fit = FitResult(fam_a, params, 1.0, ks_distance(data, dist), ll,
                        len(data))
        for fam_b in FAMILY_ORDER:
            if fam_b == fam_a:
                continue
            cmp = compare(data, fit, fam_b)
            results[(fam_a, fam_b)] = (cmp.r, cmp.p)
    passed, details = 0, []
    for a, b in itertools.combinations(FAMILY_ORDER, 2):
        both = (results[(a, b)], results[(b, a)])
        if frozenset((a, b)) in NESTED:
            # never significantly favor the wrong side
            ok = all(not (r < 0 and p < 0.01) for r, p in both)
            assert ok, f"nested pairing {a}/{b} favored the wrong family: {both}"
        else:
            ok = all(r > 0 and p < 0.01 for r, p in both)
        passed += ok
        if not ok:
            details.append(f"{a}/{b}")
    assert passed >= 13, f"{passed}/15 pairings discriminated; weak: {details}"
    _line(2, f"{passed}/15 pairings discriminated at p<0.01 "
             f"(bar 13; indeterminate: {details or 'none'})")


# ---------------------------------------------------------------------------
# 3. clean/malicious exponent ordering on planted crawls
#
# Pages are planted with alpha 1.99 (clean) vs 1.66 (malicious), link
# indegree with 2.21 vs 1.61. The builder adds one structural self-loop per
# PLD (the page cycle), shifting both classes' graph indegrees equally, so
# the ordering of the fitted exponents is what must survive.


def test_criterion_03_exponent_ordering_clean_vs_malicious():
    ok_pages = ok_indeg = 0
    for seed in range(1, 11):
        spec = default_spec(seed=seed, n_plds=4000, malicious_fraction=0.3)
        g, mal = _corpus_graph(plant_crawl(spec))
        indeg, _ = degrees(g)
        pages = g.page_counts
        a_pc = mle_fit(pages[~mal], "trunc_power_law", 4.0)[0]["alpha"]
        a_pm = mle_fit(pages[mal], "trunc_power_law", 4.0)[0]["alpha"]
        a_ic = mle_fit(indeg[~mal], "trunc_power_law", 2.0)[0]["alpha"]
        a_im = mle_fit(indeg[mal], "trunc_power_law", 2.0)[0]["alpha"]
        ok_pages += a_pc > a_pm
        ok_indeg += a_ic > a_im
    assert ok_pages == 10, f"pages ordering held {ok_pages}/10"
    assert ok_indeg == 10, f"indegree ordering held {ok_indeg}/10"
    _line(3, f"alpha_clean > alpha_malicious: pages {ok_pages}/10, "
             f"indegree {ok_indeg}/10 seeds")


# ---------------------------------------------------------------------------
# 4. closed-form vs numerical power-law MLE


def test_criterion_04_closed_form_numeric_parity():
    worst = 0.0
    for seed in range(20):
        alpha = 1.5 + 0.1 * seed
        data = sample("power_law", {"alpha": alpha}, 1.0, 3000, seed=seed)
        closed = mle_fit(data, "power_law", 1.0)[0]["alpha"]
        numeric = mle_fit(data, "power_law", 1.0, method="numeric")[0]["alpha"]
        worst = max(worst, abs(closed - numeric))
    assert worst < 1e-3, f"worst |closed - numeric| = {worst:.2e}"
    _line(4, f"worst closed-vs-numeric alpha gap {worst:.2e} over 20 seeds "
             f"(tol 1e-3)")


# ---------------------------------------------------------------------------
# 5. graph metrics vs brute-force oracles


def _random_graph(n: int, m: int, rng) -> PldGraph:
    seen = set()
    while len(seen) < m:
        s, d = rng.integers(0, n, size=2)
        seen.add((int(s), int(d)))
    rows = sorted(seen)
    src = np.array([r[0] for r in rows], dtype=np.int64)
    dst = np.array([r[1] for r in rows], dtype=np.int64)
    plds = [f"n{i:03d}.com" for i in range(n)]
    return PldGraph(plds, np.ones(n, dtype=np.int64), src, dst,
                    np.ones(len(rows), dtype=np.int64))


def test_criterion_05_graph_metrics_match_oracles():
    worst_pr = worst_hits = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 101))
        m = int(rng.integers(1, min(4 * n, n * n) + 1))  # n*n distinct pairs exist
        g = _random_graph(n, m, rng)
        indeg, outdeg = degrees(g)
        o_in, o_out = oracle_degrees(g)
        assert np.array_equal(indeg, o_in) and np.array_equal(outdeg, o_out)
        assert np.array_equal(triangle_counts(g), oracle_triangles(g))
        assert np.array_equal(connected_components(g), oracle_components(g))
        pr = pagerank(g, tol=1e-14, max_iter=2000)
        worst_pr = max(worst_pr, float(np.abs(pr.scores - oracle_pagerank(g)).max()))
        ht = hits(g, tol=1e-13, max_iter=5000)
        o_hub, o_auth = oracle_hits(g)
        worst_hits = max(worst_hits,
                         float(np.abs(ht.hubs - o_hub).max()),
                         float(np.abs(ht.authorities - o_auth).max()))
    assert worst_pr < 1e-8, f"pagerank gap {worst_pr:.2e}"
    assert worst_hits < 1e-6, f"hits gap {worst_hits:.2e}"
    _line(5, f"50 graphs: integer metrics exact, pagerank gap {worst_pr:.1e} "
             f"(tol 1e-8), hits gap {worst_hits:.1e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 6. reputation exactness


def test_criterion_06_reputation_exactness():
    # dichotomous file score
    assert file_score_binary([0] * 56, tau=0.0) == 0
    assert file_score_binary([1] + [0] * 55, tau=0.0) == 1
    assert file_score_binary([1] * 5 + [0] * 51, tau=0.1) == 0
    # ratio file score
    assert file_score_ratio([0] * 56) == 0.0
    assert file_score_ratio([1] * 56) == 1.0
    assert file_score_ratio([1] * 14 + [0] * 42) == 0.25
    # dichotomy
    m0 = VerdictMatrix(56, {"a": 0, "b": 0, "c": 0})
    assert pld_dichotomy(PldFileProfile("x.com", {"a": 1, "b": 1, "c": 1}),
                         m0, 0.0) == "clean"
    m1 = VerdictMatrix(56, {"a": 1})
    assert pld_dichotomy(PldFileProfile("x.com", {"a": 1}), m1, 0.0) == "malicious"
    # occurrence-weighted PLD ratio score
    m2 = VerdictMatrix(2, {"a": 0b00, "b": 0b01})
    assert pld_ratio_score(PldFileProfile("x.com", {"a": 1, "b": 1}), m2) == 0.25
    m3 = VerdictMatrix(10, {"a": 0b0111111111})
    assert pld_ratio_score(PldFileProfile("x.com", {"a": 3}), m3) == 0.9
    # diversity entropy
    assert file_diversity_entropy(PldFileProfile("x.com", {"a": 7})) == 0.0
    assert file_diversity_entropy(
        PldFileProfile("x.com", dict.fromkeys("abcd", 1))) == 2.0
    assert file_diversity_entropy(
        PldFileProfile("x.com", {"a": 3, "b": 1})) == 0.8112781244591328
    # planted 5% malicious corpora round-trip with zero error
    mismatches = 0
    for seed in (21, 22, 23):
        spec = default_spec(seed=seed, n_plds=2000)
        c = plant_crawl(spec)
        rep = score_plds(c.profiles, c.verdicts, tau=0.0)
        reps = dict(zip(rep.plds,
                        np.where(rep.malicious, "malicious", "clean").tolist()))
        mismatches += sum(reps[p] != c.labels[p] for p in c.plds)
    assert mismatches == 0
    _line(6, "hand-computed scores exact; planted 5% corpora: 0 dichotomy "
             "errors over 3 seeds x 2000 PLDs")


# ---------------------------------------------------------------------------
# 7. co-occurrence exactness and planted MDN recovery


def test_criterion_07_cooccurrence_exactness():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        plds = [f"p{i:02d}.com" for i in range(40)]
        files = [f"f{i:03d}" for i in range(120)]
        sets = {}
        for i, p in enumerate(plds):
            if i and rng.random() < 0.15:
                continue  # PLD with no malicious files stays out
            k = int(rng.integers(1, 13))
            sets[p] = set(rng.choice(files, size=k, replace=False))
        cg = build_cooccurrence(sets)
        want = oracle_jaccard(sets)
        assert dict(cg.edges) == want
        assert sorted(map(repr, sorted(cg.edges.items()))) == \
            sorted(map(repr, sorted(want.items())))
    # planted 40-component corpus recovered exactly
    sizes = tuple([2] * 20 + [3] * 10 + [5] * 10)   # sums to n_malicious=120
    spec = default_spec(seed=707, n_plds=2400, malicious_fraction=0.05,
                        components=sizes)
    assert spec.n_malicious == sum(sizes)
    c = plant_crawl(spec)
    mdns = extract_mdns(build_cooccurrence(
        malicious_file_sets(c.profiles, c.verdicts, tau=0.0)))
    assert len(mdns) == 40, f"recovered {len(mdns)} MDNs"
    got = sorted(sorted(m.members) for m in mdns)
    assert got == sorted(sorted(m) for m in c.components)
    _line(7, "Jaccard graph byte-identical to the quadratic oracle on 50 "
             "corpora; planted corpus yields exactly 40 MDNs")


# ---------------------------------------------------------------------------
# 8. DGA-name separation with the shipped table


def test_criterion_08_dga_separation():
    table = load_default_table()
    words = default_wordlist()
    rng = np.random.default_rng(88)
    dictionary = rng.choice(len(words), size=1000, replace=False)
    dict_scores = np.array([name_badness(words[i], table) for i in dictionary])
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))
    rnd_scores = np.array([
        name_badness("".join(rng.choice(alphabet, size=12)), table)
        for _ in range(1000)])
    frac_dict = float((dict_scores > 5.0).mean())
    frac_rnd = float((rnd_scores < 5.0).mean())
    assert frac_dict >= 0.95, f"only {frac_dict:.1%} of dictionary names > 5"
    assert frac_rnd >= 0.95, f"only {frac_rnd:.1%} of random names < 5"
    _line(8, f"dictionary names > 5: {frac_dict:.1%}, random 12-char names "
             f"< 5: {frac_rnd:.1%} (bar 95% each)")


# ---------------------------------------------------------------------------
# 9. stacked-learning lift on homophilous corpora


def test_criterion_09_stacked_learning_lift():
    table = load_default_table()
    wins, pairs = 0, []
    for seed in range(1, 11):
        spec = default_spec(seed=seed, n_plds=900, malicious_fraction=0.15,
                            homophily=0.85)
        c = plant_crawl(spec)
        g, _ = _corpus_graph(c)
        metrics = compute_node_metrics(g)
        reps = score_plds(c.profiles, c.verdicts, tau=0.0)
        dga = {p: score_pld_name(p, table) for p in c.plds}
        fm = assemble_features(metrics, reps, dga, c.alexa, "all")
        res = run_stacked_experiment(fm, g, seed=seed, epochs=6000)
        wins += res.stacked_report.auc >= res.base_report.auc
        pairs.append((res.base_report.auc, res.stacked_report.auc))
    assert wins >= 9, f"stacked >= base in only {wins}/10 seeds: {pairs}"
    _line(9, f"AUC(all+stacked) >= AUC(all) in {wins}/10 seeds (bar 9)")


# ---------------------------------------------------------------------------
# 10. pipeline determinism and scale


def test_criterion_10_pipeline_determinism_and_scale(tmp_path):
    spec = default_spec(seed=4242, n_plds=27_000)
    c = plant_crawl(spec)
    assert len(c.edges) >= 1_000_000, f"corpus has {len(c.edges)} edges"
    paths = write_corpus(c, str(tmp_path / "corpus"))

    def run_once(out_dir):
        cfg = RunConfig(
            edges=paths["edges"], psl=paths["psl"],
            verdicts=paths["verdicts"], observations=paths["observations"],
            alexa=paths["alexa"], out_dir=out_dir,
            fit_features=("num_pages", "indegree"), fit_max_n=20_000,
            fit_restarts=4, epochs=4000, workers=1)
        t0 = time.perf_counter()
        run_pipeline(cfg)
        return time.perf_counter() - t0

    dt1 = run_once(str(tmp_path / "run1"))
    dt2 = run_once(str(tmp_path / "run2"))
    assert dt1 < 600.0 and dt2 < 600.0, (dt1, dt2)

    def digest(run, name):
        with open(tmp_path / run / name, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    reports = ("fits.json", "mdns.json", "eval.json")
    assert all(digest("run1", r) == digest("run2", r) for r in reports)
    _line(10, f"{len(c.edges)} edge lines; runs {dt1:.0f}s/{dt2:.0f}s of "
              f"600s; three report JSONs byte-identical")
