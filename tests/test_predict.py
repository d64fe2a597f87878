"""Feature assembly, split/balance, logistic model, stacking, evaluation."""

import json
import math

import numpy as np
import pytest
from scipy.stats import rankdata

from webmal.errors import (DimensionMismatch, InputError, InvalidParams,
                           KeyMismatch, NonFiniteInput, SingleClass,
                           TooFewPositives, UnknownFeatureSet)
from webmal.graph import build_pld_graph
from webmal.metrics import NodeMetrics
from webmal.predict import (ALEXA_SENTINEL_RANK, FEATURE_SETS, EvalReport,
                            FeatureMatrix, Model, assemble_features, auc_score,
                            evaluate, feature_importance, predict_proba,
                            read_alexa, read_model, run_stacked_experiment,
                            stacked_feature, stratified_split, train_logreg,
                            undersample, write_model)
from webmal.predict import _gradient
from webmal.psl import parse_psl
from webmal.reputation import Reputation

from oracles import oracle_logistic_loss, oracle_stacked_feature


def fake_sources(n=6, n_mal=2):
    plds = [f"site{i:02d}.com" for i in range(n)]
    i = np.arange(n)
    metrics = NodeMetrics(plds=plds, indegree=i, outdegree=i % 3,
                          total_degree=i + i % 3, pagerank=1.0 / (i + 1),
                          hub=0.1 * i, authority=0.2 * i, triangles=i % 2,
                          num_pages=2 * i + 1)
    reps = Reputation(plds=plds, malicious=i < n_mal, r_bar=0.1 * i,
                      n_unique=i + 1, total=2 * i + 2, entropy=np.full(n, 0.5))
    dga = {p: 10.0 + i for i, p in enumerate(plds)}
    alexa = {plds[0]: 5, plds[1]: 2_000_000}
    return plds, metrics, reps, dga, alexa


# ---------------------------------------------------------------------------
# feature assembly

def test_graph_set_has_four_columns():
    _, metrics, reps, dga, alexa = fake_sources()
    fm = assemble_features(metrics, reps, dga, alexa, "graph")
    assert fm.feature_names == ("total_degree", "indegree", "outdegree",
                                "triangles")
    assert fm.X.shape == (6, 4)


def test_all_set_has_fourteen_columns():
    _, metrics, reps, dga, alexa = fake_sources()
    fm = assemble_features(metrics, reps, dga, alexa, "all")
    assert len(fm.feature_names) == 14
    assert len(set(fm.feature_names)) == 14
    assert np.all(np.isfinite(fm.X))


def test_alexa_imputation_sentinel():
    plds, metrics, reps, dga, alexa = fake_sources()
    fm = assemble_features(metrics, reps, dga, alexa, "alexa")
    rank = fm.X[:, fm.feature_names.index("rank")]
    flag = fm.X[:, fm.feature_names.index("in_top_1M")]
    i0, i1, i2 = (fm.plds.index(p) for p in plds[:3])
    assert rank[i0] == 5 and flag[i0] == 1.0
    assert rank[i1] == 2_000_000 and flag[i1] == 0.0   # ranked, below top 1M
    assert rank[i2] == ALEXA_SENTINEL_RANK and flag[i2] == 0.0


def test_labels_follow_dichotomy():
    plds, metrics, reps, dga, alexa = fake_sources(n_mal=3)
    fm = assemble_features(metrics, reps, dga, alexa, "graph")
    want = {p: 1 if mal else 0 for p, mal in zip(reps.plds, reps.malicious.tolist())}
    got = {p: int(v) for p, v in zip(fm.plds, fm.labels)}
    assert got == want


def test_unknown_set_and_key_mismatch():
    _, metrics, reps, dga, alexa = fake_sources()
    with pytest.raises(UnknownFeatureSet):
        assemble_features(metrics, reps, dga, alexa, "everything")
    with pytest.raises(KeyMismatch,
                       match=r"^no reputation row for 'site05\.com' \(\+0 more\)$"):
        assemble_features(metrics, Reputation(
            reps.plds[:-1], reps.malicious[:-1], reps.r_bar[:-1],
            reps.n_unique[:-1], reps.total[:-1], reps.entropy[:-1]), dga, alexa)
    bad_dga = dict(dga)
    del bad_dga["site03.com"]
    with pytest.raises(KeyMismatch):
        assemble_features(metrics, reps, bad_dga, alexa, "domain")
    # name_entropy not selected: the badness table is not consulted
    assemble_features(metrics, reps, {}, alexa, "graph")


# ---------------------------------------------------------------------------
# split and balance

def test_split_ratio_arithmetic():
    y = np.array([1] * 100 + [0] * 1900)
    plan = stratified_split(y, seed=7)
    test_pos = int(np.sum(y[plan.test] == 1))
    train_pos = int(np.sum(y[plan.train] == 1))
    val_pos = int(np.sum(y[plan.validation] == 1))
    assert test_pos == 30
    assert train_pos + val_pos == 70
    assert val_pos == 21
    assert int(np.sum(y[plan.test] == 0)) == 570


def test_split_deterministic_and_disjoint():
    y = np.array([1] * 40 + [0] * 160)
    a = stratified_split(y, seed=3)
    b = stratified_split(y, seed=3)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.test, b.test)
    assert np.array_equal(a.validation, b.validation)
    parts = np.concatenate([a.train, a.test, a.validation])
    assert len(parts) == len(set(parts.tolist())) == len(y)


def test_split_stratified_within_one_row_over_seeds():
    rng = np.random.default_rng(0)
    for seed in range(50):
        n_pos = int(rng.integers(12, 80))
        n_neg = int(rng.integers(12, 300))
        y = rng.permutation(np.array([1] * n_pos + [0] * n_neg))
        plan = stratified_split(y, seed=seed)
        for cls, total in ((1, n_pos), (0, n_neg)):
            got_test = int(np.sum(y[plan.test] == cls))
            assert abs(got_test - 0.3 * total) <= 1
            rest = total - got_test
            got_val = int(np.sum(y[plan.validation] == cls))
            assert abs(got_val - 0.3 * rest) <= 1


def test_split_too_few_rows():
    with pytest.raises(TooFewPositives):
        stratified_split(np.array([1] * 9 + [0] * 100), seed=1)
    with pytest.raises(TooFewPositives):
        stratified_split(np.array([1] * 50 + [0] * 9), seed=1)


def test_undersample_balances_and_keeps_minority():
    X = np.arange(1000, dtype=float).reshape(-1, 1)
    y = np.array([1] * 50 + [0] * 950)
    Xb, yb = undersample(X, y, seed=11)
    assert int(np.sum(yb == 1)) == 50 and int(np.sum(yb == 0)) == 50
    assert set(Xb[yb == 1, 0].astype(int)) == set(range(50))  # untouched
    with pytest.raises(SingleClass):
        undersample(X, np.ones(1000), seed=1)


def test_undersample_balanced_input_passthrough_sizes():
    X = np.zeros((20, 2))
    y = np.array([1] * 10 + [0] * 10)
    Xb, yb = undersample(X, y, seed=5)
    assert len(yb) == 20 and int(np.sum(yb == 1)) == 10


def test_undersample_inclusion_frequency():
    # each majority row's expected sample count is 50/950
    X = np.arange(1000, dtype=float).reshape(-1, 1)
    y = np.array([1] * 50 + [0] * 950)
    counts = np.zeros(1000)
    for seed in range(100):
        Xb, yb = undersample(X, y, seed=seed)
        ids = Xb[yb == 0, 0].astype(int)
        np.add.at(counts, ids, 1)
    mean_rate = counts[50:].mean() / 100
    assert abs(mean_rate - 50 / 950) < 0.01


# ---------------------------------------------------------------------------
# logistic regression

def test_training_beats_zero_weights_on_separated_data():
    X = np.array([[x] for x in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_logreg(X, y, l2=0.01)
    Z = (X - model.norm_mean) / model.norm_std   # the columns it trained on
    loss_fit = oracle_logistic_loss(Z, y, model.weights, model.bias, 0.01)
    loss_zero = oracle_logistic_loss(Z, y, np.zeros(1), 0.0, 0.01)
    assert loss_fit < loss_zero
    assert model.converged


def test_heavy_regularization_shrinks_weights():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 3))
    y = rng.integers(0, 2, size=200)   # independent of X
    small = train_logreg(X, y, l2=0.01)
    big = train_logreg(X, y, l2=100.0)
    assert np.linalg.norm(big.weights) < np.linalg.norm(small.weights)
    assert np.linalg.norm(big.weights) < 1e-3


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 4))
    y = (rng.random(60) < 0.4).astype(float)
    # stop well short of the optimum so the gradient dwarfs the O(h^2)
    # central-difference noise and the relative comparison is meaningful
    model = train_logreg(X, y, l2=0.05, epochs=5)
    w, b = model.weights, model.bias
    gw, gb = _gradient(X, y, w, b, 0.05)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        lp = oracle_logistic_loss(X, y, w + e, b, 0.05)
        lm = oracle_logistic_loss(X, y, w - e, b, 0.05)
        num = (lp - lm) / (2 * h)
        assert abs(num - gw[j]) / max(abs(gw[j]), 1e-8) < 1e-5
    lp = oracle_logistic_loss(X, y, w, b + h, 0.05)
    lm = oracle_logistic_loss(X, y, w, b - h, 0.05)
    assert abs((lp - lm) / (2 * h) - gb) / max(abs(gb), 1e-8) < 1e-5


def test_training_rejects_bad_input():
    with pytest.raises(NonFiniteInput):
        train_logreg(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(InvalidParams):
        train_logreg(np.array([[1.0], [2.0]]), np.array([0.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        train_logreg(np.zeros((3, 2)), np.zeros(4))


def test_training_deterministic():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 3))
    y = (X[:, 0] > 0).astype(float)
    a = train_logreg(X, y)
    b = train_logreg(X, y)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def _model(names, weights, bias, mean=None, std=None):
    """A Model whose normalization is the identity unless given."""
    k = len(names)
    return Model(feature_names=names, weights=weights, bias=bias,
                 norm_mean=np.zeros(k) if mean is None else mean,
                 norm_std=np.ones(k) if std is None else std)


def test_predict_proba_formula_and_limits():
    model = _model(("a", "b"), np.zeros(2), 0.0)
    assert np.allclose(predict_proba(model, np.random.rand(5, 2)), 0.5)
    hot = _model(("a",), np.zeros(1), 40.0)
    assert predict_proba(hot, np.zeros((1, 1)))[0] > 1 - 1e-12
    rng = np.random.default_rng(2)
    w = rng.normal(size=3)
    mean, std = rng.normal(size=3), rng.random(3) + 0.5
    m = _model(("a", "b", "c"), w, 0.3, mean, std)
    X = rng.normal(size=(20, 3))
    direct = 1.0 / (1.0 + np.exp(-(((X - mean) / std) @ w + 0.3)))
    assert np.allclose(predict_proba(m, X), direct, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        predict_proba(m, np.zeros((4, 2)))


def test_model_json_roundtrip(tmp_path):
    X = np.random.default_rng(1).normal(size=(50, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    model = train_logreg(X, y, feature_names=("u", "v"))
    path = str(tmp_path / "model.json")
    write_model(model, path)
    again = read_model(path)
    assert again.feature_names == ("u", "v")
    assert np.allclose(again.weights, model.weights)
    assert np.allclose(again.norm_mean, model.norm_mean)
    probs_a = predict_proba(model, X)
    probs_b = predict_proba(again, X)
    assert np.allclose(probs_a, probs_b, atol=1e-15)


def test_model_without_normalization_is_input_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"feature_names": ["u"], "weights": [1.0],
                                "bias": 0.0, "normalization": None}))
    with pytest.raises(InputError, match="malformed model file"):
        read_model(str(path))


def test_feature_importance_sorted():
    m = _model(("a", "b", "c"), np.array([0.5, -2.0, 1.0]), 0.0)
    ranking = feature_importance(m)
    assert ranking == [("b", 2.0), ("c", 1.0), ("a", 0.5)]


# ---------------------------------------------------------------------------
# stacked feature

def small_graph():
    rules = parse_psl("com\n")
    edges = [("http://a.com/1", "http://b.com/1"),
             ("http://b.com/1", "http://c.com/1"),
             ("http://c.com/1", "http://c.com/2"),   # self loop
             ("http://d.com/1", "http://d.com/1")]   # isolated via self loop
    return build_pld_graph(edges, rules)


def test_stacked_neighbor_mean_and_fallback():
    g = small_graph()
    base = {"a.com": 0.2, "c.com": 0.8}
    out = stacked_feature(g, base)
    # b's neighbors are a and c (undirected union), both scored
    assert out["b.com"] == pytest.approx(0.5)
    # a's only neighbor b is unscored -> global mean of base probs
    assert out["a.com"] == pytest.approx(0.5)
    # d is isolated (self loop excluded) -> global mean
    assert out["d.com"] == pytest.approx(0.5)
    # c's neighbor b unscored -> fallback, self loop never counts
    assert out["c.com"] == pytest.approx(0.5)


def _assert_matches_stacked_oracle(g, base):
    got, want = stacked_feature(g, base), oracle_stacked_feature(g, base)
    assert list(got) == list(want)
    for pld in want:
        assert got[pld] == pytest.approx(want[pld], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("base", [
    {"a.com": 0.2, "c.com": 0.8},        # c has a self-loop; a falls back
    {"b.com": 0.3, "d.com": 0.6},        # d: self-loop only, no neighbor
    {},                                   # nothing scored: fallback 0.5
])
def test_stacked_matches_set_oracle_small(base):
    _assert_matches_stacked_oracle(small_graph(), base)


def test_stacked_matches_set_oracle_random():
    rng = np.random.default_rng(5)
    n = 300
    pairs = [(f"http://s{int(a)}.com/", f"http://s{int(b)}.com/")
             for a, b in rng.integers(0, n, size=(2000, 2))]
    g = build_pld_graph(pairs, parse_psl("com\n"))
    scored = rng.random(g.n_nodes) < 0.4
    base = {p: float(v) for p, v, keep in zip(g.plds, rng.random(g.n_nodes), scored)
            if keep}
    _assert_matches_stacked_oracle(g, base)


def test_stacked_ignores_test_labels():
    g = small_graph()
    base = {"a.com": 0.1, "b.com": 0.9}
    first = stacked_feature(g, base)
    # nothing outside base_prob can change the result
    second = stacked_feature(g, dict(base))
    assert first == second


# ---------------------------------------------------------------------------
# evaluation

def test_auc_perfect_and_reversed():
    y = [0, 0, 1, 1]
    assert evaluate(y, [0.1, 0.2, 0.8, 0.9]).auc == 1.0
    assert evaluate(y, [0.9, 0.8, 0.2, 0.1]).auc == 0.0


def test_auc_ties_use_midranks():
    assert auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5


def test_auc_random_is_half():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, size=10_000)
    s = rng.random(10_000)
    assert abs(auc_score(y, s) - 0.5) < 0.02


def test_auc_monotone_invariance():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=500)
    s = rng.random(500)
    base = auc_score(y, s)
    assert auc_score(y, s ** 3) == pytest.approx(base, abs=1e-12)
    assert auc_score(y, 0.1 + 0.8 * s) == pytest.approx(base, abs=1e-12)


def test_auc_matches_scipy_midranks_on_ties():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 300))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        # few distinct values, so most scores are tied; signed zeros tie too
        s = rng.integers(-3, int(rng.integers(1, 12)), size=n) / 7.0
        s[rng.random(n) < 0.1] = -0.0
        ranks = rankdata(s, method="average")
        n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
        ref = (float(np.sum(ranks[y == 1])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert auc_score(y, s) == ref


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_auc_rejects_non_finite_scores(bad):
    with pytest.raises(NonFiniteInput):
        auc_score([0, 1], [bad, 0.5])
    with pytest.raises(NonFiniteInput):
        evaluate([0, 1], [bad, 0.5])


def test_auc_single_class_error():
    with pytest.raises(SingleClass):
        auc_score([1, 1, 1], [0.1, 0.2, 0.3])


def test_confusion_identities():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(20, 200))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        s = rng.random(n)
        r = evaluate(y, s, threshold=float(rng.random()))
        assert r.tp + r.fn == int(np.sum(y == 1))
        assert r.tn + r.fp == int(np.sum(y == 0))
        if r.tp + r.fn:
            assert r.tpr == pytest.approx(r.tp / (r.tp + r.fn))
            assert r.fnr == pytest.approx(1 - r.tpr)
        if r.fp + r.tn:
            assert r.fpr == pytest.approx(r.fp / (r.fp + r.tn))
            assert r.tnr == pytest.approx(1 - r.fpr)
        denom = 2 * r.tp + r.fp + r.fn
        assert r.f1 == pytest.approx(2 * r.tp / denom if denom else 0.0)


def test_evaluate_known_confusion():
    y = [1, 1, 0, 0, 1]
    s = [0.9, 0.4, 0.6, 0.1, 0.5]
    r = evaluate(y, s, threshold=0.5)
    assert (r.tp, r.fn, r.fp, r.tn) == (2, 1, 1, 1)
    assert r.f1 == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))


def test_evaluate_validates_scores():
    with pytest.raises(InvalidParams):
        evaluate([0, 1], [0.5, 1.5])
    with pytest.raises(NonFiniteInput):
        evaluate([0, 1], [0.5, np.nan])
    with pytest.raises(DimensionMismatch):
        evaluate([0, 1], [0.5])


# ---------------------------------------------------------------------------
# alexa table

def test_read_alexa(tmp_path):
    p = tmp_path / "alexa.tsv"
    p.write_text("a.com\t1\nb.com\t999999\n")
    assert read_alexa(str(p)) == {"a.com": 1, "b.com": 999999}
    p.write_text("a.com\t0\n")
    with pytest.raises(InputError):
        read_alexa(str(p))
    p.write_text("a.com\t1\na.com\t2\n")
    with pytest.raises(InputError):
        read_alexa(str(p))
    p.write_text("a.com\tx\n")
    with pytest.raises(InputError):
        read_alexa(str(p))


# ---------------------------------------------------------------------------
# end-to-end experiment on a planted corpus

@pytest.fixture(scope="module")
def corpus_features():
    from webmal.dga import load_default_table, score_pld_name
    from webmal.metrics import compute_node_metrics
    from webmal.reputation import score_plds
    from webmal.synthlab import default_spec, plant_crawl

    spec = default_spec(seed=101, n_plds=600, malicious_fraction=0.15,
                        homophily=0.8)
    c = plant_crawl(spec)
    rules = parse_psl(c.psl_text)
    g = build_pld_graph(c.edges, rules)
    metrics = compute_node_metrics(g)
    reps = score_plds(c.profiles, c.verdicts, tau=0.0)
    table = load_default_table()
    dga = {p: score_pld_name(p, table) for p in c.plds}
    fm = assemble_features(metrics, reps, dga, c.alexa, "all")
    return fm, g


def test_experiment_runs_and_stacks(corpus_features):
    fm, g = corpus_features
    res = run_stacked_experiment(fm, g, seed=0, epochs=4000)
    assert 0.5 < res.base_report.auc <= 1.0
    assert 0.0 <= res.stacked_report.auc <= 1.0
    assert res.stacked_model.feature_names[-1] == "stacked"
    assert len(res.stacked_model.weights) == 15


def test_experiment_bit_reproducible(corpus_features):
    fm, g = corpus_features
    a = run_stacked_experiment(fm, g, seed=4, epochs=2000)
    b = run_stacked_experiment(fm, g, seed=4, epochs=2000)
    assert np.array_equal(a.base_model.weights, b.base_model.weights)
    assert np.array_equal(a.stacked_model.weights, b.stacked_model.weights)
    assert a.base_report == b.base_report
    assert a.stacked_report == b.stacked_report


def test_stacked_unchanged_when_test_labels_flip(corpus_features):
    fm, g = corpus_features
    plan = stratified_split(fm.labels, seed=2)
    Xb, yb = undersample(fm.X[plan.train], fm.labels[plan.train], 2)
    base = train_logreg(Xb, yb, feature_names=fm.feature_names, epochs=2000)
    probs = predict_proba(base, fm.X[plan.train])
    by_pld = {fm.plds[i]: float(p) for i, p in zip(plan.train, probs)}
    before = stacked_feature(g, by_pld)
    flipped = fm.labels.copy()
    flipped[plan.test] = 1 - flipped[plan.test]   # stacking never reads these
    after = stacked_feature(g, by_pld)
    assert before == after
