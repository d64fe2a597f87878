"""Per-PLD feature assembly, stratified splitting, and stacked logistic models.

Feature groups map onto the per-PLD tables produced upstream: centrality and
graph columns come from the node metrics table, domain columns join the
reputation table with name badness scores, and the alexa pair is imputed for
unranked PLDs (sentinel rank 1,000,001 with the top-1M flag cleared).

The stacked feature is the mean base-model probability over a PLD's
neighbors (undirected union, self excluded) restricted to training PLDs, so
no test label or test score ever feeds back into a feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import expit

from .errors import (DimensionMismatch, InputError, InvalidParams, KeyMismatch,
                     NonFiniteInput, SingleClass, TooFewPositives,
                     UnknownFeatureSet)
from .graph import PldGraph
from .metrics import NodeMetrics
from .reputation import Reputation
from .tables import (read_header, read_json, read_table, where, write_json,
                     write_table)

ALEXA_SENTINEL_RANK = 1_000_001
ALEXA_TOP = 1_000_000

FEATURE_SETS: dict[str, tuple[str, ...]] = {
    "centrality": ("authority", "hubs", "pagerank"),
    "domain": ("total_files", "unique_files", "num_pages", "file_entropy",
               "name_entropy"),
    "graph": ("total_degree", "indegree", "outdegree", "triangles"),
    "alexa": ("rank", "in_top_1M"),
}
FEATURE_SETS["all"] = (FEATURE_SETS["centrality"] + FEATURE_SETS["domain"]
                       + FEATURE_SETS["graph"] + FEATURE_SETS["alexa"])

# NodeMetrics array behind each feature read from it
METRIC_COLUMNS = {"authority": "authority", "hubs": "hub", "pagerank": "pagerank",
                  "total_degree": "total_degree", "indegree": "indegree",
                  "outdegree": "outdegree", "triangles": "triangles",
                  "num_pages": "num_pages"}


@dataclass
class FeatureMatrix:
    plds: list[str]
    feature_names: tuple[str, ...]
    X: np.ndarray                  # float64, len(plds) x len(feature_names)
    labels: np.ndarray             # int8, 1 = malicious

    def with_column(self, name: str, values: np.ndarray) -> "FeatureMatrix":
        if len(values) != len(self.plds):
            raise DimensionMismatch("column length does not match row count")
        return FeatureMatrix(plds=self.plds,
                             feature_names=self.feature_names + (name,),
                             X=np.column_stack([self.X, np.asarray(values, float)]),
                             labels=self.labels)


def metric_column(metrics: NodeMetrics, feature: str) -> np.ndarray:
    """The float64 values of a metrics-table feature, in metrics.plds order."""
    return getattr(metrics, METRIC_COLUMNS[feature]).astype(float)


def assemble_features(metrics: NodeMetrics, reputation: Reputation,
                      dga_scores: Mapping[str, float],
                      alexa: Mapping[str, int], feature_set: str = "all") -> FeatureMatrix:
    """Join the per-PLD tables into one named feature matrix.

    Rows follow the metrics table (the graph decides the universe); every
    graph PLD must have a reputation row since labels come from the
    dichotomy. The alexa table may be partial (imputed), the badness table
    is only required when name_entropy is among the selected columns.
    """
    if feature_set not in FEATURE_SETS:
        raise UnknownFeatureSet(f"unknown feature set {feature_set!r}")
    names = FEATURE_SETS[feature_set]
    order = sorted(range(len(metrics.plds)), key=metrics.plds.__getitem__)
    plds = [metrics.plds[i] for i in order]
    rows = reputation.rows(plds)
    missing = np.flatnonzero(rows < 0)
    if len(missing):
        raise KeyMismatch(f"no reputation row for {plds[missing[0]]!r} "
                          f"(+{len(missing) - 1} more)")
    need_dga = "name_entropy" in names
    if need_dga:
        missing = [p for p in plds if p not in dga_scores]
        if missing:
            raise KeyMismatch(f"no name badness score for {missing[0]!r} "
                              f"(+{len(missing) - 1} more)")

    cols: dict[str, np.ndarray] = {}
    n = len(plds)
    for name in names:
        if name in METRIC_COLUMNS:
            cols[name] = metric_column(metrics, name)[order]
        elif name == "total_files":
            cols[name] = reputation.total[rows].astype(float)
        elif name == "unique_files":
            cols[name] = reputation.n_unique[rows].astype(float)
        elif name == "file_entropy":
            cols[name] = reputation.entropy[rows].astype(float)
        elif name == "name_entropy":
            cols[name] = np.array([dga_scores[p] for p in plds], dtype=float)
        elif name == "rank":
            cols[name] = np.array([alexa.get(p, ALEXA_SENTINEL_RANK)
                                   for p in plds], dtype=float)
        elif name == "in_top_1M":
            cols[name] = np.array([1.0 if alexa.get(p, ALEXA_SENTINEL_RANK) <= ALEXA_TOP
                                   else 0.0 for p in plds])
    X = np.column_stack([cols[name] for name in names]) if n else np.zeros((0, len(names)))
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("assembled features contain non-finite values")
    labels = reputation.malicious[rows].astype(np.int8)
    return FeatureMatrix(plds=plds, feature_names=tuple(names), X=X, labels=labels)


# ---------------------------------------------------------------------------
# splitting and balancing

@dataclass(frozen=True)
class SplitPlan:
    train: np.ndarray
    test: np.ndarray
    validation: np.ndarray
    seed: int


TEST_FRACTION = 0.3
VAL_FRACTION = 0.3


def stratified_split(labels: Sequence[int], seed: int) -> SplitPlan:
    """Disjoint train/test/validation ids, class-stratified.

    The test partition takes TEST_FRACTION of each class; the validation
    partition then takes VAL_FRACTION of the remaining training rows, again
    per class, so proportions hold within one row per stratum.
    """
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos < 10 or n_neg < 10:
        raise TooFewPositives(
            f"need at least 10 rows per class, got {n_pos} pos / {n_neg} neg")
    rng = np.random.default_rng(seed)
    train_ids: list[np.ndarray] = []
    test_ids: list[np.ndarray] = []
    val_ids: list[np.ndarray] = []
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        n_test = int(round(TEST_FRACTION * len(idx)))
        test_ids.append(idx[:n_test])
        rest = idx[n_test:]
        n_val = int(round(VAL_FRACTION * len(rest)))
        val_ids.append(rest[:n_val])
        train_ids.append(rest[n_val:])
    return SplitPlan(train=np.sort(np.concatenate(train_ids)),
                     test=np.sort(np.concatenate(test_ids)),
                     validation=np.sort(np.concatenate(val_ids)),
                     seed=seed)


def undersample(X: np.ndarray, y: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Balance classes: the majority is resampled with replacement down to
    the minority size, the minority passes through untouched."""
    y = np.asarray(y)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise SingleClass("undersampling needs both classes")
    rng = np.random.default_rng(seed)
    if len(pos) <= len(neg):
        keep, down = pos, neg
    else:
        keep, down = neg, pos
    sampled = down[rng.integers(0, len(down), size=len(keep))]
    rows = np.concatenate([keep, sampled])
    return X[rows], y[rows]


# ---------------------------------------------------------------------------
# logistic regression

@dataclass
class Model:
    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float
    norm_mean: np.ndarray          # the training columns' mean and std:
    norm_std: np.ndarray           # a row is scored as (x - mean) / std
    converged: bool = True
    epochs_run: int = 0


def _gradient(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
              l2: float) -> tuple[np.ndarray, float]:
    """Gradient of the L2-regularized mean cross-entropy in (w, b)."""
    resid = (expit(X @ w + b) - y) / len(y)
    return X.T @ resid + l2 * w, float(np.sum(resid))


GRAD_TOL = 1e-6


def train_logreg(X: np.ndarray, y: np.ndarray, *, l2: float = 0.01,
                 epochs: int = 20000,
                 feature_names: Iterable[str] | None = None) -> Model:
    """Batch gradient descent on L2-regularized logistic loss, over columns
    standardized to zero mean and unit std (a constant column keeps std 1).

    Runs until the full gradient norm drops below GRAD_TOL or the epoch cap
    is hit; the bias is unregularized. Deterministic: zero init, fixed step
    1/L with L bounded through the Frobenius norm.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or len(X) != len(y):
        raise DimensionMismatch("X must be 2-D with one row per label")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise NonFiniteInput("training data contains non-finite values")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise InvalidParams("labels must be binary 0/1")
    if l2 < 0:
        raise InvalidParams("l2 must be nonnegative")
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"x{i}" for i in range(X.shape[1]))
    if len(names) != X.shape[1]:
        raise DimensionMismatch("feature_names length does not match X")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    X = (X - mean) / std

    n, k = X.shape
    lip = float(np.sum(X * X)) / (4.0 * max(n, 1)) + l2 + 1.0 / (4.0 * max(n, 1))
    lr = 1.0 / max(lip, 1e-12)
    w = np.zeros(k)
    b = 0.0
    converged = False
    epoch = 0
    for epoch in range(1, epochs + 1):
        gw, gb = _gradient(X, y, w, b, l2)
        gnorm = math.sqrt(float(np.dot(gw, gw)) + gb * gb)
        if gnorm < GRAD_TOL:
            converged = True
            break
        w -= lr * gw
        b -= lr * gb
    return Model(feature_names=names, weights=w, bias=b,
                 norm_mean=mean, norm_std=std,
                 converged=converged, epochs_run=epoch)


def predict_proba(model: Model, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.weights):
        raise DimensionMismatch(
            f"expected {len(model.weights)} columns, got {X.shape}")
    X = (X - model.norm_mean) / model.norm_std
    return expit(X @ model.weights + model.bias)


def feature_importance(model: Model) -> list[tuple[str, float]]:
    """|weight| ranking; weights are in standardized units, which makes
    magnitudes comparable across features."""
    pairs = [(name, abs(float(w)))
             for name, w in zip(model.feature_names, model.weights)]
    return sorted(pairs, key=lambda t: (-t[1], t[0]))


def write_model(model: Model, path: str) -> None:
    write_json({
        "feature_names": list(model.feature_names),
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
        "normalization": {
            "mean": [float(v) for v in model.norm_mean],
            "std": [float(v) for v in model.norm_std],
        },
        "converged": model.converged,
        "epochs_run": model.epochs_run,
    }, path)


def read_model(path: str) -> Model:
    d = read_json(path)
    try:
        norm = d["normalization"]
        model = Model(feature_names=tuple(d["feature_names"]),
                      weights=np.array(d["weights"], dtype=float),
                      bias=float(d["bias"]),
                      norm_mean=np.array(norm["mean"], dtype=float),
                      norm_std=np.array(norm["std"], dtype=float),
                      converged=bool(d.get("converged", True)),
                      epochs_run=int(d.get("epochs_run", 0)))
        k = len(model.feature_names)
        if any(len(a) != k for a in (model.weights, model.norm_mean, model.norm_std)):
            raise InputError(f"model file {path}: weights, normalization and "
                             "names differ in length")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc
    return model


# ---------------------------------------------------------------------------
# stacked feature

def stacked_feature(g: PldGraph, base_prob: Mapping[str, float]) -> dict[str, float]:
    """Mean neighbor probability per PLD, neighbors = undirected union with
    self excluded, restricted to the PLDs present in base_prob (the training
    set). Each mean sums its scored neighbors in node-id order. PLDs with no
    scored neighbor fall back to the global mean of base_prob."""
    if base_prob:
        fallback = float(np.mean(list(base_prob.values())))
    else:
        fallback = 0.5
    prob = np.zeros(g.n_nodes)
    scored = np.zeros(g.n_nodes)
    for i, pld in enumerate(g.plds):
        if pld in base_prob:
            prob[i] = base_prob[pld]
            scored[i] = 1.0
    A = g.adjacency()
    A = A.maximum(A.T)   # symmetric 0/1
    total = A @ prob
    count = A @ scored
    mean = np.divide(total, count, out=np.full(g.n_nodes, fallback),
                     where=count > 0)
    return dict(zip(g.plds, mean.tolist()))


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class EvalReport:
    auc: float
    tp: int
    tn: int
    fp: int
    fn: int
    f1: float
    fnr: float
    fpr: float
    tnr: float
    tpr: float
    threshold: float

    def to_dict(self) -> dict:
        return {"AUC": self.auc, "TP": self.tp, "TN": self.tn, "FP": self.fp,
                "FN": self.fn, "F1": self.f1, "FNR": self.fnr, "FPR": self.fpr,
                "TNR": self.tnr, "TPR": self.tpr, "threshold": self.threshold}


def auc_score(y_true: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-statistic AUC with midranks for ties.

    A tie group holding sorted positions start .. end-1 gets the midrank
    (start + 1 + end) / 2, a half-integer and so exact in a float: the same
    ranks as scipy's `rankdata(method="average")`, without loading
    `scipy.stats`. Non-finite scores have no rank and are rejected."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    if len(y) != len(s):
        raise DimensionMismatch("labels and scores differ in length")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("scores contain non-finite values")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs both classes")
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    r_pos = float(np.sum(ranks[y == 1]))
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(y_true: Sequence[int], scores: Sequence[float],
             threshold: float = 0.5) -> EvalReport:
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    if len(y) != len(s):
        raise DimensionMismatch("labels and scores differ in length")
    if not np.all(np.isfinite(s)):
        raise NonFiniteInput("scores contain non-finite values")
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise InvalidParams("scores must lie in [0,1]")
    auc = auc_score(y, s)
    pred = s >= threshold
    tp = int(np.sum(pred & (y == 1)))
    tn = int(np.sum(~pred & (y == 0)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    tpr = tp / (tp + fn) if (tp + fn) else 0.0
    fnr = fn / (tp + fn) if (tp + fn) else 0.0
    fpr = fp / (fp + tn) if (fp + tn) else 0.0
    tnr = tn / (fp + tn) if (fp + tn) else 0.0
    return EvalReport(auc=auc, tp=tp, tn=tn, fp=fp, fn=fn, f1=f1, fnr=fnr,
                      fpr=fpr, tnr=tnr, tpr=tpr, threshold=threshold)


# ---------------------------------------------------------------------------
# experiment harness

@dataclass
class ExperimentResult:
    plan: SplitPlan
    base_model: Model
    stacked_model: Model
    base_report: EvalReport
    stacked_report: EvalReport


def run_stacked_experiment(fm: FeatureMatrix, g: PldGraph, seed: int, *,
                           l2: float = 0.01, threshold: float = 0.5,
                           epochs: int = 20000) -> ExperimentResult:
    """Train a base model, derive the neighbor-mean feature from training
    probabilities only, train the augmented model, evaluate both on test."""
    plan = stratified_split(fm.labels, seed=seed)
    Xb, yb = undersample(fm.X[plan.train], fm.labels[plan.train], seed)
    base = train_logreg(Xb, yb, l2=l2, epochs=epochs,
                        feature_names=fm.feature_names)
    train_probs = predict_proba(base, fm.X[plan.train])
    prob_by_pld = {fm.plds[i]: float(p)
                   for i, p in zip(plan.train, train_probs)}
    stacked = stacked_feature(g, prob_by_pld)
    fm2 = fm.with_column("stacked", np.array([stacked[p] for p in fm.plds]))
    Xb2, yb2 = undersample(fm2.X[plan.train], fm2.labels[plan.train], seed)
    model2 = train_logreg(Xb2, yb2, l2=l2, epochs=epochs,
                          feature_names=fm2.feature_names)
    rep1 = evaluate(fm.labels[plan.test], predict_proba(base, fm.X[plan.test]),
                    threshold)
    rep2 = evaluate(fm2.labels[plan.test], predict_proba(model2, fm2.X[plan.test]),
                    threshold)
    return ExperimentResult(plan=plan, base_model=base, stacked_model=model2,
                            base_report=rep1, stacked_report=rep2)


# ---------------------------------------------------------------------------
# feature table persistence

def write_features(fm: FeatureMatrix, path: str) -> None:
    write_table(path, ("pld", *fm.feature_names, "label"),
                (fm.plds, *fm.X.T, fm.labels))


def read_features(path: str) -> FeatureMatrix:
    header = read_header(path)
    if len(header) < 3 or header[0] != "pld" or header[-1] != "label":
        raise InputError(f"{path}:1: unexpected feature table header")
    names = header[1:-1]
    plds, *cols, labels = read_table(path, header,
                                     (str,) + (float,) * len(names) + (int,))
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        i = int(bad.argmax())
        raise InputError(f"{where(path, header, i)}: label must be 0 or 1, "
                         f"got '{labels[i]}'")
    return FeatureMatrix(plds=plds, feature_names=names,
                         X=np.column_stack(cols),
                         labels=labels.astype(np.int8))


# ---------------------------------------------------------------------------
# alexa table

def read_alexa(path: str) -> dict[str, int]:
    plds, ranks = read_table(path, None, (str, int))
    out: dict[str, int] = {}
    for i, (pld, rank) in enumerate(zip(plds, ranks.tolist())):
        if rank < 1:
            raise InputError(f"{where(path, None, i)}: rank must be >= 1")
        if out.get(pld, rank) != rank:
            raise InputError(f"{where(path, None, i)}: conflicting rank for {pld!r}")
        out[pld] = rank
    return out
