"""Per-PLD feature assembly, stratified splitting, and stacked logistic models.

Feature groups map onto the per-PLD tables produced upstream: centrality and
graph columns come from the node metrics table, domain columns join the
reputation rows with name badness scores, and the alexa pair is imputed for
unranked PLDs (sentinel rank 1,000,001 with the top-1M flag cleared).

The stacked feature is the mean base-model probability over a PLD's
neighbors (undirected union, self excluded) restricted to training PLDs, so
no test label or test score ever feeds back into a feature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from .errors import (DimensionMismatch, InputError, InvalidParams, KeyMismatch,
                     NonFiniteInput, SingleClass, TooFewPositives,
                     UnknownFeatureSet, parse_float, parse_int)
from .graph import PldGraph
from .metrics import NodeMetrics
from .reputation import PldReputation

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

# metrics-table column behind each feature read from it
METRIC_COLUMNS = {"authority": "auth", "hubs": "hub", "pagerank": "pagerank",
                  "total_degree": "total", "indegree": "indeg",
                  "outdegree": "outdeg", "triangles": "triangles",
                  "num_pages": "pages"}


@dataclass
class FeatureMatrix:
    plds: list[str]
    feature_names: tuple[str, ...]
    X: np.ndarray                  # float64, len(plds) x len(feature_names)
    labels: np.ndarray             # int8, 1 = malicious
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.feature_names.index(name)]

    def with_column(self, name: str, values: np.ndarray) -> "FeatureMatrix":
        if len(values) != len(self.plds):
            raise DimensionMismatch("column length does not match row count")
        return FeatureMatrix(plds=self.plds,
                             feature_names=self.feature_names + (name,),
                             X=np.column_stack([self.X, np.asarray(values, float)]),
                             labels=self.labels,
                             norm_mean=None, norm_std=None)


def _metric_rows(metrics) -> dict[str, dict[str, float]]:
    if isinstance(metrics, NodeMetrics):
        pages = (metrics.num_pages if metrics.num_pages is not None
                 else np.zeros(len(metrics.plds)))
        return {pld: {
            "indeg": float(metrics.indegree[i]),
            "outdeg": float(metrics.outdegree[i]),
            "total": float(metrics.total_degree[i]),
            "pagerank": float(metrics.pagerank[i]),
            "hub": float(metrics.hub[i]),
            "auth": float(metrics.authority[i]),
            "triangles": float(metrics.triangles[i]),
            "pages": float(pages[i]),
        } for i, pld in enumerate(metrics.plds)}
    return {pld: dict(row) for pld, row in metrics.items()}


def _rep_rows(reputation) -> dict[str, PldReputation]:
    if isinstance(reputation, Mapping):
        return dict(reputation)
    return {r.pld: r for r in reputation}


def assemble_features(metrics, reputation, dga_scores: Mapping[str, float],
                      alexa: Mapping[str, int], feature_set: str = "all",
                      normalize: bool = False) -> FeatureMatrix:
    """Join the per-PLD tables into one named feature matrix.

    Rows follow the metrics table (the graph decides the universe); every
    graph PLD must have a reputation row since labels come from the
    dichotomy. The alexa table may be partial (imputed), the badness table
    is only required when name_entropy is among the selected columns.
    """
    if feature_set not in FEATURE_SETS:
        raise UnknownFeatureSet(f"unknown feature set {feature_set!r}")
    names = FEATURE_SETS[feature_set]
    mrows = _metric_rows(metrics)
    rrows = _rep_rows(reputation)
    plds = sorted(mrows)
    missing = [p for p in plds if p not in rrows]
    if missing:
        raise KeyMismatch(f"no reputation row for {missing[0]!r} "
                          f"(+{len(missing) - 1} more)")
    need_dga = "name_entropy" in names
    if need_dga:
        missing = [p for p in plds if p not in dga_scores]
        if missing:
            raise KeyMismatch(f"no name badness score for {missing[0]!r} "
                              f"(+{len(missing) - 1} more)")

    cols: dict[str, np.ndarray] = {}
    n = len(plds)
    get = lambda key: np.array([mrows[p][key] for p in plds], dtype=float)
    for name in names:
        if name in METRIC_COLUMNS:
            cols[name] = get(METRIC_COLUMNS[name])
        elif name == "total_files":
            cols[name] = np.array([rrows[p].total for p in plds], dtype=float)
        elif name == "unique_files":
            cols[name] = np.array([rrows[p].n_unique for p in plds], dtype=float)
        elif name == "file_entropy":
            cols[name] = np.array([rrows[p].entropy for p in plds], dtype=float)
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
    labels = np.array([1 if rrows[p].dichotomy == "malicious" else 0
                       for p in plds], dtype=np.int8)
    fm = FeatureMatrix(plds=plds, feature_names=tuple(names), X=X, labels=labels)
    if normalize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        fm.X = (X - mean) / std
        fm.norm_mean, fm.norm_std = mean, std
    return fm


# ---------------------------------------------------------------------------
# splitting and balancing

@dataclass(frozen=True)
class SplitPlan:
    train: np.ndarray
    test: np.ndarray
    validation: np.ndarray
    seed: int


def stratified_split(labels: Sequence[int], seed: int,
                     test_fraction: float = 0.3,
                     val_fraction: float = 0.3) -> SplitPlan:
    """Disjoint train/test/validation ids, class-stratified.

    The test partition takes test_fraction of each class; the validation
    partition then takes val_fraction of the remaining training rows, again
    per class, so proportions hold within one row per stratum.
    """
    y = np.asarray(labels)
    if not (0.0 < test_fraction < 1.0) or not (0.0 <= val_fraction < 1.0):
        raise InvalidParams("fractions must be in (0,1)")
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
        n_test = int(round(test_fraction * len(idx)))
        test_ids.append(idx[:n_test])
        rest = idx[n_test:]
        n_val = int(round(val_fraction * len(rest)))
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
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None
    converged: bool = True
    epochs_run: int = 0


def _loss_grad(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
               l2: float) -> tuple[float, np.ndarray, float]:
    z = X @ w + b
    p = expit(z)
    # stable cross-entropy: log(1+exp(-|z|)) + max(z,0) - z*y
    ce = np.mean(np.logaddexp(0.0, z) - z * y)
    loss = float(ce + 0.5 * l2 * np.dot(w, w))
    resid = (p - y) / len(y)
    grad_w = X.T @ resid + l2 * w
    grad_b = float(np.sum(resid))
    return loss, grad_w, grad_b


def train_logreg(X: np.ndarray, y: np.ndarray, *, l2: float = 0.01,
                 lr: float | None = None, epochs: int = 20000,
                 tol: float = 1e-6, normalize: bool = True,
                 feature_names: Iterable[str] | None = None) -> Model:
    """Batch gradient descent on L2-regularized logistic loss.

    Runs until the full gradient norm drops below tol or the epoch cap is
    hit; the bias is unregularized. Deterministic: zero init, fixed step
    (default 1/L with L bounded through the Frobenius norm).
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

    mean = std = None
    if normalize:
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        X = (X - mean) / std

    n, k = X.shape
    if lr is None:
        lip = float(np.sum(X * X)) / (4.0 * max(n, 1)) + l2 + 1.0 / (4.0 * max(n, 1))
        lr = 1.0 / max(lip, 1e-12)
    w = np.zeros(k)
    b = 0.0
    converged = False
    epoch = 0
    for epoch in range(1, epochs + 1):
        _, gw, gb = _loss_grad(X, y, w, b, l2)
        gnorm = math.sqrt(float(np.dot(gw, gw)) + gb * gb)
        if gnorm < tol:
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
    if model.norm_mean is not None:
        X = (X - model.norm_mean) / model.norm_std
    return expit(X @ model.weights + model.bias)


def feature_importance(model: Model) -> list[tuple[str, float]]:
    """|weight| ranking; with normalization on, weights are already in
    standardized units, making magnitudes comparable across features."""
    pairs = [(name, abs(float(w)))
             for name, w in zip(model.feature_names, model.weights)]
    return sorted(pairs, key=lambda t: (-t[1], t[0]))


def write_model(model: Model, path: str) -> None:
    payload = {
        "feature_names": list(model.feature_names),
        "weights": [float(w) for w in model.weights],
        "bias": float(model.bias),
        "normalization": None if model.norm_mean is None else {
            "mean": [float(v) for v in model.norm_mean],
            "std": [float(v) for v in model.norm_std],
        },
        "converged": model.converged,
        "epochs_run": model.epochs_run,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_model(path: str) -> Model:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    try:
        norm = d["normalization"]
        model = Model(feature_names=tuple(d["feature_names"]),
                      weights=np.array(d["weights"], dtype=float),
                      bias=float(d["bias"]),
                      norm_mean=None if norm is None else np.array(norm["mean"]),
                      norm_std=None if norm is None else np.array(norm["std"]),
                      converged=bool(d.get("converged", True)),
                      epochs_run=int(d.get("epochs_run", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model file {path}: {exc}") from exc
    if len(model.weights) != len(model.feature_names):
        raise InputError(f"model file {path}: weight/name length mismatch")
    return model


# ---------------------------------------------------------------------------
# stacked feature

def stacked_feature(g: PldGraph, base_prob: Mapping[str, float]) -> dict[str, float]:
    """Mean neighbor probability per PLD, neighbors = undirected union with
    self excluded, restricted to the PLDs present in base_prob (the training
    set). PLDs with no scored neighbor fall back to the global mean of
    base_prob."""
    if base_prob:
        fallback = float(np.mean(list(base_prob.values())))
    else:
        fallback = 0.5
    neighbors: dict[int, set[int]] = {i: set() for i in range(g.n_nodes)}
    for s, d in zip(g.edge_src, g.edge_dst):
        s, d = int(s), int(d)
        if s == d:
            continue
        neighbors[s].add(d)
        neighbors[d].add(s)
    out: dict[str, float] = {}
    for i, pld in enumerate(g.plds):
        vals = [base_prob[g.plds[j]] for j in neighbors[i]
                if g.plds[j] in base_prob]
        out[pld] = float(np.mean(vals)) if vals else fallback
    return out


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
    """Rank-statistic AUC with midranks for ties."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    if len(y) != len(s):
        raise DimensionMismatch("labels and scores differ in length")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs both classes")
    ranks = rankdata(s, method="average")
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pld\t" + "\t".join(fm.feature_names) + "\tlabel\n")
        for i, pld in enumerate(fm.plds):
            vals = "\t".join(repr(float(v)) for v in fm.X[i])
            fh.write(f"{pld}\t{vals}\t{int(fm.labels[i])}\n")


def read_features(path: str) -> FeatureMatrix:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) < 3 or header[0] != "pld" or header[-1] != "label":
            raise InputError(f"unexpected feature table header in {path}")
        names = tuple(header[1:-1])
        plds: list[str] = []
        rows: list[list[float]] = []
        labels: list[int] = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                row = [float(v) for v in parts[1:-1]]
                label = int(parts[-1])
            except ValueError:
                # name the line only once a cell fails
                where = f"{path}:{lineno}"
                row = [parse_float(v, where) for v in parts[1:-1]]
                label = parse_int(parts[-1], where)
            if label not in (0, 1):
                raise InputError(f"{path}:{lineno}: label must be 0 or 1, "
                                 f"got {parts[-1]!r}")
            plds.append(parts[0])
            rows.append(row)
            labels.append(label)
    return FeatureMatrix(plds=plds, feature_names=names,
                         X=np.array(rows, dtype=float) if rows else np.zeros((0, len(names))),
                         labels=np.array(labels, dtype=np.int8))


# ---------------------------------------------------------------------------
# alexa table

def read_alexa(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected pld<TAB>rank")
            pld, rank_s = parts
            try:
                rank = int(rank_s)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad rank {rank_s!r}") from exc
            if rank < 1:
                raise InputError(f"{path}:{lineno}: rank must be >= 1")
            if pld in out and out[pld] != rank:
                raise InputError(f"{path}:{lineno}: conflicting rank for {pld!r}")
            out[pld] = rank
    return out
