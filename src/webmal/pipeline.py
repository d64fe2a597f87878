"""Staged analysis pipeline with content-hash resumability.

`STAGES` declares each stage once: the files it reads (`RunConfig` path
fields or earlier stages' outputs), the files it writes into the run
directory, and the `RunConfig` keys that shape them. `run_pipeline` hands
the stage body exactly those, as run(*inputs, *outputs, **config), and a
single-stage subcommand calls the same body, so both write the same bytes.

Each stage records a manifest entry holding the sha256 of every input file it
read, the values of its own configuration keys, and the sha256 of every output
it wrote. A stage is skipped when all three still match, so a rerun with
nothing changed touches nothing. A configuration change reruns the stages
that read the changed key; a stage downstream of them reruns only when the
bytes of its inputs changed (an early cutoff: a new detection threshold that
flips no label rewrites reputation.tsv with the same bytes, and nothing after
it reruns).

Reports carry no timestamps and all JSON is emitted with sorted keys, so two
runs from identical inputs and configuration are byte-identical, whether
cold or resumed from a run of another configuration.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .binning import fibonacci_bins
from .dga import (FreqTable, load_default_table, read_dga_scores,
                  score_pld_name, write_dga_scores)
from .errors import ConfigError, InputError, WebmalError
from .graph import (NODE_HEADER, PldGraph, build_from_file, read_graph,
                    write_graph)
from .heavytail import select_candidates
from .heavytail.fitting import MIN_POINTS
from .mdn import (CooccurrenceGraph, build_cooccurrence, mdn_components,
                  read_cooccurrence, write_cooccurrence)
from .metrics import NodeMetrics, compute_node_metrics, read_metrics, write_metrics
from .predict import (FEATURE_SETS, ExperimentResult, FeatureMatrix,
                      assemble_features, feature_importance, metric_column,
                      read_alexa, read_features, run_stacked_experiment,
                      write_features, write_model)
from .psl import load_psl
from .reputation import (Reputation, malicious_file_sets, read_observations,
                         read_reputation, read_verdicts, score_plds,
                         write_reputation)
from .tables import decode, read_json, read_table, write_json, write_table

# the metrics-table features that hold counts, and so can be fitted
FIT_FEATURES = ("num_pages", "indegree", "outdegree", "total_degree", "triangles")


@dataclass
class RunConfig:
    edges: str
    psl: str
    verdicts: str
    observations: str
    out_dir: str
    alexa: str | None = None
    tau: float = 0.0
    strict_hosts: bool = False
    damping: float = 0.85
    pagerank_max_iter: int = 100
    hits_max_iter: int = 1000
    fit_features: tuple[str, ...] = ("num_pages", "indegree")
    fit_max_n: int = 50_000
    fit_restarts: int = 4
    split_seed: int = 0
    feature_set: str = "all"
    threshold: float = 0.5
    l2: float = 0.01
    epochs: int = 20_000
    emit_tsv: bool = False
    workers: int = 1

    def validate(self) -> None:
        for name in ("edges", "psl", "verdicts", "observations"):
            path = getattr(self, name)
            if not isinstance(path, str) or not os.path.exists(path):
                raise ConfigError(f"input path for {name!r} does not exist: {path!r}")
        if self.alexa is not None and not os.path.exists(self.alexa):
            raise ConfigError(f"alexa path does not exist: {self.alexa!r}")
        if not self.out_dir:
            raise ConfigError("out_dir must be a non-empty path")
        if not (0.0 <= self.tau < 1.0):
            raise ConfigError("tau must be in [0,1)")
        if not (0.0 < self.damping < 1.0):
            raise ConfigError("damping must be in (0,1)")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError("threshold must be in [0,1]")
        if self.feature_set not in FEATURE_SETS:
            raise ConfigError(f"unknown feature set {self.feature_set!r}")
        bad = [f for f in self.fit_features if f not in FIT_FEATURES]
        if bad:
            raise ConfigError(f"cannot fit non-count feature {bad[0]!r}")
        if self.fit_max_n < MIN_POINTS:
            raise ConfigError(f"fit_max_n must be >= {MIN_POINTS}")
        for name in ("pagerank_max_iter", "hits_max_iter", "fit_restarts",
                     "epochs", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.l2 < 0:
            raise ConfigError("l2 must be nonnegative")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        try:
            return decode(cls, d)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        try:
            d = read_json(path)
        except (OSError, InputError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        d.update({k: v for k, v in (overrides or {}).items() if v is not None})
        return cls.from_dict(d)


# ---------------------------------------------------------------------------
# manifest helpers

def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Stage:
    """The only declaration of a stage: run_pipeline calls
    run(*inputs, *outputs, **{key: cfg.key for key in config_keys})."""
    name: str
    inputs: tuple[str, ...]        # RunConfig path fields or earlier outputs
    outputs: tuple[str, ...]       # names inside out_dir
    config_keys: tuple[str, ...]   # RunConfig fields, passed by keyword
    run: Callable[..., object]


# config keys passed to a stage body but not recorded in its manifest entry:
# the worker count decides how fast the fits run, never a byte they write
UNRECORDED_KEYS = frozenset({"workers"})


@dataclass
class RunResult:
    out_dir: str
    manifest: dict
    executed: list[str]
    skipped: list[str]


# ---------------------------------------------------------------------------
# stage bodies: `webmal run` calls them as STAGES declares, each
# single-stage subcommand calls them directly

def build_graph(edges: str, psl: str, nodes_out: str, edges_out: str, *,
                strict_hosts: bool = False) -> PldGraph:
    g = build_from_file(edges, load_psl(psl), strict=strict_hosts)
    write_graph(g, nodes_out, edges_out)
    return g


def node_metrics(nodes: str, edges: str, out: str, **params) -> NodeMetrics:
    """params go to compute_node_metrics; unset ones keep its defaults."""
    m = compute_node_metrics(read_graph(nodes, edges), **params)
    write_metrics(m, out)
    return m


def score_reputation(verdicts: str, observations: str, out: str, *,
                     tau: float) -> Reputation:
    verdict_matrix = read_verdicts(verdicts)
    rep = score_plds(read_observations(observations), verdict_matrix, tau=tau)
    write_reputation(rep, out)
    return rep


def score_names(names: list[str], out: str, *,
                table: FreqTable | None = None) -> None:
    table = load_default_table() if table is None else table
    write_dga_scores(((name, score_pld_name(name, table)) for name in names), out)


def score_node_names(nodes: str, out: str) -> None:
    """dga.tsv for every PLD of a graph nodes table."""
    score_names(read_table(nodes, NODE_HEADER, (str, int, int))[0], out)


def _histogram(data: np.ndarray) -> dict:
    try:
        return fibonacci_bins(data).to_dict()
    except WebmalError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def fit_values(data: np.ndarray, **params) -> dict:
    """Tail-family selection and Fibonacci histogram of one value list.

    params go to select_candidates; unset ones keep its defaults. Raises the
    selection's WebmalError; a histogram that cannot be binned (non-integer
    data) is recorded as {"error": ...} instead.
    """
    cs = select_candidates(data, **params)
    return {
        "n": int(len(data)),
        "selection": cs.selection,
        "flag": cs.selection_flag,
        "candidates": list(cs.candidates),
        "eliminated_by": {k: list(v) for k, v in cs.eliminated_by.items()},
        "fits": {fam: {"params": fr.params, "x_min": fr.x_min, "D": fr.D,
                       "loglik": fr.loglik, "n_tail": fr.n_tail}
                 for fam, fr in cs.fits.items() if fr is not None},
        "histogram": _histogram(data),
    }


def _subsample_sorted(values: np.ndarray, cap: int) -> np.ndarray:
    xs = np.sort(values)
    if len(xs) <= cap:
        return xs
    idx = np.linspace(0, len(xs) - 1, cap).round().astype(int)
    return xs[idx]


def _fit_unit(args: tuple) -> tuple[str, str, dict]:
    feature, population, data, restarts = args
    try:
        out = fit_values(data, restarts=restarts)
    except WebmalError as exc:
        out = {"n": int(len(data)), "error": f"{type(exc).__name__}: {exc}",
               "histogram": _histogram(data)}
    return feature, population, out


def fit_populations(metrics: str, reputation: str, out: str, *,
                    fit_features: tuple[str, ...], fit_max_n: int,
                    fit_restarts: int, workers: int) -> None:
    """fits.json: each feature fitted over all PLDs, the clean ones and the
    malicious ones, each on at most fit_max_n quantile points."""
    m = read_metrics(metrics)
    rep = read_reputation(reputation)
    rows = rep.rows(m.plds)
    # a PLD with no reputation row is in neither population
    clean, malicious = rows >= 0, np.zeros(len(rows), dtype=bool)
    malicious[clean] = rep.malicious[rows[clean]]
    clean &= ~malicious
    units = []
    for feature in fit_features:
        vals = metric_column(m, feature)
        series = {"all": vals, "clean": vals[clean], "malicious": vals[malicious]}
        for population, pop_vals in series.items():
            data = _subsample_sorted(pop_vals, fit_max_n)
            units.append((feature, population, data, fit_restarts))
    if workers > 1 and len(units) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fit_unit, units))
    else:
        results = [_fit_unit(u) for u in units]
    report: dict = {"features": {}}
    for feature, population, payload in results:
        report["features"].setdefault(feature, {})[population] = payload
    write_json(report, out)


def build_cooccur(verdicts: str, observations: str, edges_out: str,
                  sets_out: str, *, tau: float) -> CooccurrenceGraph:
    """Co-occurrence graph of the malicious PLDs; empty files if there are none."""
    verdict_matrix = read_verdicts(verdicts)
    sets = malicious_file_sets(read_observations(observations), verdict_matrix,
                               tau=tau)
    g = build_cooccurrence(sets)
    write_cooccurrence(g, edges_out, sets_out)
    return g


def find_mdns(sets: str, out: str) -> None:
    """mdns.json: {"components": ...} of a co-occurrence sets table."""
    write_json({"components": mdn_components(read_cooccurrence(sets))}, out)


def assemble_feature_table(metrics: str, reputation: str, dga: str,
                           alexa: str | None, out: str, *,
                           feature_set: str) -> FeatureMatrix:
    fm = assemble_features(read_metrics(metrics), read_reputation(reputation),
                           read_dga_scores(dga),
                           read_alexa(alexa) if alexa else {}, feature_set)
    write_features(fm, out)
    return fm


def train_classifiers(features: str, nodes: str, edges: str, model_out: str,
                      stacked_out: str, eval_out: str, *, split_seed: int,
                      threshold: float, l2: float,
                      epochs: int) -> ExperimentResult:
    """Write both models and eval.json. Its feature_set is the set whose
    columns the table holds, or null for a table that matches none."""
    fm = read_features(features)
    res = run_stacked_experiment(fm, read_graph(nodes, edges), seed=split_seed,
                                 l2=l2, threshold=threshold, epochs=epochs)
    write_model(res.base_model, model_out)
    write_model(res.stacked_model, stacked_out)
    write_json({
        "base": res.base_report.to_dict(),
        "stacked": res.stacked_report.to_dict(),
        "importance_base": [[n, w] for n, w in feature_importance(res.base_model)],
        "importance_stacked": [[n, w] for n, w in
                               feature_importance(res.stacked_model)],
        "feature_set": next((name for name, cols in FEATURE_SETS.items()
                             if cols == fm.feature_names), None),
        "split": {"train": len(res.plan.train), "test": len(res.plan.test),
                  "validation": len(res.plan.validation), "seed": split_seed},
    }, eval_out)
    return res


STAGES: tuple[Stage, ...] = (
    Stage("build-graph", ("edges", "psl"), ("graph_nodes.tsv", "graph_edges.tsv"),
          ("strict_hosts",), build_graph),
    Stage("metrics", ("graph_nodes.tsv", "graph_edges.tsv"), ("metrics.tsv",),
          ("damping", "pagerank_max_iter", "hits_max_iter"), node_metrics),
    Stage("reputation", ("verdicts", "observations"), ("reputation.tsv",),
          ("tau",), score_reputation),
    Stage("dga", ("graph_nodes.tsv",), ("dga.tsv",), (), score_node_names),
    Stage("fits", ("metrics.tsv", "reputation.tsv"), ("fits.json",),
          ("fit_features", "fit_max_n", "fit_restarts", "workers"),
          fit_populations),
    Stage("cooccur", ("verdicts", "observations"),
          ("cooccur_edges.tsv", "cooccur_sets.tsv"), ("tau",), build_cooccur),
    Stage("mdn", ("cooccur_sets.tsv",), ("mdns.json",), (), find_mdns),
    Stage("features", ("metrics.tsv", "reputation.tsv", "dga.tsv", "alexa"),
          ("features.tsv",), ("feature_set",), assemble_feature_table),
    Stage("train", ("features.tsv", "graph_nodes.tsv", "graph_edges.tsv"),
          ("model.json", "model_stacked.json", "eval.json"),
          ("split_seed", "threshold", "l2", "epochs"), train_classifiers),
)


def run_pipeline(cfg: RunConfig, log: Callable[[str], None] | None = None) -> RunResult:
    """Execute all stages, skipping any whose manifest entry still holds."""
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = {name: os.path.join(cfg.out_dir, name)
             for stage in STAGES for name in stage.outputs}
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    manifest: dict = {"stages": {}}
    if os.path.exists(manifest_path):
        try:
            prev = read_json(manifest_path)
            if isinstance(prev.get("stages"), dict):
                manifest["stages"] = prev["stages"]
        except (OSError, InputError):
            pass  # unreadable manifest: rebuild everything

    # one stage's outputs are the next one's inputs: hash each file once,
    # and again only after a stage rewrites it
    hashes: dict[str, str] = {}

    def sha(path: str) -> str:
        if path not in hashes:
            hashes[path] = file_sha256(path)
        return hashes[path]

    executed: list[str] = []
    skipped: list[str] = []
    for stage in STAGES:
        inputs = [paths[n] if n in paths else getattr(cfg, n) for n in stage.inputs]
        outputs = [paths[n] for n in stage.outputs]
        config = {k: getattr(cfg, k) for k in stage.config_keys}
        # a None input (no alexa table) is passed to the body but not hashed
        in_hashes = {f"{i}:{os.path.basename(p)}": sha(p)
                     for i, p in enumerate(filter(None, inputs))}
        stage_cfg = {k: list(v) if isinstance(v, tuple) else v
                     for k, v in config.items() if k not in UNRECORDED_KEYS}
        entry = manifest["stages"].get(stage.name)
        up_to_date = (
            isinstance(entry, dict)
            and entry.get("status") == "done"
            and entry.get("inputs") == in_hashes
            and entry.get("config") == stage_cfg
            and all(os.path.exists(paths[name]) for name in stage.outputs)
            and entry.get("outputs") == {name: sha(paths[name]) for name in stage.outputs}
        )
        if up_to_date:
            skipped.append(stage.name)
            if log:
                log(f"stage {stage.name}: skipped (up to date)")
            continue
        try:
            stage.run(*inputs, *outputs, **config)
        except WebmalError as exc:
            manifest["stages"][stage.name] = {"status": "failed",
                                              "inputs": in_hashes,
                                              "config": stage_cfg}
            write_json(manifest, manifest_path)
            raise type(exc)(f"stage {stage.name}: {exc}") from exc
        for name in stage.outputs:
            hashes.pop(paths[name], None)
        manifest["stages"][stage.name] = {
            "status": "done",
            "inputs": in_hashes,
            "config": stage_cfg,
            "outputs": {name: sha(paths[name]) for name in stage.outputs},
        }
        # persisted now, so an interrupt later does not forget this stage
        write_json(manifest, manifest_path)
        executed.append(stage.name)
        if log:
            log(f"stage {stage.name}: done")
    write_json(manifest, manifest_path)
    if cfg.emit_tsv:
        emit_tsv_reports(cfg.out_dir)
    return RunResult(out_dir=cfg.out_dir, manifest=manifest,
                     executed=executed, skipped=skipped)


# ---------------------------------------------------------------------------
# flat-table mirrors of the JSON reports

def emit_tsv_reports(out_dir: str) -> list[str]:
    """A flat TSV mirror beside each JSON report in out_dir; returns their paths."""
    written = []
    for name, (header, rows) in _TSV_MIRRORS.items():
        report = os.path.join(out_dir, name)
        if os.path.exists(report):
            rep = read_json(report)
            path = report.removesuffix(".json") + ".tsv"
            write_table(path, header, zip(*rows(rep)))
            written.append(path)
    return written


_EVAL_COLUMNS = ("AUC", "F1", "TP", "TN", "FP", "FN", "TPR", "TNR", "FPR", "FNR",
                 "threshold")
# report -> (mirror header, report -> mirror rows)
_TSV_MIRRORS = {
    "eval.json": (("model", *_EVAL_COLUMNS), lambda rep: [
        (m, *(rep[m][c] for c in _EVAL_COLUMNS)) for m in ("base", "stacked")]),
    # an error unit has no selection or flag, and a str column must hold only
    # str: str() writes those cells as "None"
    "fits.json": (("feature", "population", "n", "selection", "flag", "candidates"),
                  lambda rep: [
        (f, p, u.get("n", 0), str(u.get("selection")), str(u.get("flag")),
         ",".join(u.get("candidates", [])))
        for f, units in sorted(rep.get("features", {}).items())
        for p, u in sorted(units.items())]),
    "mdns.json": (("id", "size", "shared_files", "mean_weight", "members"),
                  lambda rep: [
        (c["id"], c["size"], c["shared_files"], c["mean_weight"], ",".join(c["members"]))
        for c in rep.get("components", [])]),
}
