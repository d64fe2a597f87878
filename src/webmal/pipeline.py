"""Staged analysis pipeline with content-hash resumability.

Each stage reads files, writes files into the run directory, and records a
manifest entry holding the sha256 of every input file it read, the values of
its own configuration keys, and the sha256 of every output it wrote. A stage
is skipped when all three still match, so a rerun with nothing changed
touches nothing. A configuration change reruns the stages that read the
changed key; a stage downstream of them reruns only when the bytes of its
inputs changed (an early cutoff: a new detection threshold that flips no
label rewrites reputation.tsv with the same bytes, and nothing after it
reruns).

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


def _config_slice(cfg: RunConfig, keys) -> dict:
    out = {}
    for k in keys:
        v = getattr(cfg, k)
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


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
    name: str
    config_keys: tuple[str, ...]                      # fields that shape outputs
    inputs: Callable[[RunConfig, dict], list[str]]   # absolute paths
    outputs: tuple[str, ...]                          # names inside out_dir
    run: Callable[[RunConfig, dict], None]


@dataclass
class RunResult:
    out_dir: str
    manifest: dict
    executed: list[str]
    skipped: list[str]


# ---------------------------------------------------------------------------
# stage bodies: `webmal run` reaches them through the (cfg, paths) adapters
# below, each single-stage subcommand calls them directly

def build_graph(edges: str, psl: str, nodes_out: str, edges_out: str, *,
                strict: bool = False) -> PldGraph:
    g = build_from_file(edges, load_psl(psl), strict=strict)
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


def build_cooccur(verdicts: str, observations: str, edges_out: str,
                  sets_out: str, *, tau: float) -> CooccurrenceGraph:
    """Co-occurrence graph of the malicious PLDs; empty files if there are none."""
    verdict_matrix = read_verdicts(verdicts)
    sets = malicious_file_sets(read_observations(observations), verdict_matrix,
                               tau=tau)
    g = build_cooccurrence(sets)
    write_cooccurrence(g, edges_out, sets_out)
    return g


def assemble_feature_table(metrics: str, reputation: str, dga: str, out: str, *,
                           alexa: str | None,
                           feature_set: str) -> FeatureMatrix:
    fm = assemble_features(read_metrics(metrics), read_reputation(reputation),
                           read_dga_scores(dga),
                           read_alexa(alexa) if alexa else {}, feature_set)
    write_features(fm, out)
    return fm


def train_classifiers(features: str, nodes: str, edges: str, model_out: str,
                      stacked_out: str, *, seed: int, l2: float,
                      threshold: float, epochs: int) -> tuple[ExperimentResult, dict]:
    """Write both models; return the experiment and its eval.json payload."""
    fm = read_features(features)
    res = run_stacked_experiment(fm, read_graph(nodes, edges), seed=seed, l2=l2,
                                 threshold=threshold, epochs=epochs)
    write_model(res.base_model, model_out)
    write_model(res.stacked_model, stacked_out)
    return res, {
        "base": res.base_report.to_dict(),
        "stacked": res.stacked_report.to_dict(),
        "importance_base": [[n, w] for n, w in feature_importance(res.base_model)],
        "importance_stacked": [[n, w] for n, w in
                               feature_importance(res.stacked_model)],
    }


# ---------------------------------------------------------------------------
# (cfg, paths) adapters; `paths` maps output names -> absolute paths

def _stage_build_graph(cfg: RunConfig, paths: dict) -> None:
    build_graph(cfg.edges, cfg.psl, paths["graph_nodes.tsv"],
                paths["graph_edges.tsv"], strict=cfg.strict_hosts)


def _stage_metrics(cfg: RunConfig, paths: dict) -> None:
    node_metrics(paths["graph_nodes.tsv"], paths["graph_edges.tsv"],
                 paths["metrics.tsv"], damping=cfg.damping,
                 pagerank_max_iter=cfg.pagerank_max_iter,
                 hits_max_iter=cfg.hits_max_iter)


def _stage_reputation(cfg: RunConfig, paths: dict) -> None:
    score_reputation(cfg.verdicts, cfg.observations, paths["reputation.tsv"],
                     tau=cfg.tau)


def _stage_dga(cfg: RunConfig, paths: dict) -> None:
    plds = read_table(paths["graph_nodes.tsv"], NODE_HEADER, (str, int, int))[0]
    score_names(plds, paths["dga.tsv"])


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


def _stage_fits(cfg: RunConfig, paths: dict) -> None:
    metrics = read_metrics(paths["metrics.tsv"])
    rep = read_reputation(paths["reputation.tsv"])
    rows = rep.rows(metrics.plds)
    # a PLD with no reputation row is in neither population
    clean, malicious = rows >= 0, np.zeros(len(rows), dtype=bool)
    malicious[clean] = rep.malicious[rows[clean]]
    clean &= ~malicious
    units = []
    for feature in cfg.fit_features:
        vals = metric_column(metrics, feature)
        series = {"all": vals, "clean": vals[clean], "malicious": vals[malicious]}
        for population, pop_vals in series.items():
            data = _subsample_sorted(pop_vals, cfg.fit_max_n)
            units.append((feature, population, data, cfg.fit_restarts))
    if cfg.workers > 1 and len(units) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_fit_unit, units))
    else:
        results = [_fit_unit(u) for u in units]
    report: dict = {"features": {}}
    for feature, population, payload in results:
        report["features"].setdefault(feature, {})[population] = payload
    write_json(report, paths["fits.json"])


def _stage_cooccur(cfg: RunConfig, paths: dict) -> None:
    build_cooccur(cfg.verdicts, cfg.observations, paths["cooccur_edges.tsv"],
                  paths["cooccur_sets.tsv"], tau=cfg.tau)


def _stage_mdn(cfg: RunConfig, paths: dict) -> None:
    g = read_cooccurrence(paths["cooccur_sets.tsv"])
    write_json({"components": mdn_components(g)}, paths["mdns.json"])


def _stage_features(cfg: RunConfig, paths: dict) -> None:
    assemble_feature_table(paths["metrics.tsv"], paths["reputation.tsv"],
                           paths["dga.tsv"], paths["features.tsv"],
                           alexa=cfg.alexa, feature_set=cfg.feature_set)


def _stage_train(cfg: RunConfig, paths: dict) -> None:
    res, payload = train_classifiers(
        paths["features.tsv"], paths["graph_nodes.tsv"], paths["graph_edges.tsv"],
        paths["model.json"], paths["model_stacked.json"], seed=cfg.split_seed,
        l2=cfg.l2, threshold=cfg.threshold, epochs=cfg.epochs)
    payload.update(feature_set=cfg.feature_set,
                   split={"train": len(res.plan.train), "test": len(res.plan.test),
                          "validation": len(res.plan.validation),
                          "seed": cfg.split_seed})
    write_json(payload, paths["eval.json"])


STAGES: tuple[Stage, ...] = (
    Stage("build-graph", ("strict_hosts",),
          lambda cfg, p: [cfg.edges, cfg.psl],
          ("graph_nodes.tsv", "graph_edges.tsv"), _stage_build_graph),
    Stage("metrics", ("damping", "pagerank_max_iter", "hits_max_iter"),
          lambda cfg, p: [p["graph_nodes.tsv"], p["graph_edges.tsv"]],
          ("metrics.tsv",), _stage_metrics),
    Stage("reputation", ("tau",),
          lambda cfg, p: [cfg.verdicts, cfg.observations],
          ("reputation.tsv",), _stage_reputation),
    Stage("dga", (),
          lambda cfg, p: [p["graph_nodes.tsv"]],
          ("dga.tsv",), _stage_dga),
    Stage("fits", ("fit_features", "fit_max_n", "fit_restarts"),
          lambda cfg, p: [p["metrics.tsv"], p["reputation.tsv"]],
          ("fits.json",), _stage_fits),
    Stage("cooccur", ("tau",),
          lambda cfg, p: [cfg.verdicts, cfg.observations],
          ("cooccur_edges.tsv", "cooccur_sets.tsv"), _stage_cooccur),
    Stage("mdn", (),
          lambda cfg, p: [p["cooccur_sets.tsv"]],
          ("mdns.json",), _stage_mdn),
    Stage("features", ("feature_set",),
          lambda cfg, p: ([p["metrics.tsv"], p["reputation.tsv"], p["dga.tsv"]]
                          + ([cfg.alexa] if cfg.alexa else [])),
          ("features.tsv",), _stage_features),
    Stage("train", ("split_seed", "threshold", "l2", "epochs", "feature_set"),
          lambda cfg, p: [p["features.tsv"], p["graph_nodes.tsv"],
                          p["graph_edges.tsv"]],
          ("model.json", "model_stacked.json", "eval.json"), _stage_train),
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
        input_paths = stage.inputs(cfg, paths)
        in_hashes = {f"{i}:{os.path.basename(p)}": sha(p)
                     for i, p in enumerate(input_paths)}
        stage_cfg = _config_slice(cfg, stage.config_keys)
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
            stage.run(cfg, paths)
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
