"""Staged analysis pipeline with content-hash resumability.

Each stage reads files, writes files into the run directory, and records a
manifest entry holding the sha256 of every input it read plus the slice of
the configuration it (or any upstream stage) depends on. A stage is skipped
when that entry still matches and its outputs exist, so a rerun with nothing
changed touches nothing, while changing e.g. the detection threshold reruns
reputation scoring and everything downstream of it but not the graph build.

Reports carry no timestamps and all JSON is emitted with sorted keys, so two
runs from identical inputs and configuration are byte-identical.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .binning import fibonacci_bins
from .dga import classify_dga, load_default_table, score_pld_name
from .errors import ConfigError, EmptyInput, WebmalError
from .graph import build_from_file, read_graph, write_graph
from .heavytail import select_candidates
from .mdn import build_cooccurrence, components_to_json, extract_mdns, write_cooccurrence
from .predict import (assemble_features, feature_importance, read_alexa,
                      read_features, run_stacked_experiment, write_features,
                      write_model)
from .psl import load_psl
from .reputation import (malicious_file_sets, read_observations,
                         read_reputation, read_verdicts, score_plds,
                         write_reputation)

WORKERS_ENV = "WEBMAL_WORKERS"

# metrics-table column behind each fittable feature name
FIT_COLUMNS = {"num_pages": "pages", "indegree": "indeg", "outdeg": "outdeg",
               "outdegree": "outdeg", "total_degree": "total",
               "triangles": "triangles"}


def _env_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1")
    return n


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
    fit_min_points: int = 50
    split_seed: int = 0
    feature_set: str = "all"
    threshold: float = 0.5
    l2: float = 0.01
    epochs: int = 20_000
    emit_tsv: bool = False
    workers: int = field(default_factory=_env_workers)

    # fields that shape outputs; paths, tsv mirroring, and worker count
    # deliberately excluded so neither relocation nor parallelism changes
    # a report byte
    _HASHED = ("tau", "strict_hosts", "damping", "pagerank_max_iter",
               "hits_max_iter", "fit_features", "fit_max_n", "fit_restarts",
               "fit_min_points", "split_seed", "feature_set", "threshold",
               "l2", "epochs")

    def validate(self) -> None:
        for name in ("edges", "psl", "verdicts", "observations"):
            path = getattr(self, name)
            if not isinstance(path, str) or not os.path.exists(path):
                raise ConfigError(f"input path for {name!r} does not exist: {path!r}")
        if self.alexa is not None and not os.path.exists(self.alexa):
            raise ConfigError(f"alexa path does not exist: {self.alexa!r}")
        if not (0.0 <= self.tau < 1.0):
            raise ConfigError("tau must be in [0,1)")
        if not (0.0 < self.damping < 1.0):
            raise ConfigError("damping must be in (0,1)")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError("threshold must be in [0,1]")
        from .predict import FEATURE_SETS
        if self.feature_set not in FEATURE_SETS:
            raise ConfigError(f"unknown feature set {self.feature_set!r}")
        bad = [f for f in self.fit_features if f not in FIT_COLUMNS]
        if bad:
            raise ConfigError(f"cannot fit non-count feature {bad[0]!r}")
        if self.fit_max_n < self.fit_min_points:
            raise ConfigError("fit_max_n must be >= fit_min_points")
        for name in ("pagerank_max_iter", "hits_max_iter", "fit_restarts",
                     "epochs", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.l2 < 0:
            raise ConfigError("l2 must be nonnegative")

    def hashed_dict(self) -> dict:
        out = {}
        for name in self._HASHED:
            val = getattr(self, name)
            out[name] = list(val) if isinstance(val, tuple) else val
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.hashed_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        if "fit_features" in d:
            d = dict(d, fit_features=tuple(d["fit_features"]))
        try:
            cfg = cls(**d)
        except TypeError as exc:
            raise ConfigError(f"incomplete config: {exc}") from exc
        return cfg

    @classmethod
    def from_json(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
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


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


@dataclass
class Stage:
    name: str
    config_keys: tuple[str, ...]
    deps: tuple[str, ...]
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
# stage bodies; `paths` maps output names -> absolute paths for the run dir

def _stage_build_graph(cfg: RunConfig, paths: dict) -> None:
    rules = load_psl(cfg.psl)
    g = build_from_file(cfg.edges, rules, strict=cfg.strict_hosts)
    write_graph(g, paths["graph_nodes.tsv"], paths["graph_edges.tsv"])


def _stage_metrics(cfg: RunConfig, paths: dict) -> None:
    from .metrics import compute_node_metrics, write_metrics
    g = read_graph(paths["graph_nodes.tsv"], paths["graph_edges.tsv"])
    m = compute_node_metrics(g, damping=cfg.damping,
                             pagerank_max_iter=cfg.pagerank_max_iter,
                             hits_max_iter=cfg.hits_max_iter)
    write_metrics(m, paths["metrics.tsv"])


def _stage_reputation(cfg: RunConfig, paths: dict) -> None:
    verdicts = read_verdicts(cfg.verdicts)
    profiles = read_observations(cfg.observations)
    rows = score_plds(profiles, verdicts, tau=cfg.tau)
    write_reputation(rows, paths["reputation.tsv"])


def _stage_dga(cfg: RunConfig, paths: dict) -> None:
    table = load_default_table()
    with open(paths["graph_nodes.tsv"], encoding="utf-8") as fh:
        fh.readline()
        plds = [line.split("\t", 1)[0] for line in fh if line.strip()]
    with open(paths["dga.tsv"], "w", encoding="utf-8") as fh:
        fh.write("pld\tscore\tverdict\n")
        for pld in plds:
            s = score_pld_name(pld, table)
            fh.write(f"{pld}\t{s!r}\t{classify_dga(s)}\n")


def _read_dga_scores(path: str) -> dict[str, float]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) >= 2:
                out[parts[0]] = float(parts[1])
    return out


def _subsample_sorted(values: np.ndarray, cap: int) -> np.ndarray:
    xs = np.sort(values)
    if len(xs) <= cap:
        return xs
    idx = np.linspace(0, len(xs) - 1, cap).round().astype(int)
    return xs[idx]


def _fit_unit(args: tuple) -> tuple[str, str, dict]:
    feature, population, values, restarts, min_points = args
    data = np.asarray(values, dtype=float)
    out: dict = {"n": int(len(data))}
    try:
        cs = select_candidates(data, restarts=restarts, min_points=min_points)
        out["selection"] = cs.selection
        out["flag"] = cs.selection_flag
        out["candidates"] = list(cs.candidates)
        out["eliminated_by"] = {k: list(v) for k, v in cs.eliminated_by.items()}
        out["fits"] = {
            fam: {"params": fr.params, "x_min": fr.x_min, "D": fr.D,
                  "loglik": fr.loglik, "n_tail": fr.n_tail}
            for fam, fr in cs.fits.items() if fr is not None}
    except WebmalError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    try:
        out["histogram"] = fibonacci_bins(data).to_dict()
    except WebmalError as exc:
        out["histogram"] = {"error": f"{type(exc).__name__}: {exc}"}
    return feature, population, out


def _stage_fits(cfg: RunConfig, paths: dict) -> None:
    from .metrics import read_metrics
    mrows = read_metrics(paths["metrics.tsv"])
    reps = read_reputation(paths["reputation.tsv"])
    label = {r.pld: r.dichotomy for r in reps}
    units = []
    for feature in cfg.fit_features:
        col = FIT_COLUMNS[feature]
        series = {"all": [], "clean": [], "malicious": []}
        for pld, row in mrows.items():
            v = float(row[col])
            series["all"].append(v)
            pop = label.get(pld)
            if pop == "malicious":
                series["malicious"].append(v)
            elif pop == "clean":
                series["clean"].append(v)
        for population, vals in series.items():
            data = _subsample_sorted(np.asarray(vals, dtype=float), cfg.fit_max_n)
            units.append((feature, population, data, cfg.fit_restarts,
                          cfg.fit_min_points))
    if cfg.workers > 1 and len(units) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_fit_unit, units))
    else:
        results = [_fit_unit(u) for u in units]
    report: dict = {"config_hash": cfg.config_hash(), "features": {}}
    for feature, population, payload in results:
        report["features"].setdefault(feature, {})[population] = payload
    _write_json(report, paths["fits.json"])


def _stage_cooccur(cfg: RunConfig, paths: dict) -> None:
    verdicts = read_verdicts(cfg.verdicts)
    profiles = read_observations(cfg.observations)
    sets = malicious_file_sets(profiles, verdicts, tau=cfg.tau)
    if not sets:
        open(paths["cooccur_edges.tsv"], "w").close()
        open(paths["cooccur_sets.tsv"], "w").close()
        return
    g = build_cooccurrence(sets)
    write_cooccurrence(g, paths["cooccur_edges.tsv"], paths["cooccur_sets.tsv"])


def _stage_mdn(cfg: RunConfig, paths: dict) -> None:
    from .mdn import read_cooccurrence
    if os.path.getsize(paths["cooccur_sets.tsv"]) == 0:
        _write_json({"config_hash": cfg.config_hash(), "components": []},
                    paths["mdns.json"])
        return
    g = read_cooccurrence(paths["cooccur_edges.tsv"], paths["cooccur_sets.tsv"])
    comps = extract_mdns(g)
    payload = json.loads(components_to_json(comps))
    _write_json({"config_hash": cfg.config_hash(), "components": payload},
                paths["mdns.json"])


def _stage_features(cfg: RunConfig, paths: dict) -> None:
    from .metrics import read_metrics
    mrows = read_metrics(paths["metrics.tsv"])
    reps = read_reputation(paths["reputation.tsv"])
    dga_scores = _read_dga_scores(paths["dga.tsv"])
    alexa = read_alexa(cfg.alexa) if cfg.alexa else {}
    fm = assemble_features(mrows, reps, dga_scores, alexa, cfg.feature_set)
    write_features(fm, paths["features.tsv"])


def _stage_train(cfg: RunConfig, paths: dict) -> None:
    fm = read_features(paths["features.tsv"])
    g = read_graph(paths["graph_nodes.tsv"], paths["graph_edges.tsv"])
    res = run_stacked_experiment(fm, g, seed=cfg.split_seed, l2=cfg.l2,
                                 threshold=cfg.threshold, epochs=cfg.epochs)
    write_model(res.base_model, paths["model.json"])
    write_model(res.stacked_model, paths["model_stacked.json"])
    payload = {
        "config_hash": cfg.config_hash(),
        "feature_set": cfg.feature_set,
        "base": res.base_report.to_dict(),
        "stacked": res.stacked_report.to_dict(),
        "importance_base": [[n, w] for n, w in feature_importance(res.base_model)],
        "importance_stacked": [[n, w] for n, w in feature_importance(res.stacked_model)],
        "split": {"train": len(res.plan.train), "test": len(res.plan.test),
                  "validation": len(res.plan.validation), "seed": cfg.split_seed},
    }
    _write_json(payload, paths["eval.json"])


STAGES: tuple[Stage, ...] = (
    Stage("build-graph", ("strict_hosts",), (),
          lambda cfg, p: [cfg.edges, cfg.psl],
          ("graph_nodes.tsv", "graph_edges.tsv"), _stage_build_graph),
    Stage("metrics", ("damping", "pagerank_max_iter", "hits_max_iter"),
          ("build-graph",),
          lambda cfg, p: [p["graph_nodes.tsv"], p["graph_edges.tsv"]],
          ("metrics.tsv",), _stage_metrics),
    Stage("reputation", ("tau",), (),
          lambda cfg, p: [cfg.verdicts, cfg.observations],
          ("reputation.tsv",), _stage_reputation),
    Stage("dga", (), ("build-graph",),
          lambda cfg, p: [p["graph_nodes.tsv"]],
          ("dga.tsv",), _stage_dga),
    Stage("fits", ("fit_features", "fit_max_n", "fit_restarts", "fit_min_points"),
          ("metrics", "reputation"),
          lambda cfg, p: [p["metrics.tsv"], p["reputation.tsv"]],
          ("fits.json",), _stage_fits),
    Stage("cooccur", ("tau",), ("reputation",),
          lambda cfg, p: [cfg.verdicts, cfg.observations],
          ("cooccur_edges.tsv", "cooccur_sets.tsv"), _stage_cooccur),
    Stage("mdn", (), ("cooccur",),
          lambda cfg, p: [p["cooccur_edges.tsv"], p["cooccur_sets.tsv"]],
          ("mdns.json",), _stage_mdn),
    Stage("features", ("feature_set",), ("metrics", "reputation", "dga"),
          lambda cfg, p: ([p["metrics.tsv"], p["reputation.tsv"], p["dga.tsv"]]
                          + ([cfg.alexa] if cfg.alexa else [])),
          ("features.tsv",), _stage_features),
    Stage("train", ("split_seed", "threshold", "l2", "epochs"),
          ("features", "build-graph"),
          lambda cfg, p: [p["features.tsv"], p["graph_nodes.tsv"],
                          p["graph_edges.tsv"]],
          ("model.json", "model_stacked.json", "eval.json"), _stage_train),
)

_STAGE_BY_NAME = {s.name: s for s in STAGES}


def _cumulative_config(cfg: RunConfig, stage: Stage) -> dict:
    """The stage's own config slice plus every ancestor's, so a change
    upstream invalidates the whole downstream chain."""
    keys: set[str] = set()
    frontier = [stage.name]
    while frontier:
        s = _STAGE_BY_NAME[frontier.pop()]
        keys.update(s.config_keys)
        frontier.extend(s.deps)
    out = {}
    for k in sorted(keys):
        v = getattr(cfg, k)
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def run_pipeline(cfg: RunConfig, log: Callable[[str], None] | None = None) -> RunResult:
    """Execute all stages, skipping any whose manifest entry still holds."""
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = {name: os.path.join(cfg.out_dir, name)
             for stage in STAGES for name in stage.outputs}
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    manifest: dict = {"stages": {}, "config_hash": cfg.config_hash()}
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                prev = json.load(fh)
            if isinstance(prev, dict) and isinstance(prev.get("stages"), dict):
                manifest["stages"] = prev["stages"]
        except (OSError, json.JSONDecodeError):
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
        stage_cfg = _cumulative_config(cfg, stage)
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
            _write_json(manifest, manifest_path)
            raise type(exc)(f"stage {stage.name}: {exc}") from exc
        for name in stage.outputs:
            hashes.pop(paths[name], None)
        manifest["stages"][stage.name] = {
            "status": "done",
            "inputs": in_hashes,
            "config": stage_cfg,
            "outputs": {name: sha(paths[name]) for name in stage.outputs},
        }
        executed.append(stage.name)
        if log:
            log(f"stage {stage.name}: done")
    _write_json(manifest, manifest_path)
    if cfg.emit_tsv:
        emit_tsv_reports(cfg.out_dir)
    return RunResult(out_dir=cfg.out_dir, manifest=manifest,
                     executed=executed, skipped=skipped)


# ---------------------------------------------------------------------------
# flat-table mirrors of the JSON reports

def emit_tsv_reports(out_dir: str) -> list[str]:
    written = []
    eval_path = os.path.join(out_dir, "eval.json")
    if os.path.exists(eval_path):
        with open(eval_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        path = os.path.join(out_dir, "eval.tsv")
        cols = ("AUC", "F1", "TP", "TN", "FP", "FN", "TPR", "TNR", "FPR",
                "FNR", "threshold")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("model\t" + "\t".join(cols) + "\n")
            for name in ("base", "stacked"):
                row = rep[name]
                fh.write(name + "\t" + "\t".join(repr(row[c]) if isinstance(row[c], float)
                                                 else str(row[c]) for c in cols) + "\n")
        written.append(path)
    fits_path = os.path.join(out_dir, "fits.json")
    if os.path.exists(fits_path):
        with open(fits_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        path = os.path.join(out_dir, "fits.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("feature\tpopulation\tn\tselection\tflag\tcandidates\n")
            for feature in sorted(rep.get("features", {})):
                for population in sorted(rep["features"][feature]):
                    u = rep["features"][feature][population]
                    fh.write(f"{feature}\t{population}\t{u.get('n', 0)}\t"
                             f"{u.get('selection')}\t{u.get('flag')}\t"
                             f"{','.join(u.get('candidates', []))}\n")
        written.append(path)
    mdn_path = os.path.join(out_dir, "mdns.json")
    if os.path.exists(mdn_path):
        with open(mdn_path, encoding="utf-8") as fh:
            rep = json.load(fh)
        path = os.path.join(out_dir, "mdns.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tsize\tshared_files\tmean_weight\tmembers\n")
            for c in rep.get("components", []):
                fh.write(f"{c['id']}\t{c['size']}\t{c['shared_files']}\t"
                         f"{c['mean_weight']!r}\t{','.join(c['members'])}\n")
        written.append(path)
    return written
