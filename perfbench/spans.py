"""Spans and counters around webmal's public functions, installed from outside.

The tracer wraps module attributes at run time; it never edits the package.
A function imported by name into another module (``from .graph import
build_from_file``) is bound in both namespaces, so every binding of the same
object inside ``webmal.*`` is replaced by one wrapper.

Each span has a metric name and a layer. Inclusive seconds go to the metric;
self time (duration minus the time of spans nested inside it) goes to the
layer, per phase, so layer shares of a phase add up to at most one. A span
whose module or function no longer exists is listed in ``missing`` and the
run goes on without it.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    metric: str                     # metric that receives inclusive seconds
    layer: str                      # layer that receives self seconds
    module: str
    attr: str
    timed: bool = True              # False: count calls only, no clock reads
    on_result: Callable | None = None   # (tracer, result, args, kwargs)
    name_of: Callable | None = None     # (args, kwargs) -> metric name


def _count(metric: str, value) -> Callable:
    def record(tr: "Tracer", result, args, kwargs) -> None:
        tr.counts[metric] += value(result, args, kwargs)
    return record


# webmal.heavytail.FAMILY_ORDER, named here so the parent process that
# reads the metrics need not import webmal
FAMILIES = ("power_law", "trunc_power_law", "exponential",
            "stretched_exponential", "lognormal", "lognormal_positive")


def _xmin_metric(args, kwargs) -> str:
    family = kwargs.get("family", args[1] if len(args) > 1 else "?")
    return f"heavytail.xmin_s.{family}"


def _hashed_bytes(tr: "Tracer", result, args, kwargs) -> None:
    tr.counts["pipeline.hash_bytes"] += os.path.getsize(args[0])


def _stages(tr: "Tracer", result, args, kwargs) -> None:
    tr.counts["pipeline.stages_run"] += len(result.executed)
    tr.counts["pipeline.stages_skipped"] += len(result.skipped)


# counters filled by the on_result hooks above and by the minimize wrapper
COUNTS = ("graph.rows", "graph.read_calls", "metrics.pagerank_iters",
          "metrics.hits_iters", "mdn.pairs", "mdn.components", "dga.names",
          "predict.gd_epochs", "heavytail.nm_runs", "heavytail.objective_evals",
          "pipeline.stages_run", "pipeline.stages_skipped")

SPANS: tuple[Span, ...] = (
    Span("pipeline.run_s", "pipeline", "webmal.pipeline", "run_pipeline",
         on_result=_stages),
    Span("pipeline.hash_s", "pipeline.hash", "webmal.pipeline", "file_sha256",
         on_result=_hashed_bytes),
    Span("heavytail.select_s", "heavytail", "webmal.heavytail.fitting",
         "select_candidates"),
    Span("heavytail.xmin_s", "heavytail", "webmal.heavytail.fitting",
         "estimate_xmin", name_of=_xmin_metric),
    Span("heavytail.compare_s", "heavytail", "webmal.heavytail.fitting", "compare"),
    Span("heavytail.mle_calls", "heavytail", "webmal.heavytail.fitting", "mle_fit",
         timed=False),
    Span("psl.pld_lookups", "psl", "webmal.graph", "pld_of_host", timed=False),
    Span("graph.ingest_s", "graph", "webmal.graph", "build_from_file",
         on_result=_count("graph.rows",
                          lambda g, a, k: g.ingested_rows + g.skipped_rows)),
    Span("graph.write_s", "graph", "webmal.graph", "write_graph"),
    Span("graph.read_s", "graph", "webmal.graph", "read_graph",
         on_result=_count("graph.read_calls", lambda r, a, k: 1)),
    Span("metrics.compute_s", "metrics", "webmal.metrics", "compute_node_metrics"),
    Span("metrics.triangles_s", "metrics", "webmal.metrics", "triangle_counts"),
    Span("metrics.pagerank_s", "metrics", "webmal.metrics", "pagerank",
         on_result=_count("metrics.pagerank_iters", lambda r, a, k: r.iterations)),
    Span("metrics.hits_s", "metrics", "webmal.metrics", "hits",
         on_result=_count("metrics.hits_iters", lambda r, a, k: r.iterations)),
    Span("metrics.components_s", "metrics", "webmal.metrics", "connected_components"),
    Span("metrics.write_s", "metrics", "webmal.metrics", "write_metrics"),
    Span("metrics.read_s", "metrics", "webmal.metrics", "read_metrics"),
    Span("reputation.read_s", "reputation", "webmal.reputation", "read_verdicts"),
    Span("reputation.read_s", "reputation", "webmal.reputation", "read_observations"),
    Span("reputation.score_s", "reputation", "webmal.reputation", "score_plds"),
    Span("reputation.file_sets_s", "reputation", "webmal.reputation",
         "malicious_file_sets"),
    Span("reputation.write_s", "reputation", "webmal.reputation", "write_reputation"),
    Span("mdn.cooccur_s", "mdn", "webmal.mdn", "build_cooccurrence",
         on_result=_count("mdn.pairs", lambda g, a, k: g.n_edges)),
    Span("mdn.extract_s", "mdn", "webmal.mdn", "extract_mdns",
         on_result=_count("mdn.components", lambda r, a, k: len(r))),
    Span("mdn.write_s", "mdn", "webmal.mdn", "write_cooccurrence"),
    Span("mdn.read_s", "mdn", "webmal.mdn", "read_cooccurrence"),
    Span("dga.score_s", "dga", "webmal.dga", "score_pld_name",
         on_result=_count("dga.names", lambda r, a, k: 1)),
    Span("predict.assemble_s", "predict", "webmal.predict", "assemble_features"),
    Span("predict.train_s", "predict", "webmal.predict", "train_logreg",
         on_result=_count("predict.gd_epochs", lambda m, a, k: m.epochs_run)),
    Span("predict.stack_s", "predict", "webmal.predict", "stacked_feature"),
)


class Tracer:
    """Collects span seconds, counters and per-phase layer self time."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.layer_self: dict[tuple[str, str], float] = defaultdict(float)
        self.missing: list[str] = []
        self.phase = ""
        self._stack: list[list[float]] = []   # child seconds of open spans

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn: Callable, span: Span) -> Callable:
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._stack.pop()
                name = span.name_of(args, kwargs) if span.name_of else span.metric
                self.seconds[name] += dt
                self.layer_self[(self.phase, span.layer)] += dt - child[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if span.on_result is not None:
                span.on_result(self, result, args, kwargs)
            return result
        return wrapper

    def _counted(self, fn: Callable, span: Span) -> Callable:
        counts = self.counts
        metric = span.metric

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _minimize(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(fun, x0, *args, **kwargs):
            counts["heavytail.nm_runs"] += 1

            def objective(*a):
                counts["heavytail.objective_evals"] += 1
                return fun(*a)
            return fn(objective, x0, *args, **kwargs)
        return wrapper

    def _stage(self, fn: Callable, name: str) -> Callable:
        return self._timed(fn, Span(f"pipeline.stage_s.{name}", "pipeline", "", ""))

    # -- installation -----------------------------------------------------

    def install(self, spans: tuple[Span, ...] = SPANS) -> None:
        for span in spans:
            wrap = self._timed if span.timed else self._counted
            if not _rebind(span.module, span.attr, lambda fn: wrap(fn, span)):
                self.missing.append(f"{span.module}.{span.attr}")
        if not _rebind("webmal.heavytail.fitting", "minimize", self._minimize):
            self.missing.append("webmal.heavytail.fitting.minimize")
        try:
            stages = importlib.import_module("webmal.pipeline").STAGES
        except (ImportError, AttributeError):
            self.missing.append("webmal.pipeline.STAGES")
            return
        for stage in stages:
            stage.run = self._stage(stage.run, stage.name)


def _rebind(module: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace every ``webmal.*`` binding of module.attr by one wrapper."""
    try:
        original = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return False
    wrapper = make(original)
    for name, mod in list(sys.modules.items()):
        if (name == "webmal" or name.startswith("webmal.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)
    return True
