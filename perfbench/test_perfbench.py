"""Tests of the benchmark harness itself; the smoke runs take seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import Span, Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(WORKLOADS[workload].phases)
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_reports_every_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--smoke")
    res = _result(proc)
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert res["correct"], record["failures"]
    assert set(res["metrics"]) == set(run.per_layer_units())
    assert record["missing_spans"] == []
    assert sum(r["traced"] for r in record["repetitions"]) >= 2
    assert set(record["stamp"]) == {"seed", "nproc", "python", "numpy",
                                    "scipy", "workers"}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "crawl":
        assert m["heavytail.objective_evals"] > m["heavytail.nm_runs"] > 0
        assert m["pipeline.stages_run"] == 11 and m["pipeline.stages_skipped"] == 16
        assert m["graph.rows"] == record["edge_rows"]
        assert 0 < m["predict.stacked_auc"] <= 1
    else:
        assert m["mdn.components"] > 0 and m["graph.rows"] == 0


def test_missing_span_is_reported_not_fatal():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = Tracer()
    tracer.install((Span("graph.gone_s", "graph", "webmal.graph", "no_such_function"),
                    Span("gone.x_s", "gone", "webmal.no_such_module", "f")))
    assert tracer.missing == ["webmal.graph.no_such_function",
                              "webmal.no_such_module.f"]


def test_checks_catch_wrong_outputs(tmp_path):
    members = [["a.com", "b.com"], ["c.com"]]
    (tmp_path / "mdns.json").write_text(json.dumps(
        [{"members": m} for m in members]))
    ctx = Context(str(tmp_path), {"components": members}, "")
    cooccur = WORKLOADS["mdn-dense"].phases[1]
    assert cooccur.check(ctx) == []
    ctx.truth = {"components": [["a.com"], ["b.com"], ["c.com"]]}
    assert cooccur.check(ctx)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "crawl", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
