"""webmal benchmark: planted workloads driven through the ``webmal`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``. Each run plants the workload's corpus from the seed (set-up, timed
several times), then repeats the workload's timed operations, each
repetition in a fresh child process and output directory, until ``--seconds``
are spent. Every operation's outputs are checked against the planted ground
truth. Load model: a closed loop, one client, one operation at a time.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``). The line before it is a record with the run's stamp
(nproc, Python/numpy/scipy versions, workers, seed), every repetition's raw
numbers and every check failure. ``--smoke`` plants a small corpus and runs
the same code path in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import COUNTS, FAMILIES, SPANS
from workloads import STAGES, WORKLOADS, Context, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
LAYERS = tuple(dict.fromkeys(span.layer for span in SPANS if span.timed))

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span in SPANS:
        if span.name_of is None:
            units[span.metric] = "s" if span.timed else "count"
    for family in FAMILIES:
        units[f"heavytail.xmin_s.{family}"] = "s"
    for stage in STAGES:
        units[f"pipeline.stage_s.{stage}"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units.update({
        "pipeline.hash_mb": "MB",
        "pipeline.resume_s": "s", "pipeline.rerun_s": "s",
        "predict.stacked_auc": "ratio",
        "synthlab.plant_s": "s", "synthlab.write_s": "s",
        "trace.traced_wall_s": "s", "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s", "trace.missing_spans": "count",
        "share.resume.pipeline.hash": "ratio", "share.rerun.predict": "ratio",
    })
    for layer in LAYERS:
        units[f"share.{layer}"] = "ratio"
    return units


class BenchError(Exception):
    """The harness itself failed (a child crashed or timed out)."""


class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, work: str):
        self.wl, self.seed, self.seconds = wl, seed, seconds
        self.trace, self.smoke, self.work = trace, smoke, work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.jobs = 0

    def child(self, job: dict) -> dict:
        self.jobs += 1
        job_path = os.path.join(self.work, f"job{self.jobs}.json")
        job["result"] = os.path.join(self.work, f"result{self.jobs}.json")
        job["src"] = SRC
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{job['mode']} child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(job["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def setup(self) -> dict:
        corpus = self.wl.smoke_corpus if self.smoke else self.wl.corpus
        report = self.child({"mode": "setup", "seed": self.seed, "corpus": corpus,
                             "repeats": 2 if self.smoke else SETUP_REPEATS,
                             "out": os.path.join(self.work, "corpus")})
        # flush the corpus files now, not while a repetition is timed
        os.sync()
        with open(report["paths"]["truth"], encoding="utf-8") as fh:
            self.truth = json.load(fh)
        self.paths = report["paths"]
        return report

    def repetition(self, k: int, traced: bool) -> dict:
        rep_dir = os.path.join(self.work, f"rep{k}")
        os.makedirs(rep_dir)
        config = None
        if self.wl.config:
            config = os.path.join(rep_dir, "config.json")
            cfg = {key: self.paths[key] for key in
                   ("edges", "psl", "verdicts", "observations", "alexa")}
            cfg.update(self.wl.config, out_dir=rep_dir)
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        # phases outside wall_s run in the first repetition and throughout
        # traced runs; later untraced repetitions time only wall_s
        wl_phases = [p for p in self.wl.phases if p.in_wall or self.trace or k == 0]
        phases = [{"name": p.name, "argv": p.argv(self.paths, rep_dir),
                   "keep": os.path.join(rep_dir, p.keep) if p.keep else None}
                  for p in wl_phases]
        report = self.child({"mode": "ops", "phases": phases, "trace": traced,
                             "config": config})
        for phase, res in zip(wl_phases, report["phases"]):
            self.attempted += 1
            if res["code"] != 0:
                fails = [f"exit {res['code']}: {res['stdout'].strip()[-500:]}"]
            else:
                ctx = Context(rep_dir, self.truth, res["stdout"])
                try:
                    fails = phase.check(ctx)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    fails = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            self.failed += bool(fails)
            self.failures += [f"rep {k} {phase.name}: {msg}" for msg in fails]
        shutil.rmtree(rep_dir)
        report["traced"] = traced
        report["wall_s"] = sum(res["seconds"] for phase, res
                               in zip(wl_phases, report["phases"]) if phase.in_wall)
        return report

    def measure(self) -> list[dict]:
        """Repeat until the time budget is spent. Traced runs alternate
        traced and untraced repetitions, at least two traced and one not."""
        reps: list[dict] = []
        start = time.perf_counter()
        last = 0.0
        while True:
            traced = self.trace and len(reps) % 2 == 0
            t0 = time.perf_counter()
            reps.append(self.repetition(len(reps), traced))
            last = time.perf_counter() - t0
            n_traced = sum(r["traced"] for r in reps)
            done = len(reps) - n_traced >= 1 and (not self.trace or n_traced >= 2)
            if done and time.perf_counter() - start + last > self.seconds:
                return reps


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(setup: dict, reps: list[dict]) -> dict[str, float]:
    plain = [r for r in reps if not r["traced"]]
    return {
        "setup_s": _median([p + w for p, w in zip(setup["plant_s"], setup["write_s"])]),
        "wall_s": _median([r["wall_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }


def per_layer(wl: Workload, setup: dict, reps: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions, plus count mismatches."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    wall_phases = {p.name for p in wl.phases if p.in_wall}
    values: dict[str, float] = dict.fromkeys(per_layer_units(), 0.0)

    for name in {n for r in traced for n in r["trace"]["seconds"]}:
        values[name] = _median([r["trace"]["seconds"].get(name, 0.0) for r in traced])
    counts = [r["trace"]["counts"] for r in traced]
    mismatched = sorted(n for n in set().union(*counts)
                        if len({c.get(n, 0) for c in counts}) > 1)
    values.update(counts[0])
    values["pipeline.hash_mb"] = values.pop("pipeline.hash_bytes", 0) / 1e6

    def share(rep: dict, layers: set[str], phases: set[str]) -> float:
        total = sum(p["seconds"] for p in rep["phases"] if p["name"] in phases)
        busy = sum(s for phase, layer, s in rep["trace"]["layer_self"]
                   if phase in phases and layer in layers)
        return busy / total if total > 0 else 0.0

    for layer in LAYERS:
        values[f"share.{layer}"] = _median([share(r, {layer}, wall_phases)
                                            for r in traced])
    # the two crawl reruns; 0 on workloads without such phases
    values["share.resume.pipeline.hash"] = _median(
        [share(r, {"pipeline.hash"}, {"resume"}) for r in traced])
    values["share.rerun.predict"] = _median(
        [share(r, {"predict"}, {"rerun"}) for r in traced])

    def phase_seconds(name: str) -> float:
        return _median([p["seconds"] for r in plain for p in r["phases"]
                        if p["name"] == name])

    values["pipeline.resume_s"] = phase_seconds("resume")
    values["pipeline.rerun_s"] = phase_seconds("rerun")
    aucs = [p["kept"]["stacked"]["AUC"] for r in reps for p in r["phases"]
            if "kept" in p]
    values["predict.stacked_auc"] = _median(aucs)
    values["synthlab.plant_s"] = _median(setup["plant_s"])
    values["synthlab.write_s"] = _median(setup["write_s"])
    values["trace.traced_wall_s"] = _median([r["wall_s"] for r in traced])
    values["trace.untraced_wall_s"] = _median([r["wall_s"] for r in plain])
    values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                  - values["trace.untraced_wall_s"])
    values["trace.missing_spans"] = len(traced[0]["trace"]["missing"])
    return values, mismatched


def stamp(seed: int, setup: dict, reps: list[dict]) -> dict:
    workers = sorted({r["workers"] for r in reps if "workers" in r})
    return {"seed": seed, "nproc": os.cpu_count(), **setup["versions"],
            "workers": workers[0] if len(workers) == 1 else workers or None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small corpus, same code path")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "webmal", "__init__.py")):
        print(f"perfbench: no webmal sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(wl, args.seed, args.seconds, bool(args.trace), args.smoke, work)
    try:
        setup = bench.setup()
        reps = bench.measure()
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    mismatched: list[str] = []
    if args.trace:
        values, mismatched = per_layer(wl, setup, reps)
        units = per_layer_units()
    else:
        values, units = end_to_end(setup, reps), END_TO_END
    failures = bench.failures + [f"count {name} differs between traced repetitions"
                                 for name in mismatched]
    record = {"workload": wl.name, "smoke": args.smoke,
              "stamp": stamp(args.seed, setup, reps),
              "edge_rows": setup["edge_rows"],
              "setup": {k: setup[k] for k in ("plant_s", "write_s")},
              "repetitions": [{"traced": r["traced"], "wall_s": r["wall_s"],
                               "peak_rss_mb": r["peak_rss_mb"],
                               "phases": {p["name"]: p["seconds"] for p in r["phases"]},
                               "cpu_s": {p["name"]: p["cpu_s"] for p in r["phases"]}}
                              for r in reps],
              "failures": failures,
              "missing_spans": reps[0]["trace"]["missing"] if args.trace else [],
              "error_rate": bench.failed / bench.attempted}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
