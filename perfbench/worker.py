"""Child process of the benchmark: plants a corpus, or runs timed operations.

    python3 perfbench/worker.py JOB.json

The job file names the mode. ``setup`` plants the corpus several times and
reports each plant and write time. ``ops`` runs a list of ``webmal``
command lines in this process through ``webmal.cli.main``, optionally under
the tracer. It reports each operation's exit code, seconds, captured output
and any output file the operation asked to keep, plus the process's peak
RSS. One process per repetition keeps peak RSS a property of that
repetition alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import platform
import resource
import sys
import time


def _import_webmal(src: str):
    sys.path.insert(0, src)
    import webmal
    if not os.path.realpath(webmal.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"webmal imported from {webmal.__file__}, not from {src}")
    return webmal


def setup(job: dict) -> dict:
    _import_webmal(job["src"])
    import numpy
    import scipy
    from webmal.synthlab import ClassPair, default_spec, plant_crawl, write_corpus

    overrides = dict(job["corpus"])
    xmin = overrides.pop("xmin", {})
    overrides["components"] = tuple(overrides.get("components", ()))
    spec = default_spec(job["seed"], **overrides)
    if xmin:
        tails = {}
        for feature, x_min in xmin.items():
            pair = getattr(spec, feature)
            tails[feature] = ClassPair(
                clean=dataclasses.replace(pair.clean, x_min=float(x_min)),
                malicious=dataclasses.replace(pair.malicious, x_min=float(x_min)))
        spec = dataclasses.replace(spec, **tails)
    plant_s, write_s = [], []
    for _ in range(job["repeats"]):
        t0 = time.perf_counter()
        corpus = plant_crawl(spec)
        t1 = time.perf_counter()
        paths = write_corpus(corpus, job["out"])
        t2 = time.perf_counter()
        plant_s.append(t1 - t0)
        write_s.append(t2 - t1)
    return {"plant_s": plant_s, "write_s": write_s, "paths": paths,
            "edge_rows": len(corpus.edges),
            "versions": {"python": platform.python_version(),
                         "numpy": numpy.__version__, "scipy": scipy.__version__}}


def ops(job: dict) -> dict:
    webmal = _import_webmal(job["src"])
    # import every webmal module before timing, so that no operation pays
    # for compiling a module the CLI imports lazily, and before wrapping, so
    # that the tracer finds names bound by `from ... import` in each namespace
    for mod in pkgutil.walk_packages(webmal.__path__, "webmal."):
        if not mod.name.endswith(".__main__"):   # importing it would run the CLI
            importlib.import_module(mod.name)
    from webmal.pipeline import RunConfig

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for phase in job["phases"]:
        if tracer is not None:
            tracer.phase = phase["name"]
        out = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = webmal.cli.main(phase["argv"])
        except SystemExit as exc:        # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:         # a traceback the CLI let escape
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        result = {"name": phase["name"], "code": code, "seconds": seconds,
                  "cpu_s": cpu_s,
                  "stdout": out.getvalue()}
        # a later phase may overwrite this output, so read it now
        if phase.get("keep") and os.path.exists(phase["keep"]):
            with open(phase["keep"], encoding="utf-8") as fh:
                result["kept"] = json.load(fh)
        results.append(result)
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {"phases": results, "peak_rss_mb": kb / 1024.0}
    if job.get("config"):
        report["workers"] = RunConfig.from_json(job["config"]).workers
    if tracer is not None:
        report["trace"] = {
            "seconds": dict(tracer.seconds), "counts": dict(tracer.counts),
            "layer_self": [[p, layer, s] for (p, layer), s in tracer.layer_self.items()],
            "missing": tracer.missing}
    return report


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    report = {"setup": setup, "ops": ops}[job["mode"]](job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
