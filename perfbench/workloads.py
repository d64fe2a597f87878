"""Workload definitions: planted corpus, timed operations, correctness checks.

Every workload plants a corpus with ``webmal.synthlab.default_spec`` from the
run's seed and drives it through the ``webmal`` command line only. Sizes are
chosen so that one repetition of the timed operations takes 3 to 15 seconds
on a 2-core machine, which lets a run repeat them and report medians.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

STAGES = ("build-graph", "metrics", "reputation", "dga", "fits", "cooccur",
          "mdn", "features", "train")


@dataclass(frozen=True)
class Phase:
    name: str
    argv: Callable[[dict, str], list[str]]   # (corpus paths, rep dir) -> argv
    check: Callable[["Context"], list[str]]    # -> failure messages
    in_wall: bool = True                     # counted in wall_s
    keep: str | None = None                  # JSON output read right after


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict            # default_spec overrides; "xmin" resets tail x_min
    smoke_corpus: dict
    phases: tuple[Phase, ...]
    config: dict = field(default_factory=dict)   # `webmal run` config keys


@dataclass
class Context:
    """What a check may read: outputs, ground truth, captured stdout."""
    rep_dir: str
    truth: dict
    stdout: str

    def read_json(self, name: str):
        with open(os.path.join(self.rep_dir, name), encoding="utf-8") as fh:
            return json.load(fh)

    def read_tsv(self, name: str, header: bool = True) -> list[list[str]]:
        with open(os.path.join(self.rep_dir, name), encoding="utf-8") as fh:
            if header:
                fh.readline()
            return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# checks; each returns a list of failure messages, empty when correct

def _stage_lines(ctx: Context) -> tuple[set[str], set[str]]:
    done, skipped = set(), set()
    for line in ctx.stdout.splitlines():
        if line.startswith("stage ") and ": " in line:
            name, status = line[len("stage "):].split(": ", 1)
            (done if status.startswith("done") else skipped).add(name)
    return done, skipped


def _expect_stages(ctx: Context, run: set[str]) -> list[str]:
    done, skipped = _stage_lines(ctx)
    if done != run or skipped != set(STAGES) - run:
        return [f"stages run {sorted(done)}, skipped {sorted(skipped)}; "
                f"expected run {sorted(run)}"]
    return []


def _check_pages(ctx: Context, nodes: list[list[str]], col: int) -> list[str]:
    got = {row[0]: int(float(row[col])) for row in nodes}
    if got != ctx.truth["planted_pages"]:
        bad = sum(got.get(p) != n for p, n in ctx.truth["planted_pages"].items())
        return [f"page counts differ from planted pages for {bad} PLDs"]
    return []


def _check_indegree(ctx: Context, got: dict[str, int]) -> list[str]:
    want = {p: k + 1 for p, k in ctx.truth["planted_indegree"].items()}
    if got != want:
        bad = sum(got.get(p) != k for p, k in want.items())
        return [f"in-degree differs from planted in-degree + 1 for {bad} PLDs"]
    return []


def _check_mdns(ctx: Context, components: list[dict]) -> list[str]:
    got = sorted(sorted(c["members"]) for c in components)
    want = sorted(sorted(m) for m in ctx.truth["components"])
    if got != want:
        return [f"{len(got)} MDNs found, {len(want)} planted; members differ"]
    return []


def _crawl_cold(ctx: Context) -> list[str]:
    fails = _expect_stages(ctx, set(STAGES))
    nodes = ctx.read_tsv("graph_nodes.tsv")
    fails += _check_pages(ctx, nodes, 2)
    plds = [row[0] for row in nodes]
    indeg = dict.fromkeys(plds, 0)
    for src, dst, _ in ctx.read_tsv("graph_edges.tsv"):
        indeg[plds[int(dst)]] += 1
    fails += _check_indegree(ctx, indeg)
    fails += _check_mdns(ctx, ctx.read_json("mdns.json")["components"])
    fits = ctx.read_json("fits.json")["features"]
    errors = [f"{f}/{p}" for f, units in fits.items()
              for p, unit in units.items() if "error" in unit]
    if errors:
        fails.append(f"fit units with an error: {errors}")
    return fails


def _crawl_resume(ctx: Context) -> list[str]:
    return _expect_stages(ctx, set())


def _crawl_rerun(ctx: Context) -> list[str]:
    return _expect_stages(ctx, {"features", "train"})


def _mdn_score(ctx: Context) -> list[str]:
    flagged = {r[0] for r in ctx.read_tsv("reputation.tsv", header=False)
               if r[1] == "malicious"}
    planted = {p for members in ctx.truth["components"] for p in members}
    if flagged != planted:
        return [f"{len(flagged)} PLDs scored malicious, {len(planted)} planted"]
    return []


def _mdn_cooccur(ctx: Context) -> list[str]:
    return _check_mdns(ctx, ctx.read_json("mdns.json"))


# ---------------------------------------------------------------------------
# the workloads

def _run(extra: list[str]) -> Callable[[dict, str], list[str]]:
    return lambda paths, rep: ["run", "--config",
                               os.path.join(rep, "config.json")] + extra


# A third workload, `webmal build-graph` + `webmal metrics` on a dense
# graph, was dropped: its memory-bound ingest swung so much with the load of
# other tenants on a shared 2-core machine that its run-to-run spread
# exceeded the wall_s bound. The graph and metrics layers stay measured on
# `crawl`, which also checks planted in-degrees.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # `webmal run` end to end. Fits dominate the cold run (one
    # select_candidates scans every distinct x_min value, up to 200, per
    # family) and their cost is set by how many distinct in-degrees each
    # fit_max_n-point quantile subsample holds. With 6,000 PLDs every
    # population is large enough that this count, and so the fit work,
    # varies little from seed to seed; with 2,000 it varied about twice as
    # much. pages x_min 1 keeps graph ingest small beside the fits.
    Workload(
        name="crawl",
        corpus={"n_plds": 6000, "malicious_fraction": 0.15,
                "components": [20] * 5 + [10] * 10 + [5] * 10,
                "xmin": {"pages": 1.0}},
        smoke_corpus={"n_plds": 400, "malicious_fraction": 0.15,
                      "components": [10, 5, 5]},
        config={"fit_features": ["indegree"], "fit_max_n": 400,
                "fit_restarts": 4, "epochs": 4000},
        phases=(
            Phase("cold", _run([]), _crawl_cold, keep="eval.json"),
            Phase("resume", _run([]), _crawl_resume, in_wall=False),
            Phase("rerun", _run(["--feature-set", "centrality"]), _crawl_rerun,
                  in_wall=False),
        )),
    # Many planted MDN components among many malicious PLDs: reputation
    # scoring, the Jaccard co-occurrence index and component extraction
    # (which rescans every co-occurrence edge per component) dominate.
    Workload(
        name="mdn-dense",
        corpus={"n_plds": 9000, "malicious_fraction": 0.3,
                "components": [60] * 25},
        smoke_corpus={"n_plds": 600, "malicious_fraction": 0.3,
                      "components": [20] * 4},
        phases=(
            Phase("score", lambda p, rep: [
                "score", "--verdicts", p["verdicts"],
                "--observations", p["observations"], "--tau", "0",
                "--out", os.path.join(rep, "reputation.tsv")], _mdn_score),
            Phase("cooccur", lambda p, rep: [
                "cooccur", "--verdicts", p["verdicts"],
                "--observations", p["observations"],
                "--out-edges", os.path.join(rep, "co_edges.tsv"),
                "--out-sets", os.path.join(rep, "co_sets.tsv"),
                "--mdn-out", os.path.join(rep, "mdns.json")], _mdn_cooccur),
        )),
)}
