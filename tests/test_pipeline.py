"""Staged pipeline: manifest skipping, early cutoff, determinism."""

import inspect
import json
import os
import sys
from dataclasses import fields

import pytest

from webmal.errors import ConfigError, InputError
from webmal.pipeline import (STAGES, UNRECORDED_KEYS, RunConfig,
                             emit_tsv_reports, file_sha256, run_pipeline)
from webmal.synthlab import default_spec, plant_crawl, write_corpus

STAGE_NAMES = ("build-graph", "metrics", "reputation", "dga", "fits",
               "cooccur", "mdn", "features", "train")
# the RunConfig fields that name input files
PATH_FIELDS = ("edges", "psl", "verdicts", "observations", "alexa")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = default_spec(seed=303, n_plds=260, malicious_fraction=0.12,
                        components=(4, 3, 2))
    write_corpus(plant_crawl(spec), str(out))
    return str(out)


def make_config(corpus_dir, out_dir, **overrides) -> RunConfig:
    base = dict(
        edges=os.path.join(corpus_dir, "edges.tsv"),
        psl=os.path.join(corpus_dir, "psl.dat"),
        verdicts=os.path.join(corpus_dir, "verdicts.tsv"),
        observations=os.path.join(corpus_dir, "observations.tsv"),
        alexa=os.path.join(corpus_dir, "alexa.tsv"),
        out_dir=out_dir,
        fit_features=("num_pages",),
        fit_max_n=2000,
        fit_restarts=2,
        epochs=1500,
    )
    base.update(overrides)
    return RunConfig.from_dict(base)


def report_hashes(out_dir):
    names = ("fits.json", "mdns.json", "eval.json", "model.json",
             "model_stacked.json", "metrics.tsv", "reputation.tsv",
             "features.tsv", "dga.tsv")
    return {n: file_sha256(os.path.join(out_dir, n)) for n in names}


def dir_bytes(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))}


def test_full_run_writes_nine_stages(tmp_path, corpus_dir):
    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    res = run_pipeline(cfg)
    assert res.executed == list(STAGE_NAMES)
    assert set(res.manifest["stages"]) == set(STAGE_NAMES)
    for stage in STAGES:
        entry = res.manifest["stages"][stage.name]
        assert entry["status"] == "done"
        assert entry["outputs"]
        assert sorted(entry["config"]) == sorted(set(stage.config_keys)
                                                 - UNRECORDED_KEYS)


def test_rerun_skips_everything(tmp_path, corpus_dir):
    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    run_pipeline(cfg)
    before = report_hashes(cfg.out_dir)
    manifest_before = file_sha256(os.path.join(cfg.out_dir, "manifest.json"))
    res = run_pipeline(cfg)
    assert res.executed == []
    assert res.skipped == list(STAGE_NAMES)
    assert report_hashes(cfg.out_dir) == before
    assert file_sha256(os.path.join(cfg.out_dir, "manifest.json")) == manifest_before


def test_manifest_with_the_old_whole_config_hash_is_resumed(tmp_path, corpus_dir):
    # manifests used to carry a top-level hash of the whole config; the stage
    # entries alone decide what reruns, and the worker count is in none of them
    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    run_pipeline(cfg)
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    before = file_sha256(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config_hash"] = "0" * 64
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    res = run_pipeline(make_config(corpus_dir, cfg.out_dir, workers=2))
    assert res.executed == []
    assert res.skipped == list(STAGE_NAMES)
    assert file_sha256(manifest_path) == before


def test_interrupt_keeps_finished_stages(tmp_path, corpus_dir, monkeypatch):
    from dataclasses import replace

    from webmal import pipeline

    def interrupt(nodes, out):
        raise KeyboardInterrupt

    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    stages = pipeline.STAGES
    with monkeypatch.context() as m:
        m.setattr(pipeline, "STAGES", stages[:3]
                  + (replace(stages[3], run=interrupt),) + stages[4:])
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(cfg)
    assert not [n for n in os.listdir(cfg.out_dir) if n.endswith(".tmp")]
    res = run_pipeline(cfg)
    assert res.skipped == list(STAGE_NAMES[:3])
    assert res.executed == list(STAGE_NAMES[3:])
    ref = make_config(corpus_dir, str(tmp_path / "ref"))
    run_pipeline(ref)
    assert (file_sha256(os.path.join(cfg.out_dir, "manifest.json"))
            == file_sha256(os.path.join(ref.out_dir, "manifest.json")))


def test_interrupted_write_keeps_finished_stages(tmp_path, corpus_dir, monkeypatch):
    from dataclasses import replace

    from webmal import pipeline
    from webmal.dga import DGA_HEADER
    from webmal.tables import write_table

    def scores():
        yield from [1.0] * 10_000     # more than one block reaches the temp file
        raise KeyboardInterrupt

    def interrupt(nodes, out):
        write_table(out, DGA_HEADER,
                    (["a.com"] * 20_000, scores(), ["likely_dga"] * 20_000))

    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    stages = pipeline.STAGES
    with monkeypatch.context() as m:
        m.setattr(pipeline, "STAGES", stages[:3]
                  + (replace(stages[3], run=interrupt),) + stages[4:])
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(cfg)
    assert not [n for n in os.listdir(cfg.out_dir) if n.endswith(".tmp")]
    assert not os.path.exists(os.path.join(cfg.out_dir, "dga.tsv"))
    res = run_pipeline(cfg)
    assert res.skipped == list(STAGE_NAMES[:3])
    assert res.executed == list(STAGE_NAMES[3:])


def test_damaged_output_reruns_its_stage(tmp_path, corpus_dir):
    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    run_pipeline(cfg)
    before = report_hashes(cfg.out_dir)
    metrics = os.path.join(cfg.out_dir, "metrics.tsv")
    with open(metrics, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(metrics, "w", encoding="utf-8") as fh:
        fh.writelines(lines[: len(lines) // 2])
    res = run_pipeline(cfg)
    # the rewritten table is the original again, so nothing downstream reruns
    assert res.executed == ["metrics"]
    assert report_hashes(cfg.out_dir) == before


def test_tau_that_flips_no_label_stops_after_its_stages(tmp_path, corpus_dir):
    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    run_pipeline(cfg)
    before = report_hashes(cfg.out_dir)
    # every planted detection ratio is >= 1/56, so this tau flips no labels:
    # the two stages that read tau rewrite their tables with the same bytes,
    # and nothing that reads those tables reruns
    res = run_pipeline(make_config(corpus_dir, cfg.out_dir, tau=0.01))
    assert res.executed == ["reputation", "cooccur"]
    assert report_hashes(cfg.out_dir) == before


def test_tau_change_reruns_reputation_and_downstream(tmp_path, corpus_dir):
    cfg = make_config(corpus_dir, str(tmp_path / "run"))
    run_pipeline(cfg)
    res = run_pipeline(make_config(corpus_dir, cfg.out_dir, tau=0.1))
    assert res.skipped == ["build-graph", "metrics", "dga"]
    assert res.executed == ["reputation", "fits", "cooccur", "mdn", "features",
                            "train"]


@pytest.mark.parametrize("change", [{"feature_set": "centrality"},
                                    {"fit_restarts": 3}],
                         ids=["feature_set", "fit_restarts"])
def test_resumed_run_is_byte_identical_to_cold_run(tmp_path, corpus_dir, change):
    resumed = str(tmp_path / "resumed")
    run_pipeline(make_config(corpus_dir, resumed))
    run_pipeline(make_config(corpus_dir, resumed, **change))
    cold = str(tmp_path / "cold")
    run_pipeline(make_config(corpus_dir, cold, **change))
    assert dir_bytes(resumed) == dir_bytes(cold)


def test_each_stage_declaration_matches_its_body():
    config_fields = {f.name for f in fields(RunConfig)}
    earlier: set[str] = set()
    for stage in STAGES:
        assert set(stage.inputs) <= set(PATH_FIELDS) | earlier, stage.name
        assert set(stage.config_keys) <= config_fields, stage.name
        inspect.signature(stage.run).bind(
            *stage.inputs, *stage.outputs, **dict.fromkeys(stage.config_keys))
        earlier |= set(stage.outputs)


# an audit hook cannot be removed, so it is installed once and records only
# while _opened is a list: the files opened while a stage runs
_opened: list[str] | None = None


def _record_open(event, args):
    if _opened is not None and event == "open" and isinstance(args[0], str):
        _opened.append(os.path.realpath(args[0]))


sys.addaudithook(_record_open)


def test_each_stage_reads_only_what_it_declares(tmp_path, corpus_dir):
    global _opened
    cfg = make_config(corpus_dir, str(tmp_path / "run"), workers=1)
    run_pipeline(cfg)
    paths = {name: os.path.join(cfg.out_dir, name)
             for stage in STAGES for name in stage.outputs}
    for stage in STAGES:
        # the arguments run_pipeline passes the stage's body
        inputs = [paths[n] if n in paths else getattr(cfg, n) for n in stage.inputs]
        declared = inputs + [paths[name] for name in stage.outputs]
        _opened = []
        try:
            stage.run(*declared, **{k: getattr(cfg, k) for k in stage.config_keys})
        finally:
            opened, _opened = _opened, None
        roots = (os.path.realpath(str(tmp_path)), os.path.realpath(corpus_dir))
        # an output is written to "<output>.tmp" and renamed onto the output
        outputs = {os.path.realpath(paths[name]) for name in stage.outputs}
        opened = [p.removesuffix(".tmp") if p.removesuffix(".tmp") in outputs else p
                  for p in opened]
        assert {p for p in opened if p.startswith(roots)} <= {
            os.path.realpath(p) for p in declared if p is not None}, stage.name


def test_input_change_reruns_graph_chain(tmp_path, corpus_dir):
    import shutil
    corpus2 = str(tmp_path / "corpus2")
    shutil.copytree(corpus_dir, corpus2)
    cfg = make_config(corpus2, str(tmp_path / "run"))
    run_pipeline(cfg)
    with open(os.path.join(corpus2, "labels.tsv")) as fh:
        pld = fh.readline().split("\t")[0]
    with open(cfg.edges, "a") as fh:
        fh.write(f"http://{pld}/extra\thttp://{pld}/extra2\n")
    res = run_pipeline(cfg)
    assert "build-graph" in res.executed
    assert "reputation" in res.skipped
    assert "cooccur" in res.skipped


def test_two_runs_byte_identical(tmp_path, corpus_dir):
    cfg_a = make_config(corpus_dir, str(tmp_path / "a"))
    cfg_b = make_config(corpus_dir, str(tmp_path / "b"))
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    assert report_hashes(cfg_a.out_dir) == report_hashes(cfg_b.out_dir)


def test_parallel_fits_identical(tmp_path, corpus_dir):
    cfg_a = make_config(corpus_dir, str(tmp_path / "a"))
    cfg_b = make_config(corpus_dir, str(tmp_path / "b"), workers=2)
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    assert (file_sha256(os.path.join(cfg_a.out_dir, "fits.json"))
            == file_sha256(os.path.join(cfg_b.out_dir, "fits.json")))


def test_stage_error_carries_stage_name(tmp_path, corpus_dir):
    bad = tmp_path / "verdicts.tsv"
    bad.write_text("hash1\t56\tff\nhash2\t40\tff\n")   # inconsistent d
    cfg = make_config(corpus_dir, str(tmp_path / "run"),
                      verdicts=str(bad))
    with pytest.raises(InputError, match="stage reputation"):
        run_pipeline(cfg)


def test_config_validation(tmp_path, corpus_dir):
    with pytest.raises(ConfigError):
        make_config(corpus_dir, str(tmp_path / "x"), tau=1.0).validate()
    with pytest.raises(ConfigError):
        make_config(corpus_dir, str(tmp_path / "x"),
                    edges="/nonexistent/edges.tsv").validate()
    with pytest.raises(ConfigError):
        make_config(corpus_dir, str(tmp_path / "x"),
                    feature_set="bogus").validate()
    with pytest.raises(ConfigError):
        make_config(corpus_dir, str(tmp_path / "x"),
                    fit_features=("pagerank",)).validate()
    with pytest.raises(ConfigError, match="fit_max_n must be >= 50"):
        make_config(corpus_dir, str(tmp_path / "x"), fit_max_n=49).validate()
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"edges": "e", "bogus_key": 1})
    with pytest.raises(ConfigError, match="missing key 'psl'"):
        RunConfig.from_dict({"edges": "e"})


def test_config_from_json_with_overrides(tmp_path, corpus_dir):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "edges": os.path.join(corpus_dir, "edges.tsv"),
        "psl": os.path.join(corpus_dir, "psl.dat"),
        "verdicts": os.path.join(corpus_dir, "verdicts.tsv"),
        "observations": os.path.join(corpus_dir, "observations.tsv"),
        "out_dir": str(tmp_path / "run"),
        "tau": 0.1,
    }))
    cfg = RunConfig.from_json(str(cfg_path), overrides={"tau": 0.2,
                                                        "split_seed": None})
    assert cfg.tau == 0.2           # flag wins
    assert cfg.split_seed == 0      # None override ignored


def test_fits_leave_a_pld_with_no_reputation_row_out_of_both_populations(
        tmp_path):
    from webmal.metrics import METRICS_HEADER
    from webmal.pipeline import fit_populations
    from webmal.reputation import REPUTATION_HEADER
    paths = {name: str(tmp_path / name)
             for name in ("metrics.tsv", "reputation.tsv", "fits.json")}
    with open(paths["metrics.tsv"], "w") as fh:
        fh.write("\t".join(METRICS_HEADER) + "\n")
        for k, pld in enumerate(("a.com", "b.com", "c.com", "d.com")):
            fh.write(f"{pld}\t1\t1\t2\t0.25\t0.5\t0.5\t0\t{k + 1}\n")
    # b.com and d.com have no row; d.com would take c.com's if -1 indexed
    with open(paths["reputation.tsv"], "w") as fh:
        fh.write("\t".join(REPUTATION_HEADER) + "\n"
                 "a.com\tclean\t0.0\t1\t1\t0.0\n"
                 "c.com\tmalicious\t1.0\t1\t1\t0.0\n")
    fit_populations(paths["metrics.tsv"], paths["reputation.tsv"],
                    paths["fits.json"], fit_features=("num_pages",),
                    fit_max_n=2000, fit_restarts=2, workers=1)
    with open(paths["fits.json"]) as fh:
        units = json.load(fh)["features"]["num_pages"]
    assert {pop: unit["n"] for pop, unit in units.items()} == \
        {"all": 4, "clean": 1, "malicious": 1}


def test_tsv_mirrors(tmp_path, corpus_dir):
    cfg = make_config(corpus_dir, str(tmp_path / "run"), emit_tsv=True)
    run_pipeline(cfg)
    for name in ("eval.tsv", "fits.tsv", "mdns.tsv"):
        path = os.path.join(cfg.out_dir, name)
        assert os.path.exists(path)
        with open(path) as fh:
            assert len(fh.readlines()) >= 2
    # mirrors are derived, re-emitting matches
    paths = emit_tsv_reports(cfg.out_dir)
    assert len(paths) == 3
