"""Subcommand wiring and exit codes."""

import json
import os
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from webmal.cli import main
from webmal.synthlab import default_spec


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = default_spec(seed=881, n_plds=220, malicious_fraction=0.12,
                        components=(3, 2))
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(asdict(spec)))
    out = root / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return str(out)


def test_synth_reports_the_written_edge_count(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(asdict(default_spec(seed=4, n_plds=60))))
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    with open(out / "edges.tsv") as fh:
        n_edges = sum(1 for _ in fh)
    assert capsys.readouterr().out.splitlines()[0] == \
        f"60 PLDs, {n_edges} page edges -> {out}"


def test_run_pipeline_via_config(tmp_path, corpus, capsys):
    cfg = {
        "edges": os.path.join(corpus, "edges.tsv"),
        "psl": os.path.join(corpus, "psl.dat"),
        "verdicts": os.path.join(corpus, "verdicts.tsv"),
        "observations": os.path.join(corpus, "observations.tsv"),
        "alexa": os.path.join(corpus, "alexa.tsv"),
        "out_dir": str(tmp_path / "run"),
        "fit_features": ["num_pages"],
        "fit_restarts": 2,
        "fit_max_n": 1500,
        "epochs": 800,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(cfg_path), "--tsv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "9 stages executed" in out
    for name in ("eval.json", "fits.json", "mdns.json", "eval.tsv",
                 "manifest.json"):
        assert os.path.exists(os.path.join(str(tmp_path / "run"), name))
    # rerun skips
    rc = main(["run", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 stages executed, 9 skipped" in out


def _stage_commands(out, corpus, epochs):
    """Chain the single-stage subcommands on the corpus, naming each output
    as `webmal run` does; return name -> path."""
    p = {name: os.path.join(out, name) for name in (
        "graph_nodes.tsv", "graph_edges.tsv", "metrics.tsv", "reputation.tsv",
        "names.txt", "dga.tsv", "cooccur_edges.tsv", "cooccur_sets.tsv",
        "mdn_list.json", "features.tsv", "model.json", "model_stacked.json",
        "eval.json")}
    verdicts = os.path.join(corpus, "verdicts.tsv")
    observations = os.path.join(corpus, "observations.tsv")
    assert main(["build-graph", "--edges", os.path.join(corpus, "edges.tsv"),
                 "--psl", os.path.join(corpus, "psl.dat"),
                 "--out-nodes", p["graph_nodes.tsv"],
                 "--out-edges", p["graph_edges.tsv"]]) == 0
    assert main(["metrics", "--nodes", p["graph_nodes.tsv"],
                 "--edges", p["graph_edges.tsv"], "--out", p["metrics.tsv"]]) == 0
    assert main(["score", "--verdicts", verdicts, "--observations",
                 observations, "--tau", "0.0", "--out", p["reputation.tsv"]]) == 0
    with open(p["graph_nodes.tsv"]) as fh:
        fh.readline()
        plds = [line.split("\t")[0] for line in fh]
    with open(p["names.txt"], "w") as fh:
        fh.write("\n".join(plds) + "\n")
    assert main(["dga", "--names", p["names.txt"], "--out", p["dga.tsv"]]) == 0
    assert main(["cooccur", "--verdicts", verdicts, "--observations",
                 observations, "--out-edges", p["cooccur_edges.tsv"],
                 "--out-sets", p["cooccur_sets.tsv"],
                 "--mdn-out", p["mdn_list.json"]]) == 0
    assert main(["features", "--metrics", p["metrics.tsv"], "--reputation",
                 p["reputation.tsv"], "--dga", p["dga.tsv"],
                 "--alexa", os.path.join(corpus, "alexa.tsv"),
                 "--out", p["features.tsv"]]) == 0
    assert main(["train", "--features", p["features.tsv"],
                 "--nodes", p["graph_nodes.tsv"], "--edges", p["graph_edges.tsv"],
                 "--epochs", str(epochs), "--out-model", p["model.json"],
                 "--out-stacked", p["model_stacked.json"],
                 "--out-eval", p["eval.json"]]) == 0
    return p


def test_individual_stage_commands(tmp_path, corpus):
    p = _stage_commands(str(tmp_path), corpus, epochs=500)
    assert json.loads(open(p["mdn_list.json"]).read())
    rep = json.loads(open(p["eval.json"]).read())
    assert 0.0 <= rep["base"]["AUC"] <= 1.0

    ev2 = str(tmp_path / "eval2.json")
    assert main(["evaluate", "--model", p["model.json"],
                 "--features", p["features.tsv"], "--out", ev2]) == 0
    assert "AUC" in json.loads(open(ev2).read())


def test_stage_commands_match_run(tmp_path, corpus):
    cli = _stage_commands(str(tmp_path), corpus, epochs=800)
    run_dir = tmp_path / "run"
    cfg = {name: os.path.join(corpus, f) for name, f in (
        ("edges", "edges.tsv"), ("psl", "psl.dat"), ("verdicts", "verdicts.tsv"),
        ("observations", "observations.tsv"), ("alexa", "alexa.tsv"))}
    cfg.update(out_dir=str(run_dir), fit_features=["num_pages"],
               fit_restarts=2, fit_max_n=1500, epochs=800)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0

    for name in ("graph_nodes.tsv", "graph_edges.tsv", "metrics.tsv",
                 "reputation.tsv", "dga.tsv", "cooccur_edges.tsv",
                 "cooccur_sets.tsv", "features.tsv", "model.json",
                 "model_stacked.json"):
        assert (run_dir / name).read_bytes() == open(cli[name], "rb").read(), name
    mdns = json.loads((run_dir / "mdns.json").read_text())
    assert mdns["components"]
    assert json.loads(open(cli["mdn_list.json"]).read()) == mdns["components"]
    assert json.loads(open(cli["eval.json"]).read()) == \
        json.loads((run_dir / "eval.json").read_text())

    with open(cli["metrics.tsv"]) as fh:
        pages = fh.readline().rstrip("\n").split("\t").index("pages")
        values = [line.rstrip("\n").split("\t")[pages] for line in fh]
    (tmp_path / "pages.txt").write_text("\n".join(values) + "\n")
    fit_out = tmp_path / "fit.json"
    assert main(["fit", "--values", str(tmp_path / "pages.txt"),
                 "--restarts", "2", "--out", str(fit_out)]) == 0
    fits = json.loads((run_dir / "fits.json").read_text())
    assert json.loads(fit_out.read_text()) == fits["features"]["num_pages"]["all"]


def test_fit_command(tmp_path):
    rng = np.random.default_rng(17)
    vals = np.rint(1.0 * (1.0 - rng.random(3000)) ** (-1.0 / 1.5)).astype(int)
    path = str(tmp_path / "values.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(str(v) for v in vals) + "\n")
    out = str(tmp_path / "fit.json")
    assert main(["fit", "--values", path, "--restarts", "2",
                 "--families", "power_law,exponential", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["n"] == 3000
    assert sum(b["count"] for b in payload["histogram"]["bins"]) == 3000


def test_fit_non_integer_values_record_histogram_error(tmp_path):
    # the tail fit accepts real values; Fibonacci binning needs integers
    rng = np.random.default_rng(17)
    vals = (1.0 - rng.random(3000)) ** (-1.0 / 1.5)
    path = tmp_path / "values.txt"
    path.write_text("\n".join(str(v) for v in vals) + "\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--values", str(path), "--restarts", "2",
                 "--families", "power_law,exponential", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 3000 and payload["selection"] is not None
    assert payload["histogram"] == {
        "error": "InvalidParams: data must be positive integers"}


def test_fit_malformed_value_is_input_error(tmp_path, capsys):
    path = tmp_path / "values.txt"
    path.write_text("3\n\n5\nabc\n7\n")
    rc = main(["fit", "--values", str(path), "--out", str(tmp_path / "fit.json")])
    assert rc == 1
    assert f"input error: {path}:4: not a number: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def _feature_inputs(tmp_path):
    """Valid metrics, reputation and dga tables for a.com and b.com."""
    metrics = tmp_path / "metrics.tsv"
    metrics.write_text("pld\tindeg\toutdeg\ttotal\tpagerank\thub\tauth\t"
                       "triangles\tpages\n"
                       "a.com\t1\t1\t2\t0.5\t0.5\t0.5\t0\t3\n"
                       "b.com\t1\t1\t2\t0.5\t0.5\t0.5\t0\t3\n")
    reputation = tmp_path / "reputation.tsv"
    reputation.write_text("pld\tdichotomy\tr_bar\tn_unique\ttotal\tentropy\n"
                          "a.com\tclean\t0.0\t1\t1\t0.0\n"
                          "b.com\tmalicious\t1.0\t1\t1\t0.0\n")
    dga = tmp_path / "dga.tsv"
    dga.write_text("pld\tscore\tverdict\n"
                   "a.com\t12.5\tlikely_regular\n"
                   "b.com\t3.0\tlikely_dga\n")
    argv = ["features", "--metrics", str(metrics), "--reputation",
            str(reputation), "--dga", str(dga), "--out", str(tmp_path / "f.tsv")]
    return {"metrics": metrics, "reputation": reputation, "dga": dga}, argv


def test_features_malformed_number_is_input_error(tmp_path, capsys):
    paths, argv = _feature_inputs(tmp_path)
    metrics, dga = paths["metrics"], paths["dga"]
    metrics.write_text(metrics.read_text().replace("b.com\t1\t1\t2\t0.5\t0.5",
                                                   "b.com\t1\t1\t2\t0.5\tx"))
    assert main(argv) == 1
    assert f"input error: {metrics}:3: not a number: 'x'" in capsys.readouterr().err
    metrics.write_text(metrics.read_text().replace("\tx\t", "\t0.5\t"))
    dga.write_text(dga.read_text().replace("3.0", "nan?"))
    assert main(argv) == 1
    assert f"input error: {dga}:3: not a number: 'nan?'" in capsys.readouterr().err


@pytest.mark.parametrize("table, old, new, message", [
    ("metrics", "b.com\t1\t1\t2\t0.5\t0.5\t0.5\t0\t3", "b.com\t1\t1\t2",
     "metrics.tsv:3: expected 9 fields, got 4"),
    ("reputation", "malicious\t1.0", "malicious\tx",
     "reputation.tsv:3: not a number: 'x'"),
    ("reputation", "clean\t0.0\t1\t1\t0.0", "clean\t0.0\t1\t1\t?",
     "reputation.tsv:2: not a number: '?'"),
    ("reputation", "malicious\t1.0\t1", "malicious\t1.0\tx",
     "reputation.tsv:3: not an integer: 'x'"),
    ("reputation", "clean\t0.0\t1\t1", "clean\t0.0\t1\t1.5",
     "reputation.tsv:2: not an integer: '1.5'"),
], ids=["metrics-short-row", "reputation-r_bar", "reputation-H", "reputation-N",
        "reputation-TF"])
def test_features_malformed_table_is_input_error(tmp_path, capsys, table, old,
                                                 new, message):
    paths, argv = _feature_inputs(tmp_path)
    text = paths[table].read_text()
    assert old in text
    paths[table].write_text(text.replace(old, new))
    assert main(argv) == 1
    assert f"input error: {tmp_path / message}" in capsys.readouterr().err


@pytest.mark.parametrize("cell, new, message", [
    (1, "x", "not a number: 'x'"),
    (-1, "y", "not an integer: 'y'"),
    (-1, "7", "label must be 0 or 1, got '7'"),
], ids=["feature", "label", "label-range"])
def test_train_malformed_feature_table_is_input_error(tmp_path, capsys, cell,
                                                      new, message):
    _, argv = _feature_inputs(tmp_path)
    assert main(argv) == 0
    features = tmp_path / "f.tsv"
    lines = features.read_text().splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split("\t")
    cells[cell] = new
    lines[2] = "\t".join(cells) + "\n"
    features.write_text("".join(lines))
    out = {name: str(tmp_path / name) for name in ("m.json", "s.json", "e.json")}
    assert main(["train", "--features", str(features),
                 "--nodes", str(tmp_path / "nodes.tsv"),
                 "--edges", str(tmp_path / "edges.tsv"),
                 "--out-model", out["m.json"], "--out-stacked", out["s.json"],
                 "--out-eval", out["e.json"]]) == 1
    assert f"input error: {features}:3: {message}" in capsys.readouterr().err


def test_exit_codes(tmp_path, corpus):
    # input error: malformed verdict table
    bad = tmp_path / "bad_verdicts.tsv"
    bad.write_text("h1\t56\tff\nh2\t40\tff\n")
    rc = main(["score", "--verdicts", str(bad), "--observations",
               os.path.join(corpus, "observations.tsv"),
               "--out", str(tmp_path / "r.tsv")])
    assert rc == 1
    # config error: config file missing a required key
    cfg = tmp_path / "bad_config.json"
    cfg.write_text(json.dumps({"edges": "x"}))
    assert main(["run", "--config", str(cfg)]) == 3
    # config error: unknown feature in fit_features
    cfg2 = tmp_path / "bad_config2.json"
    cfg2.write_text(json.dumps({
        "edges": os.path.join(corpus, "edges.tsv"),
        "psl": os.path.join(corpus, "psl.dat"),
        "verdicts": os.path.join(corpus, "verdicts.tsv"),
        "observations": os.path.join(corpus, "observations.tsv"),
        "out_dir": str(tmp_path / "run"),
        "fit_features": ["pagerank"],
    }))
    assert main(["run", "--config", str(cfg2)]) == 3
    # input error: nonexistent values file
    assert main(["fit", "--values", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "f.json")]) == 1


def test_non_utf8_byte_is_input_error(tmp_path, corpus, capsys):
    bad = tmp_path / "verdicts.tsv"
    bad.write_bytes(b"h1\t8\t1f\nh2\t8\t\xff\n")
    rc = main(["score", "--verdicts", str(bad), "--observations",
               os.path.join(corpus, "observations.tsv"),
               "--out", str(tmp_path / "r.tsv")])
    assert rc == 1
    assert f"input error: {bad}:2: not UTF-8 text" in capsys.readouterr().err


def test_non_utf8_psl_line_is_input_error(tmp_path, corpus, capsys):
    bad = tmp_path / "psl.dat"
    bad.write_bytes(b"com\n\xff\n")
    rc = main(["build-graph", "--edges", os.path.join(corpus, "edges.tsv"),
               "--psl", str(bad), "--out-nodes", str(tmp_path / "n.tsv"),
               "--out-edges", str(tmp_path / "e.tsv")])
    assert rc == 1
    assert f"input error: {bad}:2: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("rule,problem", [("*.bad rule", "whitespace"),
                                          ("bad..rule", "empty label")])
def test_malformed_psl_rule_names_its_file_and_line(tmp_path, corpus, capsys,
                                                    rule, problem):
    bad = tmp_path / "psl.dat"
    bad.write_text(f"com\n{rule}\n")
    rc = main(["build-graph", "--edges", os.path.join(corpus, "edges.tsv"),
               "--psl", str(bad), "--out-nodes", str(tmp_path / "n.tsv"),
               "--out-edges", str(tmp_path / "e.tsv")])
    assert rc == 1
    assert (f"input error: {bad}:2: {problem} in rule {rule!r}"
            in capsys.readouterr().err)


# flag, its text, the RunConfig field it sets, and the value it must reach
RUN_FLAGS = [
    ("--edges", "e2.tsv", "edges", "e2.tsv"),
    ("--psl", "p2.dat", "psl", "p2.dat"),
    ("--verdicts", "v2.tsv", "verdicts", "v2.tsv"),
    ("--observations", "o2.tsv", "observations", "o2.tsv"),
    ("--alexa", "a2.tsv", "alexa", "a2.tsv"),
    ("--out-dir", "run2", "out_dir", "run2"),
    ("--tau", "0.25", "tau", 0.25),
    ("--feature-set", "centrality", "feature_set", "centrality"),
    ("--split-seed", "7", "split_seed", 7),
    ("--threshold", "0.3", "threshold", 0.3),
    ("--fit-features", "num_pages, indegree,", "fit_features",
     ("num_pages", "indegree")),
    ("--fit-max-n", "123", "fit_max_n", 123),
    ("--epochs", "9", "epochs", 9),
    ("--l2", "0.5", "l2", 0.5),
    ("--workers", "3", "workers", 3),
    ("--tsv", None, "emit_tsv", True),
]


def test_run_flags_are_all_listed():
    from webmal.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {opt for a in sub.choices["run"]._actions for opt in a.option_strings}
    assert flags - {"-h", "--help", "--config"} == {f[0] for f in RUN_FLAGS}


@pytest.mark.parametrize("flag, text, name, value", RUN_FLAGS,
                         ids=[f[0] for f in RUN_FLAGS])
def test_run_flag_reaches_the_config(tmp_path, monkeypatch, flag, text, name, value):
    from webmal import pipeline
    seen = []

    def fake_run(cfg, log=None):
        seen.append(cfg)
        return pipeline.RunResult(cfg.out_dir, {}, [], [])

    monkeypatch.setattr(pipeline, "run_pipeline", fake_run)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({k: k for k in ("edges", "psl", "verdicts",
                                                   "observations", "out_dir")}))
    argv = ["run", "--config", str(cfg_path), flag] + ([text] if text else [])
    assert main(argv) == 0
    assert getattr(seen[0], name) == value
    # the flags left out keep the config file's values and the defaults
    default = pipeline.RunConfig.from_json(str(cfg_path))
    for field in ("tau", "feature_set", "emit_tsv", "edges"):
        if field != name:
            assert getattr(seen[0], field) == getattr(default, field)


def test_zero_malicious_cooccur(tmp_path):
    from webmal.synthlab import plant_crawl, write_corpus
    spec = default_spec(seed=5, n_plds=60, malicious_fraction=0.0)
    out = str(tmp_path / "clean_corpus")
    write_corpus(plant_crawl(spec), out)
    mdns = str(tmp_path / "mdns.json")
    rc = main(["cooccur", "--verdicts", os.path.join(out, "verdicts.tsv"),
               "--observations", os.path.join(out, "observations.tsv"),
               "--out-edges", str(tmp_path / "e.tsv"),
               "--out-sets", str(tmp_path / "s.tsv"),
               "--mdn-out", mdns])
    assert rc == 0
    assert json.loads(open(mdns).read()) == []


@pytest.fixture(scope="module")
def run_config(tmp_path_factory, corpus):
    """The config of one completed `webmal run` on the corpus."""
    root = tmp_path_factory.mktemp("json-inputs")
    cfg = {name: os.path.join(corpus, f) for name, f in (
        ("edges", "edges.tsv"), ("psl", "psl.dat"), ("verdicts", "verdicts.tsv"),
        ("observations", "observations.tsv"), ("alexa", "alexa.tsv"))}
    cfg.update(out_dir=str(root / "run"), fit_features=["num_pages"],
               fit_restarts=2, epochs=300)
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 0
    return cfg


def _bad_json(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    return bad


def _dga_table(tmp_path, run_config, text):
    names = tmp_path / "names.txt"
    names.write_text("google\n")
    bad = _bad_json(tmp_path, text)
    return ["dga", "--names", str(names), "--table", str(bad),
            "--out", str(tmp_path / "dga.tsv")], bad


def _evaluate_model(tmp_path, run_config, text):
    bad = _bad_json(tmp_path, text)
    return ["evaluate", "--model", str(bad), "--features",
            os.path.join(run_config["out_dir"], "features.tsv"),
            "--out", str(tmp_path / "eval.json")], bad


def _synth_spec(tmp_path, run_config, text):
    bad = _bad_json(tmp_path, text)
    return ["synth", "--spec", str(bad), "--out", str(tmp_path / "corpus")], bad


def _run_config(tmp_path, run_config, text):
    bad = _bad_json(tmp_path, text)
    return ["run", "--config", str(bad)], bad


def _run_tsv_fits(tmp_path, run_config, text):
    """`run --tsv` on a copy of the run whose fits.json holds text, with a
    manifest that agrees: the fits stage is skipped, and only the TSV mirror
    reads the file."""
    from webmal.pipeline import file_sha256
    run = tmp_path / "run"
    shutil.copytree(run_config["out_dir"], run)
    fits = run / "fits.json"
    fits.write_text(text)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["stages"]["fits"]["outputs"]["fits.json"] = file_sha256(str(fits))
    (run / "manifest.json").write_text(json.dumps(manifest))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(run_config, out_dir=str(run))))
    return ["run", "--config", str(cfg), "--tsv"], fits


# every JSON input: the command that reads it, and the error that names it
JSON_INPUTS = {
    "dga-table": (_dga_table, 1, "input error: "),
    "evaluate-model": (_evaluate_model, 1, "input error: "),
    "synth-spec": (_synth_spec, 1, "input error: "),
    "run-config": (_run_config, 3, "config error: cannot read config: "),
    "run-tsv-fits": (_run_tsv_fits, 1, "input error: "),
}


@pytest.mark.parametrize("name", JSON_INPUTS)
def test_truncated_json_input_names_its_line(tmp_path, run_config, capsys, name):
    command, code, prefix = JSON_INPUTS[name]
    argv, bad = command(tmp_path, run_config, '{"alphabet": "ab",')
    assert main(argv) == code
    assert f"{prefix}{bad}:1: " in capsys.readouterr().err


@pytest.mark.parametrize("name, text, message", [
    ("synth-spec", "{}", "missing key 'seed'"),
    ("synth-spec", '{"seed": 1, "n_plds": "x"}', "n_plds must be an integer, not 'x'"),
    ("dga-table", "[1]", "expected a JSON object, got list"),
    ("dga-table", '{"alphabet": 5, "counts": [], "smoothing": 0}',
     "object of type 'int' has no len()"),
], ids=["synth-spec-empty", "synth-spec-bad-int", "dga-table-list",
        "dga-table-bad-alphabet"])
def test_malformed_json_input_is_input_error(tmp_path, run_config, capsys, name,
                                             text, message):
    argv, bad = JSON_INPUTS[name][0](tmp_path, run_config, text)
    assert main(argv) == 1
    assert f"input error: {bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("tau", "x", "tau must be a number, not 'x'"),
    ("epochs", "10", "epochs must be an integer, not '10'"),
    ("epochs", True, "epochs must be an integer, not True"),
    ("fit_features", 5, "fit_features must be a list of strings, not 5"),
    ("fit_features", ["indegree", 1], "fit_features must be a list of strings"),
    ("strict_hosts", "no", "strict_hosts must be true or false, not 'no'"),
    ("alexa", 3, "alexa must be a string or null, not 3"),
    ("fit_min_points", 50, "unknown key 'fit_min_points'"),
], ids=["tau-str", "epochs-str", "epochs-bool", "fit_features-int",
        "fit_features-mixed", "strict_hosts-str", "alexa-int", "removed-key"])
def test_config_value_of_the_wrong_type_is_config_error(tmp_path, corpus, capsys,
                                                         key, value, message):
    cfg = {name: os.path.join(corpus, f) for name, f in (
        ("edges", "edges.tsv"), ("psl", "psl.dat"), ("verdicts", "verdicts.tsv"),
        ("observations", "observations.tsv"))}
    cfg.update(out_dir=str(tmp_path / "run"), **{key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 3
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_empty_out_dir_is_config_error(tmp_path, corpus, capsys):
    cfg = {name: os.path.join(corpus, f) for name, f in (
        ("edges", "edges.tsv"), ("psl", "psl.dat"), ("verdicts", "verdicts.tsv"),
        ("observations", "observations.tsv"))}
    cfg["out_dir"] = ""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 3
    assert "config error: out_dir must be a non-empty path" in capsys.readouterr().err


def _score_args(tmp_path, command):
    return {"score": ["--out", str(tmp_path / "r.tsv")],
            "cooccur": ["--out-edges", str(tmp_path / "e.tsv"),
                        "--out-sets", str(tmp_path / "s.tsv")]}[command]


@pytest.mark.parametrize("command", ["score", "cooccur"])
def test_observed_file_with_no_verdict_is_input_error(tmp_path, capsys, command):
    verdicts = tmp_path / "verdicts.tsv"
    verdicts.write_text("f1\t8\t1\nf3\t8\t0\n")
    observations = tmp_path / "observations.tsv"
    observations.write_text("a.com\tf1\t1\nb.com\tf2\t2\nb.com\tf3\t1\n")
    assert main([command, "--verdicts", str(verdicts), "--observations",
                 str(observations)] + _score_args(tmp_path, command)) == 1
    assert "input error: no verdict row for file 'f2'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "cooccur"])
def test_tau_out_of_range_is_input_error(tmp_path, corpus, capsys, command):
    assert main([command, "--verdicts", os.path.join(corpus, "verdicts.tsv"),
                 "--observations", os.path.join(corpus, "observations.tsv"),
                 "--tau", "1.0"] + _score_args(tmp_path, command)) == 1
    assert "input error: tau must be in [0,1), got 1.0" in capsys.readouterr().err


def test_verdict_row_with_another_d_names_its_line(tmp_path, corpus, capsys):
    bad = tmp_path / "verdicts.tsv"
    bad.write_text("h1\t56\tff\n\nh2\t40\tff\n")
    assert main(["score", "--verdicts", str(bad), "--observations",
                 os.path.join(corpus, "observations.tsv"),
                 "--out", str(tmp_path / "r.tsv")]) == 1
    assert f"input error: {bad}:3: d=40 differs from corpus d=56" in \
        capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("components", [1.5], "components must be a list of integers, not [1.5]"),
    ("components", 3, "components must be a list of integers, not 3"),
    ("detections", [1, True], "detections must be a list of 2 integers"),
    ("suffixes", "com", "suffixes must be a list of strings, not 'com'"),
    ("suffixes", ["com", 7], "suffixes must be a list of strings"),
], ids=["components-float", "components-int", "detections-bool",
        "suffixes-str", "suffixes-mixed"])
def test_synth_spec_list_of_the_wrong_type_is_input_error(tmp_path, capsys, key,
                                                         value, message):
    spec = asdict(default_spec(seed=3, n_plds=60))
    spec[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "c")]) == 1
    assert f"input error: {path}: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "c")


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(seed=3.7), "seed must be an integer, not 3.7"),
    (lambda s: s.update(d=56.9), "d must be an integer, not 56.9"),
    (lambda s: s.update(n_plds="60"), "n_plds must be an integer, not '60'"),
    (lambda s: s.update(homophily=True), "homophily must be a number, not True"),
    (lambda s: s["pages"]["clean"].update(x_min="4"),
     "pages.clean.x_min must be a number, not '4'"),
    (lambda s: s.update(bogus=1), "unknown key 'bogus'"),
    (lambda s: s["indegree"]["malicious"].update(bogus=1),
     "unknown key 'indegree.malicious.bogus'"),
    (lambda s: s["files"].pop("clean"), "missing key 'files.clean'"),
    (lambda s: s.update(detections=[1, 2, 3]),
     "detections must be a list of 2 integers, not [1, 2, 3]"),
    (lambda s: s["out_propensity"].update(params={"alpha": "2"}),
     "out_propensity.params must be an object of numbers, not {'alpha': '2'}"),
    (lambda s: s["pages"]["clean"].update(x_min=10 ** 400),
     "int too large to convert to float"),
], ids=["seed-float", "d-float", "n_plds-str", "homophily-bool", "x_min-str",
        "unknown-key", "unknown-nested-key", "missing-nested-key",
        "detections-three", "params-str", "x_min-too-large"])
def test_synth_spec_value_of_the_wrong_type_is_input_error(tmp_path, capsys, edit,
                                                           message):
    spec = asdict(default_spec(seed=3, n_plds=60))
    edit(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "c")]) == 1
    assert f"input error: {path}: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "c")


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(homophily=2.0), "homophily must be in [0,1]"),
    (lambda s: s["pages"]["clean"].update(x_min=float("nan")),
     "x_min must be positive"),
    (lambda s: s["files"]["malicious"].update(family="bogus"),
     "unknown family 'bogus'"),
    (lambda s: s.update(suffixes=["com", "COM"]), "suffix 'COM' must be a non-empty, "
     "lowercase, plain public suffix rule"),
    (lambda s: s.update(suffixes=[""]), "suffix '' must be a non-empty"),
    (lambda s: s.update(suffixes=[".com"]), "suffix '.com' must be a non-empty"),
    (lambda s: s.update(suffixes=["*.uk"]), "suffix '*.uk' must be a non-empty"),
    (lambda s: s.update(suffixes=["!com"]), "suffix '!com' must be a non-empty"),
    (lambda s: s.update(suffixes=["com/x"]), "suffix 'com/x' must be a non-empty"),
], ids=["homophily-above-one", "x_min-nan", "family-unknown", "suffix-upper",
        "suffix-empty", "suffix-leading-dot", "suffix-wildcard", "suffix-exception",
        "suffix-slash"])
def test_synth_spec_value_out_of_range_is_input_error(tmp_path, capsys, edit, message):
    spec = asdict(default_spec(seed=3, n_plds=60))
    edit(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "c")]) == 1
    assert f"input error: {path}: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "c")
