"""Subcommand wiring and exit codes."""

import json
import os

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
    spec_path.write_text(spec.to_json())
    out = root / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return str(out)


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
    run_eval = json.loads((run_dir / "eval.json").read_text())
    for key in ("config_hash", "feature_set", "split"):
        del run_eval[key]
    assert json.loads(open(cli["eval.json"]).read()) == run_eval

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
    reputation.write_text("a.com\tclean\t0.0\t1\t1\t0.0\n"
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
     "reputation.tsv:2: not a number: 'x'"),
    ("reputation", "clean\t0.0\t1\t1\t0.0", "clean\t0.0\t1\t1\t?",
     "reputation.tsv:1: not a number: '?'"),
    ("reputation", "malicious\t1.0\t1", "malicious\t1.0\tx",
     "reputation.tsv:2: not an integer: 'x'"),
    ("reputation", "clean\t0.0\t1\t1", "clean\t0.0\t1\t1.5",
     "reputation.tsv:1: not an integer: '1.5'"),
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
