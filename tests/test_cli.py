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


def test_individual_stage_commands(tmp_path, corpus):
    edges = os.path.join(corpus, "edges.tsv")
    psl = os.path.join(corpus, "psl.dat")
    verdicts = os.path.join(corpus, "verdicts.tsv")
    observations = os.path.join(corpus, "observations.tsv")
    nodes_out = str(tmp_path / "gnodes.tsv")
    edges_out = str(tmp_path / "gedges.tsv")
    assert main(["build-graph", "--edges", edges, "--psl", psl,
                 "--out-nodes", nodes_out, "--out-edges", edges_out]) == 0

    metrics_out = str(tmp_path / "metrics.tsv")
    assert main(["metrics", "--nodes", nodes_out, "--edges", edges_out,
                 "--out", metrics_out]) == 0

    rep_out = str(tmp_path / "reputation.tsv")
    assert main(["score", "--verdicts", verdicts, "--observations",
                 observations, "--tau", "0.0", "--out", rep_out]) == 0

    names_path = str(tmp_path / "names.txt")
    with open(nodes_out) as fh:
        fh.readline()
        plds = [line.split("\t")[0] for line in fh]
    with open(names_path, "w") as fh:
        fh.write("\n".join(plds) + "\n")
    dga_out = str(tmp_path / "dga.tsv")
    assert main(["dga", "--names", names_path, "--out", dga_out]) == 0

    coedges = str(tmp_path / "cooccur_edges.tsv")
    cosets = str(tmp_path / "cooccur_sets.tsv")
    mdns = str(tmp_path / "mdns.json")
    assert main(["cooccur", "--verdicts", verdicts, "--observations",
                 observations, "--out-edges", coedges, "--out-sets", cosets,
                 "--mdn-out", mdns]) == 0
    assert json.loads(open(mdns).read())

    feats = str(tmp_path / "features.tsv")
    assert main(["features", "--metrics", metrics_out, "--reputation",
                 rep_out, "--dga", dga_out,
                 "--alexa", os.path.join(corpus, "alexa.tsv"),
                 "--out", feats]) == 0

    model = str(tmp_path / "model.json")
    stacked = str(tmp_path / "stacked.json")
    ev = str(tmp_path / "eval.json")
    assert main(["train", "--features", feats, "--nodes", nodes_out,
                 "--edges", edges_out, "--epochs", "500",
                 "--out-model", model, "--out-stacked", stacked,
                 "--out-eval", ev]) == 0
    rep = json.loads(open(ev).read())
    assert 0.0 <= rep["base"]["AUC"] <= 1.0

    ev2 = str(tmp_path / "eval2.json")
    assert main(["evaluate", "--model", model, "--features", feats,
                 "--out", ev2]) == 0
    assert "AUC" in json.loads(open(ev2).read())


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
    assert "histogram" in payload


def test_fit_malformed_value_is_input_error(tmp_path, capsys):
    path = tmp_path / "values.txt"
    path.write_text("3\n\n5\nabc\n7\n")
    rc = main(["fit", "--values", str(path), "--out", str(tmp_path / "fit.json")])
    assert rc == 1
    assert f"input error: {path}:4: not a number: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


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
