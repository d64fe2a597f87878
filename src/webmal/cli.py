"""Command-line entry points.

One subcommand per pipeline stage plus `synth` (corpus generation) and `run`
(the full staged pipeline with a manifest). Exit codes: 0 ok, 1 bad input,
2 numerical failure, 3 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, InputError, NumericalError, WebmalError


def _add_run_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", help="page edge list TSV")
    p.add_argument("--psl", help="public suffix rules file")
    p.add_argument("--verdicts", help="verdict table TSV")
    p.add_argument("--observations", help="file observation TSV")
    p.add_argument("--alexa", help="rank table TSV")
    p.add_argument("--out-dir", dest="out_dir", help="run directory")
    p.add_argument("--tau", type=float, help="detection-ratio threshold")
    p.add_argument("--feature-set", dest="feature_set",
                   choices=("centrality", "domain", "graph", "alexa", "all"))
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--threshold", type=float, help="classification threshold")
    p.add_argument("--fit-features", dest="fit_features",
                   help="comma-separated count features to fit")
    p.add_argument("--fit-max-n", dest="fit_max_n", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--tsv", action="store_true",
                   help="also emit flat TSV mirrors of the JSON reports")


def cmd_run(args) -> None:
    from .pipeline import RunConfig, run_pipeline
    overrides = {k: getattr(args, k) for k in
                 ("edges", "psl", "verdicts", "observations", "alexa",
                  "out_dir", "tau", "feature_set", "split_seed", "threshold",
                  "fit_max_n", "epochs", "l2", "workers")}
    if args.fit_features:
        overrides["fit_features"] = tuple(
            f.strip() for f in args.fit_features.split(",") if f.strip())
    if args.tsv:
        overrides["emit_tsv"] = True
    if args.config:
        cfg = RunConfig.from_json(args.config, overrides)
    else:
        cfg = RunConfig.from_dict({k: v for k, v in overrides.items()
                                   if v is not None})
    res = run_pipeline(cfg, log=print)
    print(f"run complete: {len(res.executed)} stages executed, "
          f"{len(res.skipped)} skipped -> {res.out_dir}")


def cmd_build_graph(args) -> None:
    from .graph import build_from_file, write_graph
    from .psl import load_psl
    rules = load_psl(args.psl)
    g = build_from_file(args.edges, rules, strict=args.strict)
    write_graph(g, args.out_nodes, args.out_edges)
    print(f"graph: {g.n_nodes} PLDs, {g.n_edges} edges "
          f"({g.skipped_rows} rows skipped)")


def cmd_metrics(args) -> None:
    from .graph import read_graph
    from .metrics import compute_node_metrics, write_metrics
    g = read_graph(args.nodes, args.edges)
    m = compute_node_metrics(g, damping=args.damping)
    write_metrics(m, args.out)
    print(f"metrics for {g.n_nodes} PLDs -> {args.out}")


def cmd_score(args) -> None:
    from .reputation import (read_observations, read_verdicts, score_plds,
                             write_reputation)
    verdicts = read_verdicts(args.verdicts)
    profiles = read_observations(args.observations)
    rows = score_plds(profiles, verdicts, tau=args.tau)
    write_reputation(rows, args.out)
    n_mal = sum(r.dichotomy == "malicious" for r in rows)
    print(f"{len(rows)} PLDs scored, {n_mal} malicious -> {args.out}")


def cmd_dga(args) -> None:
    from .dga import (classify_dga, load_default_table, read_table,
                      score_pld_name)
    table = read_table(args.table) if args.table else load_default_table()
    with open(args.names, encoding="utf-8") as fh:
        names = [line.strip() for line in fh if line.strip()]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("pld\tscore\tverdict\n")
        for name in names:
            s = score_pld_name(name, table)
            fh.write(f"{name}\t{s!r}\t{classify_dga(s)}\n")
    print(f"{len(names)} names scored -> {args.out}")


def cmd_fit(args) -> None:
    from .binning import fibonacci_bins
    from .heavytail import FAMILY_ORDER, select_candidates
    values = []
    with open(args.values, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise InputError(f"{args.values}:{lineno}: not a number: "
                                 f"{line.strip()!r}") from None
    data = np.array(values)
    families = (tuple(f.strip() for f in args.families.split(","))
                if args.families else FAMILY_ORDER)
    cs = select_candidates(data, families=families, restarts=args.restarts)
    payload = {
        "n": int(len(data)),
        "selection": cs.selection,
        "flag": cs.selection_flag,
        "candidates": list(cs.candidates),
        "eliminated_by": {k: list(v) for k, v in cs.eliminated_by.items()},
        "fits": {fam: {"params": fr.params, "x_min": fr.x_min, "D": fr.D,
                       "loglik": fr.loglik, "n_tail": fr.n_tail}
                 for fam, fr in cs.fits.items() if fr is not None},
    }
    try:
        payload["histogram"] = fibonacci_bins(data).to_dict()
    except WebmalError:
        pass  # non-integer data: no binned summary
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"selection: {cs.selection} ({cs.selection_flag}) -> {args.out}")


def cmd_cooccur(args) -> None:
    from .mdn import (build_cooccurrence, components_to_json, extract_mdns,
                      write_cooccurrence)
    from .reputation import (malicious_file_sets, read_observations,
                             read_verdicts)
    verdicts = read_verdicts(args.verdicts)
    profiles = read_observations(args.observations)
    sets = malicious_file_sets(profiles, verdicts, tau=args.tau)
    if not sets:
        open(args.out_edges, "w").close()
        open(args.out_sets, "w").close()
        if args.mdn_out:
            with open(args.mdn_out, "w", encoding="utf-8") as fh:
                fh.write("[]\n")
        print("no malicious PLDs: empty co-occurrence graph")
        return
    g = build_cooccurrence(sets)
    write_cooccurrence(g, args.out_edges, args.out_sets)
    msg = f"{g.n_nodes} nodes, {g.n_edges} edges"
    if args.mdn_out:
        comps = extract_mdns(g)
        with open(args.mdn_out, "w", encoding="utf-8") as fh:
            fh.write(components_to_json(comps))
        msg += f", {len(comps)} components"
    print(msg)


def cmd_features(args) -> None:
    from .metrics import read_metrics
    from .predict import assemble_features, read_alexa, write_features
    from .pipeline import _read_dga_scores
    from .reputation import read_reputation
    mrows = read_metrics(args.metrics)
    reps = read_reputation(args.reputation)
    dga_scores = _read_dga_scores(args.dga)
    alexa = read_alexa(args.alexa) if args.alexa else {}
    fm = assemble_features(mrows, reps, dga_scores, alexa, args.feature_set)
    write_features(fm, args.out)
    print(f"{len(fm.plds)} rows x {len(fm.feature_names)} features -> {args.out}")


def cmd_train(args) -> None:
    from .graph import read_graph
    from .predict import (feature_importance, read_features,
                          run_stacked_experiment, write_model)
    fm = read_features(args.features)
    g = read_graph(args.nodes, args.edges)
    res = run_stacked_experiment(fm, g, seed=args.seed, l2=args.l2,
                                 threshold=args.threshold, epochs=args.epochs)
    write_model(res.base_model, args.out_model)
    write_model(res.stacked_model, args.out_stacked)
    payload = {
        "base": res.base_report.to_dict(),
        "stacked": res.stacked_report.to_dict(),
        "importance_base": [[n, w] for n, w in feature_importance(res.base_model)],
        "importance_stacked": [[n, w] for n, w in
                               feature_importance(res.stacked_model)],
    }
    with open(args.out_eval, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"AUC base {res.base_report.auc:.4f}, "
          f"stacked {res.stacked_report.auc:.4f} -> {args.out_eval}")


def cmd_evaluate(args) -> None:
    from .predict import evaluate, predict_proba, read_features, read_model
    model = read_model(args.model)
    fm = read_features(args.features)
    cols = [fm.feature_names.index(n) for n in model.feature_names
            if n in fm.feature_names]
    if len(cols) != len(model.feature_names):
        raise InputError("feature table lacks columns the model requires")
    probs = predict_proba(model, fm.X[:, cols])
    rep = evaluate(fm.labels, probs, threshold=args.threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rep.to_dict(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"AUC {rep.auc:.4f} F1 {rep.f1:.4f} -> {args.out}")


def cmd_synth(args) -> None:
    from .synthlab import SyntheticSpec, plant_crawl, write_corpus
    with open(args.spec, encoding="utf-8") as fh:
        spec = SyntheticSpec.from_json(fh.read())
    corpus = plant_crawl(spec)
    paths = write_corpus(corpus, args.out)
    print(f"{spec.n_plds} PLDs, {len(corpus.edges)} page edges -> {args.out}")
    for name in sorted(paths):
        print(f"  {name}: {paths[name]}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="webmal",
        description="PLD web-graph analysis: tail fits, reputation, "
                    "co-occurrence networks, and stacked classification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full staged pipeline")
    p.add_argument("--config", help="JSON config file (flags override it)")
    _add_run_overrides(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("build-graph", help="collapse page edges to a PLD graph")
    p.add_argument("--edges", required=True)
    p.add_argument("--psl", required=True)
    p.add_argument("--out-nodes", required=True)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--strict", action="store_true",
                   help="fail on unknown suffixes instead of skipping rows")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("metrics", help="local and spectral node metrics")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--damping", type=float, default=0.85)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("score", help="file and PLD reputation from verdicts")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("dga", help="score name randomness against bigrams")
    p.add_argument("--names", required=True, help="one name per line")
    p.add_argument("--table", help="bigram table JSON (default: shipped)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dga)

    p = sub.add_parser("fit", help="fit tail families to a value list")
    p.add_argument("--values", required=True, help="one number per line")
    p.add_argument("--families", help="comma-separated subset")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cooccur", help="malicious file co-occurrence graph")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-sets", required=True)
    p.add_argument("--mdn-out", help="also write component summaries JSON")
    p.set_defaults(func=cmd_cooccur)

    p = sub.add_parser("features", help="assemble the per-PLD feature table")
    p.add_argument("--metrics", required=True)
    p.add_argument("--reputation", required=True)
    p.add_argument("--dga", required=True)
    p.add_argument("--alexa")
    p.add_argument("--feature-set", dest="feature_set", default="all",
                   choices=("centrality", "domain", "graph", "alexa", "all"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train base and stacked classifiers")
    p.add_argument("--features", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l2", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=20000)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-stacked", required=True)
    p.add_argument("--out-eval", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a feature table with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (InputError, WebmalError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
