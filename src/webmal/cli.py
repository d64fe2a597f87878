"""Command-line entry points.

One subcommand per pipeline stage, each a call of the stage body in
`pipeline` that `run` calls too (`dga` and `fit` call the function that
their stage's body applies to every name or every value list), plus `synth`
(corpus generation) and `run` (the full staged pipeline with a manifest).
Exit codes: 0 ok, 1 bad input, 2 numerical failure, 3 bad configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import ConfigError, InputError, NumericalError, WebmalError
from .predict import FEATURE_SETS


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip())


def _add_run_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", help="page edge list TSV")
    p.add_argument("--psl", help="public suffix rules file")
    p.add_argument("--verdicts", help="verdict table TSV")
    p.add_argument("--observations", help="file observation TSV")
    p.add_argument("--alexa", help="rank table TSV")
    p.add_argument("--out-dir", dest="out_dir", help="run directory")
    p.add_argument("--tau", type=float, help="detection-ratio threshold")
    p.add_argument("--feature-set", dest="feature_set",
                   choices=tuple(FEATURE_SETS))
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--threshold", type=float, help="classification threshold")
    p.add_argument("--fit-features", dest="fit_features", type=_name_list,
                   help="comma-separated count features to fit")
    p.add_argument("--fit-max-n", dest="fit_max_n", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--l2", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--tsv", dest="emit_tsv", action="store_true", default=None,
                   help="also emit flat TSV mirrors of the JSON reports")


def cmd_run(args) -> None:
    from .pipeline import RunConfig, run_pipeline
    # every RunConfig field that _add_run_overrides parsed; None: flag not given
    names = {f.name for f in fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in names and v is not None}
    if args.config:
        cfg = RunConfig.from_json(args.config, overrides)
    else:
        cfg = RunConfig.from_dict(overrides)
    res = run_pipeline(cfg, log=print)
    print(f"run complete: {len(res.executed)} stages executed, "
          f"{len(res.skipped)} skipped -> {res.out_dir}")


def cmd_build_graph(args) -> None:
    from .pipeline import build_graph
    g = build_graph(args.edges, args.psl, args.out_nodes, args.out_edges,
                    strict_hosts=args.strict)
    print(f"graph: {g.n_nodes} PLDs, {g.n_edges} edges "
          f"({g.skipped_rows} rows skipped)")


def cmd_metrics(args) -> None:
    from .pipeline import node_metrics
    m = node_metrics(args.nodes, args.edges, args.out, damping=args.damping)
    print(f"metrics for {len(m.plds)} PLDs -> {args.out}")


def cmd_score(args) -> None:
    from .pipeline import score_reputation
    rep = score_reputation(args.verdicts, args.observations, args.out,
                           tau=args.tau)
    print(f"{len(rep.plds)} PLDs scored, {rep.malicious.sum()} malicious -> {args.out}")


def cmd_dga(args) -> None:
    from .dga import read_freq_table
    from .pipeline import score_names
    from .tables import read_table
    table = read_freq_table(args.table) if args.table else None
    names = [n.strip() for n in read_table(args.names, None, (str,))[0] if n.strip()]
    score_names(names, args.out, table=table)
    print(f"{len(names)} names scored -> {args.out}")


def cmd_fit(args) -> None:
    from .pipeline import fit_values
    from .tables import read_table, write_json
    (values,) = read_table(args.values, None, (float,))
    params = {"restarts": args.restarts}
    if args.families:
        params["families"] = tuple(f.strip() for f in args.families.split(","))
    payload = fit_values(values, **params)
    write_json(payload, args.out)
    print(f"selection: {payload['selection']} ({payload['flag']}) -> {args.out}")


def cmd_cooccur(args) -> None:
    from .mdn import mdn_components
    from .pipeline import build_cooccur
    from .tables import write_json
    g = build_cooccur(args.verdicts, args.observations, args.out_edges,
                      args.out_sets, tau=args.tau)
    msg = f"{g.n_nodes} nodes, {g.n_edges} edges"
    if args.mdn_out:
        comps = mdn_components(g)
        write_json(comps, args.mdn_out)
        msg += f", {len(comps)} components"
    print(msg if g.n_nodes else "no malicious PLDs: empty co-occurrence graph")


def cmd_features(args) -> None:
    from .pipeline import assemble_feature_table
    fm = assemble_feature_table(args.metrics, args.reputation, args.dga,
                                args.alexa, args.out, feature_set=args.feature_set)
    print(f"{len(fm.plds)} rows x {len(fm.feature_names)} features -> {args.out}")


def cmd_train(args) -> None:
    from .pipeline import train_classifiers
    res = train_classifiers(
        args.features, args.nodes, args.edges, args.out_model, args.out_stacked,
        args.out_eval, split_seed=args.seed, l2=args.l2, threshold=args.threshold,
        epochs=args.epochs)
    print(f"AUC base {res.base_report.auc:.4f}, "
          f"stacked {res.stacked_report.auc:.4f} -> {args.out_eval}")


def cmd_evaluate(args) -> None:
    from .predict import evaluate, predict_proba, read_features, read_model
    from .tables import write_json
    model = read_model(args.model)
    fm = read_features(args.features)
    cols = [fm.feature_names.index(n) for n in model.feature_names
            if n in fm.feature_names]
    if len(cols) != len(model.feature_names):
        raise InputError("feature table lacks columns the model requires")
    probs = predict_proba(model, fm.X[:, cols])
    rep = evaluate(fm.labels, probs, threshold=args.threshold)
    write_json(rep.to_dict(), args.out)
    print(f"AUC {rep.auc:.4f} F1 {rep.f1:.4f} -> {args.out}")


def cmd_synth(args) -> None:
    from .synthlab import plant_crawl, read_spec, write_corpus
    spec = read_spec(args.spec)
    corpus = plant_crawl(spec)
    paths = write_corpus(corpus, args.out)
    print(f"{spec.n_plds} PLDs, {len(corpus.sources)} page edges -> {args.out}")
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
                   help="skip rows whose host no suffix rule matches, instead "
                        "of taking the host's last label as its suffix")
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
                   choices=tuple(FEATURE_SETS))
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
