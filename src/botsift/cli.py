"""Command-line entry point: capture summaries, feature extraction,
training, evaluation, sweeps, cross-capture tests, bootstrap studies,
feature selection, and synthetic capture generation.

Exit codes: 0 success, 2 usage error, 1 runtime error. Every run
prints its full effective configuration, defaults and seeds included,
so any report can be reproduced from its own header.

botsift runs on one thread. The `threads` option is still accepted,
and echoed in the configuration, but it is ignored. Model fits run with
one BLAS thread; scoring uses numpy's default BLAS thread pool.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import flows, reports, selection, synth, windows
from .evaluation import (cross_scenario_eval, hyperparam_sweep,
                         repeated_eval)
from .models import FAMILIES, load_artifact, make_params, train_model

DEFAULT_SEED = 42


def coerce_value(text: str):
    """CLI hyperparameter values: int, float, bool, none, int tuple
    ("256,128"), else string."""
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low == "none":
        return None
    if "," in text:
        return tuple(coerce_value(part) for part in text.split(","))
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_hp(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"hyperparameter {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        out[key.replace("-", "_")] = coerce_value(value)
    return out


def echo_config(args: argparse.Namespace, extra: dict = None) -> None:
    print("effective config:")
    values = {**vars(args)}
    values.pop("func", None)
    for key in sorted(values):
        print(f"  {key} = {values[key]}")
    for key in sorted(extra or {}):
        print(f"  {key} = {extra[key]}")


def resolved_params(family: str, hp_pairs, seed) -> object:
    overrides = parse_hp(hp_pairs)
    overrides.setdefault("seed", seed)
    return make_params(family, overrides)


def dataset_name(ds: windows.Dataset, path: str) -> str:
    return str(ds.meta.get("scenario")
               or os.path.splitext(os.path.basename(path))[0])


def report(table: reports.Table, args, *lines) -> int:
    """Prints table and lines, then writes the table to --out-csv if one
    was given."""
    print(table.to_text(), end="")
    for line in lines:
        print(line)
    if args.out_csv:
        table.write_csv(args.out_csv)
        print(f"wrote {args.out_csv}")
    return 0


def cmd_summarize(args) -> int:
    echo_config(args)
    table = flows.load_scenario(args.flows)
    stats = table.parse_stats
    print(f"rows accepted: {stats.accepted}")
    print(f"rows rejected: {stats.rejected}")
    for reason in sorted(stats.reason_counts):
        print(f"  {reason}: {stats.reason_counts[reason]}")
    summary = flows.summarize(table)
    for column in sorted(summary.numeric):
        info = summary.numeric[column]
        if info is None:
            print(f"{column}: empty")
            continue
        print(f"{column}: min={info.min:g} max={info.max:g} "
              f"mean={info.mean:g} std={info.std:g} "
              f"median={info.median:g} q3={info.q3:g}")
    for column in sorted(summary.categorical):
        info = summary.categorical[column]
        top = ", ".join(f"{v} ({c})" for v, c in info.top[:5])
        print(f"{column}: {info.distinct} distinct; top: {top}")
    return 0


def cmd_extract(args) -> int:
    echo_config(args)
    table = flows.load_scenario(args.flows)
    cfg = windows.WindowConfig(width=args.width, stride=args.stride)
    ds = windows.build_dataset(table, cfg, scenario=args.scenario)
    windows.write_features(ds, args.out)
    botnet = int(np.sum(ds.labels))
    print(f"flows accepted: {table.parse_stats.accepted}")
    print(f"feature rows: {ds.n} ({botnet} botnet)")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    hp = resolved_params(args.model, args.hp, args.seed)
    echo_config(args, {"resolved_hyperparams": hp})
    ds = windows.load_features(args.features)
    artifact = train_model(args.model, ds, hp)
    artifact.save(args.out)
    print(f"trained {args.model} on {ds.n} rows; wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    artifact = load_artifact(args.model_file)
    hp = make_params(artifact.family, dict(artifact.hyperparams))
    echo_config(args, {"family": artifact.family,
                       "resolved_hyperparams": hp})
    ds = windows.load_features(args.features)
    rm = repeated_eval(ds, artifact.family, hp, args.runs, args.seed,
                       args.train_frac)
    name = dataset_name(ds, args.features)
    title = (f"{artifact.family} on {name}: {args.runs} run(s), "
             f"train fraction {args.train_frac:g}, seed {args.seed}")
    return report(reports.eval_table(name, ds, rm, title), args)


def cmd_sweep(args) -> int:
    grid_axes = {}
    for axis_text in args.grid:
        if "=" not in axis_text:
            raise ValueError(f"grid {axis_text!r} is not key=v1,v2,...")
        key, values = axis_text.split("=", 1)
        grid_axes[key.replace("-", "_")] = [coerce_value(v)
                                            for v in values.split(",")]
    points = [parse_hp(args.hp)]  # a grid axis overrides the same --hp key
    for key, values in grid_axes.items():
        points = [{**p, key: v} for p in points for v in values]
    for p in points:
        p.setdefault("seed", args.seed)
    echo_config(args, {"grid_points": len(points)})
    ds = windows.load_features(args.features)
    sweep = hyperparam_sweep(ds, args.model, points, args.runs,
                             args.seed, args.train_frac)
    title = (f"sweep {args.model} on {dataset_name(ds, args.features)}: "
             f"{args.runs} run(s) per point, seed {args.seed}")
    lines = []
    if sweep.best is not None:
        best = " ".join(f"{k}={v}" for k, v in sweep.best.params.items())
        lines.append(f"best: {best}")
    return report(reports.sweep_table(sweep, title), args, *lines)


def cmd_crossscen(args) -> int:
    hp = resolved_params(args.model, args.hp, args.seed)
    echo_config(args, {"resolved_hyperparams": hp})
    train_ds = windows.load_features(args.train)
    test_ds = windows.load_features(args.test)
    metrics = cross_scenario_eval(train_ds, test_ds, args.model, hp)
    train_name = dataset_name(train_ds, args.train)
    test_name = dataset_name(test_ds, args.test)
    title = f"{args.model}: train on {train_name}, test on {test_name}"
    return report(reports.cross_scenario_table(train_name, test_name,
                                               test_ds, metrics, title),
                  args)


def cmd_bootstrap_eval(args) -> int:
    hp = resolved_params(args.model, args.hp, args.seed)
    echo_config(args, {"resolved_hyperparams": hp})
    ds = windows.load_features(args.features)
    name = dataset_name(ds, args.features)
    rm = repeated_eval(ds, args.model, hp, args.runs, args.seed,
                       args.train_frac, bootstrap_factor=args.factor)
    title = (f"{args.model} on {name}: training data x{args.factor}, "
             f"{args.runs} run(s), seed {args.seed}")
    return report(reports.eval_table(name, ds, rm, title), args)


def cmd_select(args) -> int:
    echo_config(args)
    ds = windows.load_features(args.features)
    name = dataset_name(ds, args.features)
    lines = []
    if args.method == "filter":
        result = selection.filter_select(ds, args.threshold,
                                         args.redundancy)
        table = reports.filter_table(
            result, f"filter selection on {name}: |r| > {args.threshold:g}")
        lines.append("selected: " + " ".join(result.selected))
        if args.corr_csv:
            matrix = selection.correlation_matrix(ds)
            selection.write_correlation_csv(matrix, ds.feature_names,
                                            args.corr_csv)
            lines.append(f"wrote {args.corr_csv}")
    elif args.method == "backward":
        hp = resolved_params(args.model, args.hp, args.seed)
        trace = selection.backward_elimination(ds, args.model, hp,
                                               args.seed)
        table = reports.trace_table(
            trace, f"backward elimination on {name} with {args.model}")
        print(table.to_text(), end="")
        final = trace.steps[-1].feature_subset
        print("final subset: " + " ".join(final))
        if args.out_csv:
            selection.write_trace_csv(trace, args.out_csv)
            print(f"wrote {args.out_csv}")
        return 0
    elif args.method == "importance":
        if args.model != "rf":
            raise ValueError("importance selection requires --model rf")
        hp = resolved_params("rf", args.hp, args.seed)
        artifact = train_model("rf", ds, hp)
        table = reports.importance_table(
            ds.feature_names,
            artifact.parameters["feature_importances"],
            f"forest importances on {name}")
    else:  # pca
        table = reports.pca_table(selection.pca(ds, args.k),
                                  f"pca on {name}: top {args.k} components")
    return report(table, args, *lines)


def cmd_synth(args) -> int:
    cfg = synth.load_synth_config(args.config)
    echo_config(args, {"resolved_config": cfg})
    table = synth.generate_scenario(cfg)
    flows.write_flow_csv(table, args.out)
    botnet = int(table.label.matches(
        lambda label: windows.BOTNET_MARKER in label).sum())
    print(f"generated {len(table)} flows "
          f"({botnet} botnet); wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botsift",
        description="Botnet detection toolkit for bidirectional "
                    "NetFlow captures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model_flag=True, seed=True):
        if model_flag:
            p.add_argument("--model", choices=FAMILIES, default="rf")
            p.add_argument("--hp", action="append", metavar="KEY=VALUE",
                           help="hyperparameter override, repeatable")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--threads", type=int, default=1,
                       help="has no effect: botsift runs on one thread")

    p = sub.add_parser("summarize", help="ingest a capture and print "
                                         "per-column statistics")
    p.add_argument("flows")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("extract", help="aggregate flows into "
                                       "per-source window features")
    p.add_argument("flows")
    p.add_argument("--width", type=float, default=120.0)
    p.add_argument("--stride", type=float, default=60.0)
    p.add_argument("--scenario", default=None,
                   help="capture name stored in the feature file")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one model on a feature file")
    p.add_argument("features")
    add_common(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="repeated split/train/test runs "
                                    "from a saved model's settings")
    p.add_argument("features")
    p.add_argument("--model-file", required=True)
    p.add_argument("--train-frac", type=float, default=2.0 / 3.0)
    p.add_argument("--runs", type=int, default=1)
    add_common(p, model_flag=False)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid search with repeated "
                                     "evaluation per point")
    p.add_argument("features")
    add_common(p)
    p.add_argument("--grid", action="append", required=True,
                   metavar="KEY=V1,V2,...")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--train-frac", type=float, default=2.0 / 3.0)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("crossscen", help="train on one capture, test "
                                         "on another")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    add_common(p)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_crossscen)

    p = sub.add_parser("bootstrap-eval", help="repeated evaluation with "
                                              "bootstrap-enlarged "
                                              "training data")
    p.add_argument("features")
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--train-frac", type=float, default=2.0 / 3.0)
    add_common(p)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_bootstrap_eval)

    p = sub.add_parser("select", help="feature-selection studies")
    p.add_argument("features")
    p.add_argument("--method", required=True,
                   choices=("filter", "backward", "importance", "pca"))
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--redundancy", type=float, default=0.95)
    p.add_argument("--k", type=int, default=2,
                   help="component count for --method pca")
    add_common(p)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--corr-csv", default=None,
                   help="tidy correlation matrix output (filter only)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("synth", help="generate a synthetic capture")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--out", required=True)
    add_common(p, model_flag=False, seed=False)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
