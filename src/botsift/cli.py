"""Command-line entry point: capture summaries, feature extraction,
training, evaluation, sweeps, cross-capture tests, bootstrap studies,
feature selection, and synthetic capture generation.

Exit codes: 0 success, 2 usage error, 1 runtime error. Every run
prints its full effective configuration, defaults and seeds included,
so any report can be reproduced from its own header; `resolved_params`
adds the hyperparameters of a model fit. Shared options are declared
once, as parent parsers, and `report` prints and writes every table.
`eval --model-file` refits an artifact's family and hyperparameters.

botsift runs on one thread. The `threads` option is still accepted,
and echoed in the configuration, but it is ignored. Model fits run with
one BLAS thread; scoring uses numpy's default BLAS thread pool.
"""

from __future__ import annotations

import argparse
import functools
import io
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
        key = key.replace("-", "_")
        if key in out:
            raise ValueError(f"hyperparameter {key} is given twice")
        out[key] = coerce_value(value)
    return out


def echo_config(args: argparse.Namespace, extra: dict = None) -> None:
    print("effective config:")
    values = {**vars(args)}
    values.pop("func", None)
    for key in sorted(values):
        print(f"  {key} = {values[key]}")
    for key in sorted(extra or {}):
        print(f"  {key} = {extra[key]}")


def resolved_params(args: argparse.Namespace) -> object:
    """--model's params from --hp and --seed, echoed with the config."""
    overrides = parse_hp(args.hp)
    overrides.setdefault("seed", args.seed)
    hp = make_params(args.model, overrides)
    echo_config(args, {"resolved_hyperparams": hp})
    return hp


def load_named(path: str):
    """A feature file and its name: its scenario, else its base name."""
    ds = windows.load_features(path)
    return ds, ds.scenario or os.path.splitext(os.path.basename(path))[0]


def report(table: reports.Table, args, *lines, write=None) -> int:
    """Prints table and lines; given --out-csv, writes the table there, or
    calls write(path) in its place."""
    print(table.to_text(), end="")
    for line in lines:
        print(line)
    if args.out_csv:
        (write or table.write_csv)(args.out_csv)
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
    hp = resolved_params(args)
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
    ds, name = load_named(args.features)
    rm = repeated_eval(ds, artifact.family, hp, args.runs, args.seed,
                       args.train_frac)
    title = (f"{artifact.family} on {name}: {args.runs} run(s), "
             f"train fraction {args.train_frac:g}, seed {args.seed}")
    return report(reports.eval_table(name, ds, rm, title), args)


def cmd_sweep(args) -> int:
    grid_axes = {}
    for axis_text in args.grid:
        if "=" not in axis_text:
            raise ValueError(f"grid {axis_text!r} is not key=v1,v2,...")
        key, values = axis_text.split("=", 1)
        key = key.replace("-", "_")
        if key in grid_axes:
            raise ValueError(f"grid axis {key} is given twice")
        grid_axes[key] = [coerce_value(v) for v in values.split(",")]
    points = [parse_hp(args.hp)]  # a grid axis overrides the same --hp key
    for key, values in grid_axes.items():
        points = [{**p, key: v} for p in points for v in values]
    for p in points:
        p.setdefault("seed", args.seed)
        make_params(args.model, p)  # refuse a bad point before any read
    echo_config(args, {"grid_points": len(points)})
    ds, name = load_named(args.features)
    sweep = hyperparam_sweep(ds, args.model, points, args.runs,
                             args.seed, args.train_frac)
    title = (f"sweep {args.model} on {name}: "
             f"{args.runs} run(s) per point, seed {args.seed}")
    lines = []
    if sweep.best is not None:
        best = " ".join(f"{k}={v}" for k, v in sweep.best.params.items())
        lines.append(f"best: {best}")
    return report(reports.sweep_table(sweep, title), args, *lines)


def cmd_crossscen(args) -> int:
    hp = resolved_params(args)
    train_ds, train_name = load_named(args.train)
    test_ds, test_name = load_named(args.test)
    metrics = cross_scenario_eval(train_ds, test_ds, args.model, hp)
    title = f"{args.model}: train on {train_name}, test on {test_name}"
    return report(reports.cross_scenario_table(train_name, test_name,
                                               test_ds, metrics, title),
                  args)


def cmd_bootstrap_eval(args) -> int:
    hp = resolved_params(args)
    ds, name = load_named(args.features)
    rm = repeated_eval(ds, args.model, hp, args.runs, args.seed,
                       args.train_frac, bootstrap_factor=args.factor)
    title = (f"{args.model} on {name}: training data x{args.factor}, "
             f"{args.runs} run(s), seed {args.seed}")
    return report(reports.eval_table(name, ds, rm, title), args)


def cmd_select(args) -> int:
    if args.corr_csv and args.method != "filter":
        raise ValueError("--corr-csv needs --method filter")
    if args.method == "importance" and args.model != "rf":
        raise ValueError("importance selection requires --model rf")
    if args.method in ("backward", "importance"):
        hp = resolved_params(args)
    else:
        echo_config(args)
    ds, name = load_named(args.features)
    lines, write = [], None
    if args.method == "filter":
        result = selection.filter_select(ds, args.threshold,
                                         args.redundancy)
        table = reports.filter_table(
            result, f"filter selection on {name}: |r| > {args.threshold:g}")
        lines.append("selected: " + " ".join(result.selected))
        if args.corr_csv:
            selection.write_correlation_csv(result.correlations,
                                            ds.feature_names, args.corr_csv)
            lines.append(f"wrote {args.corr_csv}")
    elif args.method == "backward":
        trace = selection.backward_elimination(ds, args.model, hp,
                                               args.seed)
        table = reports.trace_table(
            trace, f"backward elimination on {name} with {args.model}")
        lines.append("final subset: "
                     + " ".join(trace.steps[-1].feature_subset))
        write = functools.partial(selection.write_trace_csv, trace)
    elif args.method == "importance":
        artifact = train_model("rf", ds, hp)
        table = reports.importance_table(
            ds.feature_names,
            artifact.parameters["feature_importances"],
            f"forest importances on {name}")
    else:  # pca
        table = reports.pca_table(selection.pca(ds, args.k),
                                  f"pca on {name}: top {args.k} components")
    return report(table, args, *lines, write=write)


def cmd_synth(args) -> int:
    cfg = synth.load_synth_config(args.config)
    echo_config(args, {"resolved_config": cfg})
    table = synth.generate_scenario(cfg)
    flows.write_flow_csv(table, args.out)
    botnet = int(windows.botnet_flows(table).sum())
    print(f"generated {len(table)} flows "
          f"({botnet} botnet); wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botsift",
        description="Botnet detection toolkit for bidirectional "
                    "NetFlow captures")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(*flags, **kwargs):
        """A parent parser declaring one option that commands share."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    def runs(default):
        # one per command: set_defaults on a shared parent's --runs
        # would change the --runs default of every command using it
        parent = group("--runs", type=int, default=default)
        parent.add_argument("--train-frac", type=float, default=2.0 / 3.0)
        return parent

    features = group("features")
    out = group("-o", "--out", required=True)
    out_csv = group("--out-csv", default=None)
    seed = group("--seed", type=int, default=DEFAULT_SEED)
    threads = group("--threads", type=int, default=1,
                    help="has no effect: botsift runs on one thread")
    model = group("--model", choices=FAMILIES, default="rf")
    model.add_argument("--hp", action="append", metavar="KEY=VALUE",
                       help="hyperparameter override, repeatable")
    fitting = [model, seed, threads]

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("summarize", cmd_summarize, [],
                "ingest a capture and print per-column statistics")
    p.add_argument("flows")

    p = command("extract", cmd_extract, [out],
                "aggregate flows into per-source window features")
    p.add_argument("flows")
    p.add_argument("--width", type=float, default=120.0)
    p.add_argument("--stride", type=float, default=60.0)
    p.add_argument("--scenario", default=None,
                   help="capture name stored in the feature file")

    command("train", cmd_train, [features, *fitting, out],
            "train one model on a feature file")

    p = command("eval", cmd_eval,
                [features, runs(1), seed, threads, out_csv],
                "repeated split/train/test runs from a saved model's "
                "settings")
    p.add_argument("--model-file", required=True)

    p = command("sweep", cmd_sweep,
                [features, *fitting, runs(3), out_csv],
                "grid search with repeated evaluation per point")
    p.add_argument("--grid", action="append", required=True,
                   metavar="KEY=V1,V2,...")

    p = command("crossscen", cmd_crossscen, [*fitting, out_csv],
                "train on one capture, test on another")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)

    p = command("bootstrap-eval", cmd_bootstrap_eval,
                [features, *fitting, runs(10), out_csv],
                "repeated evaluation with bootstrap-enlarged training data")
    p.add_argument("--factor", type=int, required=True)

    p = command("select", cmd_select, [features, *fitting, out_csv],
                "feature-selection studies")
    p.add_argument("--method", required=True,
                   choices=("filter", "backward", "importance", "pca"))
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--redundancy", type=float, default=0.95)
    p.add_argument("--k", type=int, default=2,
                   help="component count for --method pca")
    p.add_argument("--corr-csv", default=None,
                   help="tidy correlation matrix output (filter only)")

    p = command("synth", cmd_synth, [threads, out],
                "generate a synthetic capture")
    p.add_argument("--config", required=True)

    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):  # UTF-8, as files are
        sys.stdout.reconfigure(encoding="utf-8")
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
