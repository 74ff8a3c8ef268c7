"""Command-line front end: summary, train, evaluate, explain.

One subcommand per process. Reports print as human-readable text on
stdout; `--json PATH` writes the canonical JSON report (`-` for stdout)
and `--svg PATH` writes a static chart where the mode has one. Every
JSON report embeds a run manifest, and report files are written
atomically so a failing run leaves nothing behind.

Exit codes: 0 success, 2 usage or validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .dataset import impute_missing, load_csv, monthly_means, split
from .errors import ConfigError, DatasetError, FloodXaiError
from .explain import (
    EXHAUSTIVE,
    LimeConfig,
    ShapConfig,
    compare_explanations,
    explain_local,
    global_importance,
    kernel_shap,
)
from .manifest import build_manifest, canonical_json, write_report, write_text
from .metrics import evaluate, render_table
from .models import (
    KINDS,
    MODEL_KINDS,
    model_from_dict,
    model_kind,
    read_model_file,
    save_model,
    train_model,
)
from .render import (
    bar_chart,
    svg_bar_chart,
    svg_two_sided_bar_chart,
    two_sided_bar_chart,
)

DISPLAY_NAMES = {kind: entry.display_name for kind, entry in KINDS.items()}
# train flag -> (config field, help); a flag applies to the kinds whose config has the field
HYPERPARAMETER_FLAGS = {
    "--k": ("k", "neighbor count"),
    "--max-depth": ("max_depth", "depth cap"),
    "--c": ("C", "soft-margin C"),
    "--lr": ("learning_rate", "learning rate"),
    "--epochs": ("epochs", "training epochs"),
}
_IMPUTE_CHOICES = ("column-mean", "zero")


def _version():
    from . import __version__

    return __version__


def _add_common_io(sub, svg=True):
    sub.add_argument("--data", required=True, metavar="CSV", help="rainfall CSV file")
    sub.add_argument(
        "--impute",
        choices=_IMPUTE_CHOICES,
        default="column-mean",
        help="fill strategy for missing rainfall cells (default: column-mean)",
    )
    sub.add_argument(
        "--json",
        metavar="PATH",
        help="write the JSON report to PATH ('-' prints it to stdout)",
    )
    if svg:
        sub.add_argument("--svg", metavar="PATH", help="write an SVG chart to PATH")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="floodxai",
        description="Flood prediction from monthly rainfall, with explanations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "summary", help="dataset overview: counts, missing cells, monthly means"
    )
    _add_common_io(p)
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("train", help="train a classifier and save it as JSON")
    _add_common_io(p, svg=False)
    p.add_argument("--model", required=True, choices=MODEL_KINDS, help="model kind")
    p.add_argument("--seed", type=int, default=42, help="split seed (default 42)")
    p.add_argument(
        "--split", type=float, default=0.7, help="train fraction (default 0.7)"
    )
    p.add_argument(
        "--out", metavar="PATH", help="model output path (default <kind>_model.json)"
    )
    for flag, (field, text) in HYPERPARAMETER_FLAGS.items():
        kinds = _flag_kinds(field)
        default = getattr(KINDS[kinds[0]].config_class(), field)
        p.add_argument(
            flag, dest=field, type=type(default), help=f"{text} ({', '.join(kinds)})"
        )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score saved models on a dataset partition")
    _add_common_io(p, svg=False)
    p.add_argument(
        "--model", required=True, nargs="+", metavar="PATH", help="model JSON file(s)"
    )
    p.add_argument(
        "--seed",
        type=int,
        help="split seed (default: the seed recorded in the model files)",
    )
    p.add_argument(
        "--split", type=float, help="train fraction (default: from the model files)"
    )
    p.add_argument(
        "--on",
        choices=("test", "train", "all"),
        default="test",
        help="partition to score (default test)",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="SHAP and LIME explanation reports")
    _add_common_io(p)
    p.add_argument("--model", required=True, metavar="PATH", help="model JSON file")
    p.add_argument(
        "--mode",
        required=True,
        choices=("global-shap", "local-shap", "local-lime", "compare"),
    )
    p.add_argument("--year", type=int, help="instance year (local modes and compare)")
    p.add_argument(
        "--background",
        choices=("trainset", "mean"),
        default="trainset",
        help="masked-feature reference: training rows or their mean (default trainset)",
    )
    p.add_argument(
        "--samples",
        default=EXHAUSTIVE,
        help="coalition budget for SHAP modes (integer or 'exhaustive'); "
        "perturbation count for local-lime (default 2000)",
    )
    p.add_argument("--seed", type=int, default=0, help="explainer sampling seed")
    p.add_argument("--bins", type=int, default=4, help="discretizer bins (lime)")
    p.add_argument(
        "--kernel-width",
        type=float,
        dest="kernel_width",
        help="proximity kernel width (lime; default 0.75*sqrt(12))",
    )
    p.add_argument(
        "--top-features",
        type=int,
        dest="top_features",
        help="condition count for lime (default 6) / top-k for compare (default 5)",
    )
    p.set_defaults(func=cmd_explain)
    return parser


def _emit_json(path, report):
    if path == "-":
        sys.stdout.write(canonical_json(report))
    else:
        write_report(path, report)
        print(f"json report -> {path}")


def _emit_svg(path, svg_text):
    write_text(path, svg_text)
    print(f"svg chart -> {path}")


def _load_imputed(args):
    return impute_missing(load_csv(args.data), args.impute)


def cmd_summary(args):
    dataset = _load_imputed(args)
    means = monthly_means(dataset)
    labels = dataset.labels()
    years = dataset.years()
    n_flood = int(labels.sum())
    print(f"records: {len(dataset)} (years {min(years)}..{max(years)})")
    print(f"flood years: {n_flood}   no-flood years: {len(dataset) - n_flood}")
    if dataset.imputations:
        print(f"imputed cells ({len(dataset.imputations)}; year,month,value,strategy):")
        for line in dataset.imputations:
            print(f"  {line.as_line()}")
    else:
        print("imputed cells: none")
    print("\nmean monthly rainfall (mm):")
    print(bar_chart(dataset.feature_names, means))

    manifest = build_manifest(
        "summary", args.data, _version(), hyperparameters={"impute": args.impute}
    )
    report = {
        "schema": "floodxai.summary",
        "schema_version": 1,
        "n_records": len(dataset),
        "year_range": [min(years), max(years)],
        "n_flood": n_flood,
        "n_no_flood": len(dataset) - n_flood,
        "monthly_means": [
            {"month": name, "mean_mm": float(value)}
            for name, value in zip(dataset.feature_names, means)
        ],
        "imputations": [
            {
                "year": cell.year,
                "month": cell.month,
                "value": cell.value,
                "strategy": cell.strategy,
            }
            for cell in dataset.imputations
        ],
        "manifest": manifest,
    }
    if args.json:
        _emit_json(args.json, report)
    if args.svg:
        _emit_svg(
            args.svg,
            svg_bar_chart(dataset.feature_names, means, "Mean monthly rainfall (mm)"),
        )
    return 0


def _flag_kinds(field):
    """The kinds a hyperparameter flag applies to: those whose config has its field."""
    return [k for k, e in KINDS.items() if field in {f.name for f in fields(e.config_class)}]


def _build_train_config(args):
    """The kind's default config with the given flags applied; errors name the flag."""
    config = KINDS[args.model].config_class()
    for flag, (field, _) in HYPERPARAMETER_FLAGS.items():
        value = getattr(args, field)
        if value is None:
            continue
        if args.model not in _flag_kinds(field):
            raise ConfigError(f"{flag} does not apply to --model {args.model}")
        # defaults are valid, so the flag just applied is the one validate rejects
        config = replace(config, **{field: value})
        try:
            config.validate()
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from None
    return config


def cmd_train(args):
    config = _build_train_config(args)
    dataset = _load_imputed(args)
    parts = split(dataset, args.split, args.seed)
    try:
        model = train_model(args.model, parts.train, config)
    except ConfigError as exc:
        # the trainer checks bounds that depend on the training rows (knn: k <= rows);
        # config messages start with the field, which names the flag
        flags = {field: flag for flag, (field, _) in HYPERPARAMETER_FLAGS.items()}
        flag = flags.get(str(exc).split(" ", 1)[0])
        if flag is None:
            raise
        raise ConfigError(f"{flag}: {exc}") from None
    out_path = args.out or f"{args.model}_model.json"
    manifest = build_manifest(
        "train",
        args.data,
        _version(),
        seeds={"split": args.seed},
        hyperparameters={
            "model": args.model,
            "split": args.split,
            "impute": args.impute,
            **asdict(config),
        },
    )
    metadata = {
        "feature_names": list(dataset.feature_names),
        "seed": args.seed,
        "split": args.split,
        "impute": args.impute,
        "n_train": len(parts.train),
        "n_test": len(parts.test),
        "dataset_fingerprint": manifest["dataset_fingerprint"],
    }
    save_model(model, out_path, metadata=metadata, manifest=manifest)
    train_report = evaluate(model, parts.train, name=DISPLAY_NAMES[args.model])
    print(
        f"trained {args.model} on {len(parts.train)} rows "
        f"(seed {args.seed}, split {args.split}); "
        f"train accuracy {train_report.accuracy:.3f}"
    )
    print(f"model -> {out_path}")
    if args.json:
        report = {
            "schema": "floodxai.metrics",
            "schema_version": 1,
            "partition": "train",
            "n_rows": len(parts.train),
            "split": {"seed": args.seed, "train_fraction": args.split},
            "rows": [dict(train_report.to_dict(), path=out_path, kind=args.model)],
            "manifest": manifest,
        }
        _emit_json(args.json, report)
    return 0


def _load_model(path):
    """A model file's model and its metadata, from a single read."""
    payload = read_model_file(path)
    return model_from_dict(payload), payload.get("metadata", {})


def _resolve_split(args, metadata_list):
    """Split seed/fraction: explicit flags win, else the models' metadata."""
    seed, fraction = args.seed, args.split
    if seed is None:
        seeds = {m.get("seed") for m in metadata_list} - {None}
        if len(seeds) > 1:
            raise ConfigError(
                f"models were trained with different split seeds {sorted(seeds)}; "
                "pass --seed to choose one"
            )
        seed = seeds.pop() if seeds else 42
    if fraction is None:
        fractions = {m.get("split") for m in metadata_list} - {None}
        if len(fractions) > 1:
            raise ConfigError(
                f"models were trained with different split fractions "
                f"{sorted(fractions)}; pass --split to choose one"
            )
        fraction = fractions.pop() if fractions else 0.7
    return seed, fraction


def cmd_evaluate(args):
    dataset = _load_imputed(args)
    loaded = [_load_model(path) for path in args.model]
    seed, fraction = _resolve_split(args, [metadata for _, metadata in loaded])
    parts = split(dataset, fraction, seed)
    part = {"test": parts.test, "train": parts.train, "all": dataset}[args.on]
    reports = []
    for path, (model, _) in zip(args.model, loaded):
        kind = model_kind(model)
        reports.append((path, kind, evaluate(model, part, name=DISPLAY_NAMES[kind])))
    print(
        f"partition: {args.on} ({len(part)} rows; split seed {seed}, "
        f"train fraction {fraction})"
    )
    print(render_table([r for _, _, r in reports]))

    if args.json:
        manifest = build_manifest(
            "evaluate",
            args.data,
            _version(),
            seeds={"split": seed},
            hyperparameters={
                "on": args.on,
                "split": fraction,
                "impute": args.impute,
                "models": list(args.model),
            },
        )
        report = {
            "schema": "floodxai.metrics",
            "schema_version": 1,
            "partition": args.on,
            "n_rows": len(part),
            "split": {"seed": seed, "train_fraction": fraction},
            "rows": [
                dict(scores.to_dict(), path=path, kind=kind)
                for path, kind, scores in reports
            ],
            "manifest": manifest,
        }
        _emit_json(args.json, report)
    return 0


def _parse_budget(text):
    if text == EXHAUSTIVE:
        return EXHAUSTIVE
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"--samples must be an integer or '{EXHAUSTIVE}', got {text!r}"
        ) from None


def _require_year(args, dataset):
    if args.year is None:
        raise ConfigError(f"--mode {args.mode} requires --year")
    record = dataset.record_for_year(args.year)
    return np.asarray(record.monthly_mm, dtype=float)


def cmd_explain(args):
    budget = _parse_budget(args.samples)
    dataset = _load_imputed(args)
    model, metadata = _load_model(args.model)
    seed = metadata.get("seed", 42)
    fraction = metadata.get("split", 0.7)
    parts = split(dataset, fraction, seed)
    train = parts.train
    names = dataset.feature_names
    if args.background == "trainset":
        background = train.features()
    else:
        background = train.features().mean(axis=0, keepdims=True)
    shap_config = ShapConfig(
        background=background, n_coalition_samples=budget, seed=args.seed
    )
    manifest = build_manifest(
        "explain",
        args.data,
        _version(),
        seeds={"split": seed, "explainer": args.seed},
        hyperparameters={
            "model": args.model,
            "mode": args.mode,
            "background": args.background,
            "samples": str(args.samples),
            "bins": args.bins,
            "kernel_width": args.kernel_width,
            "top_features": args.top_features,
            "impute": args.impute,
        },
    )

    if args.mode == "global-shap":
        importance = global_importance(model, dataset.features(), shap_config, names)
        ranked = importance.ranked()
        print(f"global importance (mean |phi| over {len(dataset)} instances):")
        print(bar_chart([n for n, _ in ranked], [v for _, v in ranked], value_format="{:.4f}"))
        report = dict(importance.to_dict(), manifest=manifest)
        svg = svg_bar_chart(
            [n for n, _ in ranked],
            [v for _, v in ranked],
            "Global feature importance (mean |phi|)",
        )
    elif args.mode == "local-shap":
        x = _require_year(args, dataset)
        explanation = kernel_shap(model, x, shap_config, names)
        order = np.argsort(-np.abs(explanation.phi), kind="stable")
        print(
            f"year {args.year}: model output {explanation.model_output:.4f}, "
            f"base value {explanation.base_value:.4f}"
        )
        print(
            two_sided_bar_chart(
                [names[i] for i in order], [explanation.phi[i] for i in order]
            )
        )
        report = dict(explanation.to_dict(), year=args.year, manifest=manifest)
        svg = svg_two_sided_bar_chart(
            [names[i] for i in order],
            [explanation.phi[i] for i in order],
            f"Feature attributions for {args.year}",
        )
    elif args.mode == "local-lime":
        x = _require_year(args, dataset)
        lime_config = _lime_config(args, budget)
        explanation = explain_local(model, x, train, lime_config, names)
        label = "flood" if explanation.predicted_class == 1 else "no flood"
        print(
            f"year {args.year}: predicted {label} "
            f"(p = {explanation.predicted_proba:.4f}); "
            f"local fidelity R^2 = {explanation.local_fidelity:.4f}"
        )
        conditions = explanation.conditions
        print(
            two_sided_bar_chart(
                [c.condition for c in conditions], [c.weight for c in conditions]
            )
        )
        report = dict(explanation.to_dict(), year=args.year, manifest=manifest)
        svg = svg_two_sided_bar_chart(
            [c.condition for c in conditions],
            [c.weight for c in conditions],
            f"Local surrogate weights for {args.year}",
        )
    else:
        x = _require_year(args, dataset)
        importance = global_importance(model, dataset.features(), shap_config, names)
        shap_local = kernel_shap(model, x, shap_config, names)
        lime_config = _lime_config(args, budget)
        lime_local = explain_local(model, x, train, lime_config, names)
        top_k = args.top_features if args.top_features is not None else 5
        agreement = compare_explanations(importance, lime_local, shap_local, top_k)
        print(
            f"year {args.year}: {len(agreement.overlap)} of the top-{agreement.top_k} "
            f"global features appear in the local surrogate "
            f"(overlap {agreement.overlap_fraction:.2f}): "
            f"{', '.join(agreement.overlap) or '(none)'}"
        )
        for entry in agreement.sign_agreement:
            verdict = "agree" if entry["agree"] else "DISAGREE"
            print(
                f"  {entry['feature']}: lime weight {entry['lime_weight']:+.4f}, "
                f"shap phi {entry['shap_phi']:+.4f} -> {verdict}"
            )
        report = dict(agreement.to_dict(), year=args.year, manifest=manifest)
        svg = None

    if args.json:
        _emit_json(args.json, report)
    if args.svg:
        if svg is None:
            raise ConfigError("--svg does not apply to --mode compare")
        _emit_svg(args.svg, svg)
    return 0


def _lime_config(args, budget):
    defaults = LimeConfig()
    return LimeConfig(
        n_perturbations=budget if budget != EXHAUSTIVE else defaults.n_perturbations,
        kernel_width=args.kernel_width,
        n_selected_features=args.top_features
        if args.top_features is not None
        else defaults.n_selected_features,
        n_bins=args.bins,
        seed=args.seed,
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloodXaiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
