"""Command-line front end: summary, train, evaluate, explain.

One subcommand per process, and every subcommand has the same shape: check
the flags, load the data, compute, print the text report, then write the
outputs from one shared tail (`_emit`). The flag rules of `train` and
`explain` (hyperparameters, `--year`, `--samples`, the explainer settings,
`--svg` with `--mode compare`), the split `--seed` and `--split` of
`train` and `evaluate`, and the split seed and fraction that the model files
of `evaluate` and `explain` record are decided before any data is read.
`--json PATH` writes the canonical JSON report (`-` for stdout) and
`--svg PATH` writes a static chart where the mode has one. Every JSON
report embeds a run manifest. Outputs are written atomically and only after
the computation succeeded, so a usage, validation or runtime error leaves
no report behind.

Exit codes: 0 success, 2 usage or validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

import numpy as np

from .dataset import MONTHS, _check_split, impute_missing, load_csv, monthly_means, split
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
# the split of `train`, and of `evaluate` and `explain` on model files that record none
_SPLIT_DEFAULTS = {"seed": 42, "split": 0.7}


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
    p.add_argument(
        "--seed", type=int, default=_SPLIT_DEFAULTS["seed"], help="split seed (default %(default)s)"
    )
    p.add_argument(
        "--split",
        type=float,
        default=_SPLIT_DEFAULTS["split"],
        help="train fraction (default %(default)s)",
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


def _emit(args, report, svg=None):
    """The one output tail: the JSON report and the chart, as the flags ask."""
    if args.json == "-":
        sys.stdout.write(canonical_json(report))
    elif args.json:
        write_report(args.json, report)
        print(f"json report -> {args.json}")
    if svg is not None and args.svg:
        write_text(args.svg, svg)
        print(f"svg chart -> {args.svg}")
    return 0


def _chart(text_chart, svg_chart, labels, values, title, **text_options):
    """Print the bars as text; return the same bars as an SVG chart."""
    print(text_chart(labels, values, **text_options))
    return svg_chart(labels, values, title)


def _manifest(args, seeds=None, **hyperparameters):
    """The command's run manifest; every command records its --impute."""
    return build_manifest(
        args.command,
        args.data,
        _version(),
        seeds=seeds,
        hyperparameters=dict(hyperparameters, impute=args.impute),
    )


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
    svg = _chart(
        bar_chart, svg_bar_chart, dataset.feature_names, means, "Mean monthly rainfall (mm)"
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
        "manifest": _manifest(args),
    }
    return _emit(args, report, svg)


def _metrics_report(partition, n_rows, seed, fraction, scored, manifest):
    """The floodxai.metrics report; `scored` holds (model path, kind, scores) per model."""
    return {
        "schema": "floodxai.metrics",
        "schema_version": 1,
        "partition": partition,
        "n_rows": n_rows,
        "split": {"seed": seed, "train_fraction": fraction},
        "rows": [dict(scores.to_dict(), path=path, kind=kind) for path, kind, scores in scored],
        "manifest": manifest,
    }


def _flag_kinds(field):
    """The kinds a hyperparameter flag applies to: those whose config has its field."""
    return [k for k, e in KINDS.items() if field in {f.name for f in fields(e.config_class)}]


@contextmanager
def _naming_flags():
    """Prefix a config error with its train flag: config messages start with the field."""
    try:
        yield
    except ConfigError as exc:
        flags = {field: flag for flag, (field, _) in HYPERPARAMETER_FLAGS.items()}
        flag = flags.get(str(exc).split(" ", 1)[0])
        if flag is None:
            raise
        raise ConfigError(f"{flag}: {exc}") from None


def cmd_train(args):
    given = {}
    for flag, (field, _) in HYPERPARAMETER_FLAGS.items():
        if getattr(args, field) is None:
            continue
        if args.model not in _flag_kinds(field):
            raise ConfigError(f"{flag} does not apply to --model {args.model}")
        given[field] = getattr(args, field)
    config = replace(KINDS[args.model].config_class(), **given)
    with _naming_flags():
        config.validate()
    _check_split_flags(args)
    dataset = _load_imputed(args)
    parts = split(dataset, args.split, args.seed)
    with _naming_flags():
        # the trainer checks bounds that depend on the training rows (knn: k <= rows)
        model = train_model(args.model, parts.train, config)
    out_path = args.out or f"{args.model}_model.json"
    manifest = _manifest(
        args, seeds={"split": args.seed}, model=args.model, split=args.split, **asdict(config)
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
    scored = [(out_path, args.model, train_report)]
    return _emit(
        args, _metrics_report("train", len(parts.train), args.seed, args.split, scored, manifest)
    )


def _load_model(path):
    """A model file's model and its metadata, from a single read. The split seed
    and fraction it records are checked by `split`'s rule (one left out reads as
    its default), so a malformed one exits 2 before any data is read."""
    payload = read_model_file(path)
    model, metadata = model_from_dict(payload), payload.get("metadata", {})
    recorded = {key: metadata.get(key, default) for key, default in _SPLIT_DEFAULTS.items()}
    try:
        _check_split(recorded["split"], recorded["seed"])
    except ConfigError as exc:
        raise ConfigError(f"model file {path} records a bad split: {exc}") from None
    return model, metadata


def _check_split_flags(args):
    """Check the given --seed and --split before any data is read. With no model
    files `_resolve_split` reads a flag left out as its default; `_load_model`
    checks the values model files record."""
    seed, fraction = _resolve_split(args, [])
    _check_split(fraction, seed)


def _resolve_split(args, metadata_list):
    """Split seed/fraction: explicit flags win, else the models' metadata."""
    resolved = []
    for key, what in (("seed", "seeds"), ("split", "fractions")):
        value = getattr(args, key)
        if value is None:
            recorded = {m[key] for m in metadata_list if key in m}
            if len(recorded) > 1:
                raise ConfigError(
                    f"models were trained with different split {what} "
                    f"{sorted(recorded)}; pass --{key} to choose one"
                )
            value = recorded.pop() if recorded else _SPLIT_DEFAULTS[key]
        resolved.append(value)
    return tuple(resolved)


def cmd_evaluate(args):
    _check_split_flags(args)
    loaded = [_load_model(path) for path in args.model]
    seed, fraction = _resolve_split(args, [metadata for _, metadata in loaded])
    dataset = _load_imputed(args)
    parts = split(dataset, fraction, seed)
    part = {"test": parts.test, "train": parts.train, "all": dataset}[args.on]
    scored = []
    for path, (model, _) in zip(args.model, loaded):
        kind = model_kind(model)
        scored.append((path, kind, evaluate(model, part, name=DISPLAY_NAMES[kind])))
    print(
        f"partition: {args.on} ({len(part)} rows; split seed {seed}, "
        f"train fraction {fraction})"
    )
    print(render_table([scores for _, _, scores in scored]))
    manifest = _manifest(
        args, seeds={"split": seed}, on=args.on, split=fraction, models=list(args.model)
    )
    return _emit(args, _metrics_report(args.on, len(part), seed, fraction, scored, manifest))


def _parse_budget(text):
    if text == EXHAUSTIVE:
        return EXHAUSTIVE
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"--samples must be an integer or '{EXHAUSTIVE}', got {text!r}"
        ) from None


def cmd_explain(args):
    budget = _parse_budget(args.samples)
    if args.mode != "global-shap" and args.year is None:
        raise ConfigError(f"--mode {args.mode} requires --year")
    # the CSV's features are always the twelve months, so the settings are checked
    # before it is read; the background is filled in once the training rows exist
    shap_config = ShapConfig(background=(), n_coalition_samples=budget, seed=args.seed)
    lime_config = _lime_config(args, budget)
    if args.mode != "local-lime":
        shap_config.validate(len(MONTHS))
    if args.mode in ("local-lime", "compare"):
        lime_config.validate(len(MONTHS))
    if args.mode == "compare" and args.svg:
        raise ConfigError("--svg does not apply to --mode compare")

    model, metadata = _load_model(args.model)
    dataset = _load_imputed(args)
    seed = metadata.get("seed", _SPLIT_DEFAULTS["seed"])
    train = split(dataset, metadata.get("split", _SPLIT_DEFAULTS["split"]), seed).train
    names = dataset.feature_names
    if args.mode != "global-shap":
        x = np.asarray(dataset.record_for_year(args.year).monthly_mm, dtype=float)
    background = train.features()
    if args.background == "mean":
        background = background.mean(axis=0, keepdims=True)
    shap_config = replace(shap_config, background=background)

    svg = None
    if args.mode == "global-shap":
        importance = global_importance(model, dataset.features(), shap_config, names)
        ranked = importance.ranked()
        print(f"global importance (mean |phi| over {len(dataset)} instances):")
        svg = _chart(
            bar_chart,
            svg_bar_chart,
            [n for n, _ in ranked],
            [v for _, v in ranked],
            "Global feature importance (mean |phi|)",
            value_format="{:.4f}",
        )
        report = importance.to_dict()
    elif args.mode == "local-shap":
        explanation = kernel_shap(model, x, shap_config, names)
        order = np.argsort(-np.abs(explanation.phi), kind="stable")
        print(
            f"year {args.year}: model output {explanation.model_output:.4f}, "
            f"base value {explanation.base_value:.4f}"
        )
        svg = _chart(
            two_sided_bar_chart,
            svg_two_sided_bar_chart,
            [names[i] for i in order],
            [explanation.phi[i] for i in order],
            f"Feature attributions for {args.year}",
        )
        report = dict(explanation.to_dict(), year=args.year)
    elif args.mode == "local-lime":
        explanation = explain_local(model, x, train, lime_config, names)
        label = "flood" if explanation.predicted_class == 1 else "no flood"
        print(
            f"year {args.year}: predicted {label} "
            f"(p = {explanation.predicted_proba:.4f}); "
            f"local fidelity R^2 = {explanation.local_fidelity:.4f}"
        )
        svg = _chart(
            two_sided_bar_chart,
            svg_two_sided_bar_chart,
            [c.condition for c in explanation.conditions],
            [c.weight for c in explanation.conditions],
            f"Local surrogate weights for {args.year}",
        )
        report = dict(explanation.to_dict(), year=args.year)
    else:
        importance = global_importance(model, dataset.features(), shap_config, names)
        shap_local = kernel_shap(model, x, shap_config, names)
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
        report = dict(agreement.to_dict(), year=args.year)

    report["manifest"] = _manifest(
        args,
        seeds={"split": seed, "explainer": args.seed},
        model=args.model,
        mode=args.mode,
        background=args.background,
        samples=str(args.samples),
        bins=args.bins,
        kernel_width=args.kernel_width,
        top_features=args.top_features,
    )
    return _emit(args, report, svg)


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
    except (ConfigError, DatasetError, OSError) as exc:
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
