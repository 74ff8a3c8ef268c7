"""Command-line front end: summary, train, evaluate, explain.

One subcommand per process, and every subcommand has the same shape: check
the flags, load the data, compute, print the text report, then write the
outputs from one shared tail (`_emit`). `FLAGS` is the one table of the
flags: the subcommands that take each flag and, for `train` (per `--model`
kind) and `explain` (per `--mode`), the modes it applies to; the config
fields it sets, its default, its argparse type and the manifest key that
echoes it. The parser, the check that rejects a flag its mode does not use,
the defaults and the manifest echo all come from it. That check, the split
`--seed` and `--split` of `train` and `evaluate`, the explainer settings of
`explain`, and the split seed and fraction that the model files of
`evaluate` and `explain` record are all decided before the CSV is read.
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
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dataset import IMPUTE_STRATEGIES, MONTHS, _check_split, impute_missing, load_csv
from .dataset import monthly_means, split
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
from .manifest import build_manifest, canonical_json, write_text
from .metrics import evaluate, render_table
from .models import (
    KINDS,
    MODEL_KINDS,
    model_from_dict,
    model_kind,
    model_to_dict,
    read_model_file,
    train_model,
)
from .render import (
    bar_chart,
    svg_bar_chart,
    svg_two_sided_bar_chart,
    two_sided_bar_chart,
)

DISPLAY_NAMES = {kind: entry.display_name for kind, entry in KINDS.items()}
ALL_COMMANDS = ("summary", "train", "evaluate", "explain")
EXPLAIN_MODES = ("global-shap", "local-shap", "local-lime", "compare")
_SHAP_MODES = ("global-shap", "local-shap", "compare")
_LIME_MODES = ("local-lime", "compare")
_COMPARE_TOP_K = 5  # compare's top-k when --top-features is left out
# the flag whose value is the mode that `Flag.modes` names
_SELECTORS = {"train": "--model", "explain": "--mode"}


@dataclass(frozen=True)
class Flag:
    """One flag of one or more subcommands. `modes` lists the values of the
    subcommand's selector (`--model` of `train`, `--mode` of `explain`) that it
    applies to, None for all. It sets the config fields `config_fields`, which
    also name it in a config error. Left out, it takes `default` (a callable
    takes the parsed arguments); `echo` is the manifest hyperparameter that
    records its value. A `required` flag must be given wherever it applies."""

    name: str
    commands: tuple
    help: str
    modes: tuple = None
    config_fields: tuple = ()
    default: object = None
    echo: str = None
    required: bool = False
    type: object = None
    choices: tuple = None
    nargs: str = None
    metavar: str = None

    @property
    def dest(self):
        return self.name[2:].replace("-", "_")


def _hyperparameter(name, field, text):
    """A train flag for a model config field: it applies to the kinds whose config
    has the field, and each of those configs gives its default."""
    defaults = {kind: f.default for kind, entry in KINDS.items()
                for f in fields(entry.config_class) if f.name == field}
    shown = ", ".join(f"{kind} {value}" for kind, value in defaults.items())
    return Flag(name, ("train",), f"{text}; default {shown}", modes=tuple(defaults),
                config_fields=(field,), type=type(next(iter(defaults.values()))))


FLAGS = (
    Flag("--data", ALL_COMMANDS, "rainfall CSV file", required=True, metavar="CSV"),
    Flag("--impute", ALL_COMMANDS, "fill strategy for missing rainfall cells",
         default="column-mean", echo="impute", choices=IMPUTE_STRATEGIES),
    Flag("--json", ALL_COMMANDS, "write the JSON report to PATH ('-' prints it to stdout)",
         metavar="PATH"),
    Flag("--svg", ("summary", "explain"), "write an SVG chart to PATH",
         modes=("global-shap", "local-shap", "local-lime"), metavar="PATH"),
    # train
    Flag("--model", ("train",), "model kind", echo="model", required=True, choices=MODEL_KINDS),
    Flag("--seed", ("train",), "split seed", config_fields=("seed",), default=42, type=int),
    Flag("--split", ("train",), "train fraction", config_fields=("train_fraction",), default=0.7,
         echo="split", type=float),
    Flag("--out", ("train",), "model output path; default <kind>_model.json",
         default=lambda args: f"{args.model}_model.json", metavar="PATH"),
    _hyperparameter("--k", "k", "neighbor count"),
    _hyperparameter("--max-depth", "max_depth", "depth cap"),
    _hyperparameter("--c", "C", "soft-margin C"),
    _hyperparameter("--lr", "learning_rate", "learning rate"),
    _hyperparameter("--epochs", "epochs", "training epochs"),
    # evaluate
    Flag("--model", ("evaluate",), "model JSON file(s)", echo="models", required=True,
         nargs="+", metavar="PATH"),
    Flag("--seed", ("evaluate",), "split seed; default: the one the model files record",
         config_fields=("seed",), type=int),
    Flag("--split", ("evaluate",), "train fraction; default: the one the model files record",
         config_fields=("train_fraction",), echo="split", type=float),
    Flag("--on", ("evaluate",), "partition to score", default="test", echo="on",
         choices=("test", "train", "all")),
    # explain
    Flag("--model", ("explain",), "model JSON file", echo="model", required=True, metavar="PATH"),
    Flag("--mode", ("explain",), "explanation to compute", echo="mode", required=True,
         choices=EXPLAIN_MODES),
    Flag("--year", ("explain",), "instance year", modes=("local-shap", "local-lime", "compare"),
         required=True, type=int),
    Flag("--background", ("explain",), "masked-feature reference: training rows or their mean",
         modes=_SHAP_MODES, default="trainset", echo="background", choices=("trainset", "mean")),
    Flag("--samples", ("explain",), "SHAP coalition budget (an integer or 'exhaustive'); "
         f"LIME perturbation count (an integer, {LimeConfig.n_perturbations} when left out)",
         config_fields=("n_coalition_samples", "n_perturbations"), default=EXHAUSTIVE,
         echo="samples"),
    Flag("--seed", ("explain",), "explainer sampling seed", config_fields=("seed",), default=0,
         type=int),
    Flag("--bins", ("explain",), "LIME discretizer bins", modes=_LIME_MODES,
         config_fields=("n_bins",), default=4, echo="bins", type=int),
    Flag("--kernel-width", ("explain",), "LIME proximity kernel width; default 0.75*sqrt(12)",
         modes=_LIME_MODES, config_fields=("kernel_width",), echo="kernel_width", type=float),
    Flag("--top-features", ("explain",),
         f"LIME condition count (default {LimeConfig.n_selected_features}) and compare's "
         f"top-k (default {_COMPARE_TOP_K})", modes=_LIME_MODES,
         config_fields=("n_selected_features",), echo="top_features", type=int),
)


def _flags(command):
    return [flag for flag in FLAGS if command in flag.commands]


def _version():
    from . import __version__

    return __version__


def _help(flag, command):
    """The flag's help text with the modes it applies to and its default."""
    notes = []
    if flag.modes is not None and command in _SELECTORS:
        notes.append(f"{_SELECTORS[command]} {', '.join(flag.modes)}")
    if flag.default is not None and not callable(flag.default):
        notes.append(f"default {flag.default}")
    return f"{flag.help} ({'; '.join(notes)})" if notes else flag.help


def build_parser():
    parser = argparse.ArgumentParser(
        prog="floodxai",
        description="Flood prediction from monthly rainfall, with explanations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, func, text in (
        ("summary", cmd_summary, "dataset overview: counts, missing cells, monthly means"),
        ("train", cmd_train, "train a classifier and save it as JSON"),
        ("evaluate", cmd_evaluate, "score saved models on a dataset partition"),
        ("explain", cmd_explain, "SHAP and LIME explanation reports"),
    ):
        p = sub.add_parser(command, help=text)
        # no argparse default: a flag left out reads None, so `_settle` can tell it
        for flag in _flags(command):
            p.add_argument(flag.name, type=flag.type, choices=flag.choices, nargs=flag.nargs,
                           metavar=flag.metavar, required=flag.required and flag.modes is None,
                           help=_help(flag, command))
        p.set_defaults(func=func)
    return parser


def _settle(args):
    """Check the flags against the command's mode, then fill in their defaults.
    A flag given under a mode it does not apply to, or left out where it is
    required, is a ConfigError before any file is read. `args.given` maps the
    config fields of the flags given to their values, so a config keeps its
    own default for a flag left out."""
    flags = _flags(args.command)
    selector = _SELECTORS.get(args.command)
    mode = getattr(args, selector[2:]) if selector else None
    for flag in flags:
        given = getattr(args, flag.dest) is not None
        applies = flag.modes is None or mode is None or mode in flag.modes
        if given and not applies:
            raise ConfigError(f"{flag.name} does not apply to {selector} {mode}")
        if applies and flag.required and not given:
            raise ConfigError(f"{selector} {mode} requires {flag.name}")
    args.given = {field: getattr(args, flag.dest) for flag in flags
                  if getattr(args, flag.dest) is not None for field in flag.config_fields}
    for flag in flags:
        if getattr(args, flag.dest) is None:
            default = flag.default
            setattr(args, flag.dest, default(args) if callable(default) else default)


def _config(config_class, args, **parsed):
    """`config_class`'s defaults, replaced by the given flags that set its fields
    (`parsed` holds such a value in its parsed form)."""
    names = {f.name for f in fields(config_class)}
    given = {name: parsed.get(name, value) for name, value in args.given.items() if name in names}
    return replace(config_class(), **given)


def _naming_flag(exc, command):
    """The error's message, led by the flag that sets the config field a config
    error's message starts with."""
    flags = {field: flag.name for flag in _flags(command) for field in flag.config_fields}
    flag = flags.get(str(exc).split(" ", 1)[0])
    return f"{flag}: {exc}" if isinstance(exc, ConfigError) and flag else str(exc)


def _split_default(key):
    """`train`'s split seed or fraction when its flag is left out, which also
    stands for one that a model file does not record."""
    return next(f.default for f in _flags("train") if f.dest == key)


def _emit(args, report, svg=None, model=None):
    """The one output tail: the model file, the JSON report and the chart, as the
    flags ask. The files are written as one group, so a failed write leaves none."""
    outputs = [("model", args.out, model)] if model is not None else []
    outputs.append(("json report", args.json, canonical_json(report)))
    if svg is not None:
        outputs.append(("svg chart", args.svg, svg))
    outputs = [(label, path, text) for label, path, text in outputs if path]
    write_text({path: text for _, path, text in outputs if path != "-"})
    for label, path, text in outputs:
        if path == "-":
            sys.stdout.write(text)
        else:
            print(f"{label} -> {path}")
    return 0


def _chart(text_chart, svg_chart, labels, values, title, **text_options):
    """Print the bars as text; return the same bars as an SVG chart."""
    print(text_chart(labels, values, **text_options))
    return svg_chart(labels, values, title)


def _manifest(args, seeds=None, **hyperparameters):
    """The command's run manifest: the values of its echoed flags, then `hyperparameters`."""
    echo = {flag.echo: getattr(args, flag.dest) for flag in _flags(args.command) if flag.echo}
    return build_manifest(args.command, args.data, _version(), seeds=seeds,
                          hyperparameters=dict(echo, **hyperparameters))


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


def cmd_train(args):
    config = _config(KINDS[args.model].config_class, args)
    config.validate()
    _check_split(args.split, args.seed)
    dataset = _load_imputed(args)
    parts = split(dataset, args.split, args.seed)
    model = train_model(args.model, parts.train, config)
    manifest = _manifest(args, seeds={"split": args.seed}, **asdict(config))
    metadata = {
        "feature_names": list(dataset.feature_names),
        "seed": args.seed,
        "split": args.split,
        "impute": args.impute,
        "n_train": len(parts.train),
        "n_test": len(parts.test),
        "dataset_fingerprint": manifest["dataset_fingerprint"],
    }
    train_report = evaluate(model, parts.train, name=DISPLAY_NAMES[args.model])
    print(
        f"trained {args.model} on {len(parts.train)} rows "
        f"(seed {args.seed}, split {args.split}); "
        f"train accuracy {train_report.accuracy:.3f}"
    )
    scored = [(args.out, args.model, train_report)]
    return _emit(
        args,
        _metrics_report("train", len(parts.train), args.seed, args.split, scored, manifest),
        model=canonical_json(model_to_dict(model, metadata, manifest)),
    )


def _load_model(path):
    """A model file's model and its metadata, from a single read. The split seed
    and fraction it records are checked by `split`'s rule (one left out reads as
    its default), so a malformed one exits 2 before any data is read."""
    payload = read_model_file(path)
    model, metadata = model_from_dict(payload), payload.get("metadata", {})
    recorded = {key: metadata.get(key, _split_default(key)) for key in ("seed", "split")}
    try:
        _check_split(recorded["split"], recorded["seed"])
    except ConfigError as exc:
        raise ConfigError(f"model file {path} records a bad split: {exc}") from None
    return model, metadata


def _resolve_split(args, metadata_list):
    """Split seed/fraction: explicit flags win, else the models' metadata, else
    train's defaults. The pair is checked by `split`'s rule."""
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
            value = recorded.pop() if recorded else _split_default(key)
        resolved.append(value)
    _check_split(resolved[1], resolved[0])
    return tuple(resolved)


def cmd_evaluate(args):
    _resolve_split(args, [])  # the split flags given, checked before any file is read
    loaded = [_load_model(path) for path in args.model]
    args.seed, args.split = _resolve_split(args, [metadata for _, metadata in loaded])
    dataset = _load_imputed(args)
    parts = split(dataset, args.split, args.seed)
    part = {"test": parts.test, "train": parts.train, "all": dataset}[args.on]
    scored = []
    for path, (model, _) in zip(args.model, loaded):
        kind = model_kind(model)
        scored.append((path, kind, evaluate(model, part, name=DISPLAY_NAMES[kind])))
    print(
        f"partition: {args.on} ({len(part)} rows; split seed {args.seed}, "
        f"train fraction {args.split})"
    )
    print(render_table([scores for _, _, scores in scored]))
    manifest = _manifest(args, seeds={"split": args.seed})
    return _emit(
        args, _metrics_report(args.on, len(part), args.seed, args.split, scored, manifest)
    )


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
    # the CSV's features are always the twelve months, so the settings are checked
    # before it is read; the background is filled in once the training rows exist
    shap_config = ShapConfig(background=(), n_coalition_samples=budget, seed=args.seed)
    lime_config = _config(LimeConfig, args, n_perturbations=budget)
    if args.mode == "compare" and budget == EXHAUSTIVE:
        # the one --samples of compare is exhaustive for SHAP; LIME keeps its count
        lime_config = replace(lime_config, n_perturbations=LimeConfig.n_perturbations)
    if args.mode in _SHAP_MODES:
        shap_config.validate(len(MONTHS))
    if args.mode in _LIME_MODES:
        lime_config.validate(len(MONTHS))

    model, metadata = _load_model(args.model)
    dataset = _load_imputed(args)
    seed = metadata.get("seed", _split_default("seed"))
    train = split(dataset, metadata.get("split", _split_default("split")), seed).train
    names = dataset.feature_names
    if args.year is not None:
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
        top_k = args.top_features if args.top_features is not None else _COMPARE_TOP_K
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

    report["manifest"] = _manifest(args, seeds={"split": seed, "explainer": args.seed})
    return _emit(args, report, svg)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _settle(args)
        return args.func(args)
    except (ConfigError, DatasetError, OSError) as exc:
        print(f"error: {_naming_flag(exc, args.command)}", file=sys.stderr)
        return 2
    except FloodXaiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
