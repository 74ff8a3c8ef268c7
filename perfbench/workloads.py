"""The four benchmark workloads: set-up, seeded items, one item, output checks.

Each workload draws every input it needs (split seed, instances, years,
kinds, explainer seeds) from the run's `--seed`, so equal seeds give equal
inputs. Items run in a closed loop with one caller. Checks run after the
timed loop and never inside an item's timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

from spec import KINDS, TRAIN_FRACTION
from tracing import TracedModel

EFFICIENCY_TOL = 1e-9     # |model_output - base_value - sum(phi)|
EXACT_TOL = 1e-12         # kernel vs exact Shapley, the tolerance for any speed-up
OUTPUT_TOL = 1e-12        # explainer-reported model output vs the model's own
LIME_PERTURBATIONS = 2000
SAMPLED_BUDGET = 512
GLOBAL_BATCH = 4
RANKING_ROWS = 24
CLI_TIMEOUT_S = 120

_SCHEMA_OF = {
    "summary": "summary",
    "evaluate": "metrics",
    "explain.local-lime": "lime",
    "explain.local-shap": "shap_local",
}


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs; the run is void."""


class FaultyModel:
    """Self-test fault: returns a valid-looking but wrong flood probability."""

    def __init__(self, model):
        self._model = model

    def predict_proba(self, X):
        import numpy as np

        return 0.9 * np.asarray(self._model.predict_proba(X), dtype=float) + 0.05

    def __getattr__(self, name):
        return getattr(self._model, name)


@dataclass
class Context:
    root: object          # pathlib.Path of the checkout
    tmp: object           # pathlib.Path of this run's scratch directory
    seed: int
    tracer: object        # the run's Tracer (enabled only with --trace 1)
    part: int = 0         # which of the run's measuring processes this is
    parts: int = 1        # how many measuring processes the run has
    inject: str = None    # self-test fault: "wrong-proba" or "bad-exit"
    fx: object = None     # the imported floodxai package, when imported
    validators: dict = field(default_factory=dict)  # schema name -> validator

    @property
    def data_path(self):
        return self.root / "data" / "kerala.csv"


@dataclass
class Outcome:
    """What one item produced; `paths` are the files it wrote."""

    value: object = None
    paths: dict = field(default_factory=dict)


class Workload:
    name = ""
    kinds = KINDS
    in_process = True
    warmup = 0            # untimed items per measuring process
    deep_checks = 0       # items per run checked against exact_shapley

    def __init__(self, ctx):
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        self.split_seed = rng.randrange(1_000_000)
        self.kind_order = [k for k in rng.sample(KINDS, len(KINDS)) if k in self.kinds]
        self.item_seed = rng.randrange(2**32)
        self.check_seed = rng.randrange(2**32)

    # -- set-up -----------------------------------------------------------
    def setup(self):
        self._setup_data()

    def _setup_data(self):
        """Load, impute, split and train, with a span around each call.

        The traced run also times `fit_scaler` and trains every kind, so
        each workload reports every set-up layer; the untraced run trains
        only the kinds its items use.
        """
        fx, tr = self.ctx.fx, self.ctx.tracer
        with tr.span("dataset.load_csv"):
            raw = fx.load_csv(self.ctx.data_path)
        with tr.span("dataset.impute_missing"):
            self.dataset = fx.impute_missing(raw)
        with tr.span("dataset.split"):
            self.parts = fx.split(self.dataset, TRAIN_FRACTION, self.split_seed)
        if tr.enabled:
            with tr.span("dataset.fit_scaler"):
                fx.fit_scaler(self.parts.train)
        self.models = {}
        for kind in KINDS if tr.enabled else self.kinds:
            with tr.span(f"models.train.{kind}"):
                self.models[kind] = fx.train_model(kind, self.parts.train)
        self.names = self.dataset.feature_names
        self.X = self.dataset.features()
        self.years = self.dataset.years()
        self.background = self.parts.train.features()
        plain = {
            k: FaultyModel(self.models[k]) if self.ctx.inject == "wrong-proba" else self.models[k]
            for k in self.kinds
        }
        self._item_models = {
            False: plain,
            True: {k: TracedModel(m, k, tr) for k, m in plain.items()},
        }

    def models_for(self, tr):
        return self._item_models[tr.enabled]

    # -- items ------------------------------------------------------------
    def items(self):
        """Endless seeded item stream; a fresh call restarts the same stream.

        Each measuring process of a run draws its own stream and starts the
        kind cycle at its own offset, so the processes together stay balanced.
        """
        rng = random.Random(self.item_seed + (self.ctx.part << 32))
        i = self.ctx.part
        while True:
            yield self.draw(rng, self.kind_order[i % len(self.kind_order)])
            i += 1

    def draw(self, rng, kind):
        raise NotImplementedError

    def describe(self, spec):
        return ":".join(str(v) for v in spec.values())

    def run(self, spec, tr, index):
        raise NotImplementedError

    def probe(self, spec, outcome, tr):
        """Traced run only: time layers the item reaches only in a child process."""

    # -- checks -----------------------------------------------------------
    def check(self, spec, outcome, traced):
        """Problems with one item's output; an empty list means it passed."""
        return []

    def deep_check(self, spec, outcome):
        return []

    def _check_shap(self, explanation, kind, x, what):
        import numpy as np

        problems = []
        if not np.all(np.isfinite(explanation.phi)):
            problems.append(f"{what}: non-finite phi")
        residual = abs(explanation.additivity_residual)
        if not residual <= EFFICIENCY_TOL:
            problems.append(f"{what}: efficiency residual {residual:.3g} > {EFFICIENCY_TOL}")
        own = float(np.asarray(self.models[kind].predict_proba(x[None, :])).ravel()[0])
        if not abs(explanation.model_output - own) <= OUTPUT_TOL:
            problems.append(
                f"{what}: model_output {explanation.model_output!r} != model's own {own!r}"
            )
        return problems

    def _check_exact(self, kind, x, phi, what):
        import numpy as np

        exact = self.ctx.fx.exact_shapley(self.models[kind], x, self.background).phi
        gap = float(np.max(np.abs(np.asarray(phi) - exact)))
        return [] if gap <= EXACT_TOL else [f"{what}: |phi - exact| = {gap:.3g} > {EXACT_TOL}"]


class GlobalShap(Workload):
    name = "global-shap"
    kinds = ("logistic", "svm", "tree")
    warmup = 2
    deep_checks = 6

    def setup(self):
        self._setup_data()
        fx = self.ctx.fx
        self.config = fx.ShapConfig(background=self.background, n_coalition_samples=fx.EXHAUSTIVE)

    def draw(self, rng, kind):
        return {"kind": kind, "rows": sorted(rng.sample(range(len(self.X)), GLOBAL_BATCH))}

    def describe(self, spec):
        return spec["kind"] + ":" + ",".join(str(self.years[r]) for r in spec["rows"])

    def run(self, spec, tr, index):
        model = self.models_for(tr)[spec["kind"]]
        with tr.span("explain.shapley.global_importance"):
            result = self.ctx.fx.global_importance(
                model, self.X[spec["rows"]], self.config, self.names
            )
        return Outcome(result)

    def check(self, spec, outcome, traced):
        import numpy as np

        g = outcome.value
        problems = []
        if not (np.all(np.isfinite(g.importances)) and np.all(g.importances >= 0)):
            problems.append("importances not finite and non-negative")
        if g.n_instances != GLOBAL_BATCH or g.method != "kernel-exhaustive":
            problems.append(f"unexpected n_instances/method {g.n_instances}/{g.method}")
        if g.n_coalitions != 1 << len(self.names):
            problems.append(f"n_coalitions {g.n_coalitions} != 2^M")
        return problems

    def deep_check(self, spec, outcome):
        import numpy as np

        fx, kind = self.ctx.fx, spec["kind"]
        phis = [
            fx.exact_shapley(self.models[kind], self.X[r], self.background).phi
            for r in spec["rows"]
        ]
        expected = np.mean(np.abs(phis), axis=0)
        gap = float(np.max(np.abs(outcome.value.importances - expected)))
        return [] if gap <= EXACT_TOL else [f"mean |phi| vs exact: {gap:.3g} > {EXACT_TOL}"]


class KnnLocalShap(Workload):
    name = "knn-local-shap"
    kinds = ("knn",)
    warmup = 1
    deep_checks = 2

    def setup(self):
        self._setup_data()
        fx = self.ctx.fx
        self.config = fx.ShapConfig(background=self.background, n_coalition_samples=fx.EXHAUSTIVE)

    def draw(self, rng, kind):
        return {"kind": kind, "row": rng.randrange(len(self.X))}

    def describe(self, spec):
        return f"{spec['kind']}:{self.years[spec['row']]}"

    def run(self, spec, tr, index):
        model = self.models_for(tr)["knn"]
        with tr.span("explain.shapley.kernel_shap"):
            result = self.ctx.fx.kernel_shap(model, self.X[spec["row"]], self.config, self.names)
        return Outcome(result)

    def check(self, spec, outcome, traced):
        problems = self._check_shap(outcome.value, "knn", self.X[spec["row"]], "kernel_shap")
        if outcome.value.n_coalitions != 1 << len(self.names):
            problems.append(f"n_coalitions {outcome.value.n_coalitions} != 2^M")
        return problems

    def deep_check(self, spec, outcome):
        return self._check_exact("knn", self.X[spec["row"]], outcome.value.phi, "kernel_shap")


class LocalExplain(Workload):
    name = "local-explain"
    warmup = 4

    def setup(self):
        self._setup_data()
        fx = self.ctx.fx
        mean_bg = self.background.mean(axis=0, keepdims=True)
        self.mean_config = fx.ShapConfig(background=mean_bg, n_coalition_samples=fx.EXHAUSTIVE)
        rows = random.Random(self.check_seed).sample(range(len(self.X)), RANKING_ROWS)
        self.rankings = {
            k: fx.global_importance(self.models[k], self.X[rows], self.mean_config, self.names)
            for k in self.kinds
        }

    def draw(self, rng, kind):
        return {"kind": kind, "row": rng.randrange(len(self.X)), "seed": rng.randrange(2**31)}

    def describe(self, spec):
        return f"{spec['kind']}:{self.years[spec['row']]}:{spec['seed']}"

    def _lime_traced(self, model, x, config, tr):
        fx = self.ctx.fx
        with tr.span("explain.lime.fit_discretizer"):
            discretizer = fx.fit_discretizer(self.parts.train, config.n_bins, self.names)
        with tr.span("dataset.fit_scaler"):
            scaler = fx.fit_scaler(self.background)
        with tr.span("explain.lime.perturb"):
            samples = fx.perturb(x, discretizer, scaler, config)
        with tr.span("explain.lime.fit_local_surrogate"):
            return fx.fit_local_surrogate(
                model, samples, config, feature_names=discretizer.feature_names,
                discretizer=discretizer,
            )

    def run(self, spec, tr, index):
        fx, kind = self.ctx.fx, spec["kind"]
        model = self.models_for(tr)[kind]
        x = self.X[spec["row"]]
        year = self.years[spec["row"]]
        lime_config = fx.LimeConfig(n_perturbations=LIME_PERTURBATIONS, seed=spec["seed"])
        if tr.enabled:
            lime = self._lime_traced(model, x, lime_config, tr)
        else:
            lime = fx.explain_local(model, x, self.parts.train, lime_config, self.names)
        with tr.span("explain.shapley.kernel_shap"):
            shap_mean = fx.kernel_shap(model, x, self.mean_config, self.names)
        sampled_config = fx.ShapConfig(
            background=self.background, n_coalition_samples=SAMPLED_BUDGET, seed=spec["seed"]
        )
        with tr.span("explain.shapley.kernel_shap"):
            shap_sampled = fx.kernel_shap(model, x, sampled_config, self.names)
        tr.count(
            "explain.shapley.sampled_unique_ratio", shap_sampled.n_coalitions / (SAMPLED_BUDGET + 2)
        )
        with tr.span("explain.compare.compare_explanations"):
            agreement = fx.compare_explanations(self.rankings[kind], lime, shap_mean, top_k=5)
        with tr.span("manifest.build_manifest"):
            manifest = fx.build_manifest(
                "local-explain", str(self.ctx.data_path), fx.__version__,
                seeds={"split": self.split_seed, "explainer": spec["seed"]},
                hyperparameters={"model": kind, "samples": SAMPLED_BUDGET},
            )
        directory = self.ctx.tmp / "reports" / f"item-{index:06d}"
        outcome = Outcome((lime, shap_mean, shap_sampled, agreement))
        for stem, schema, payload in (
            ("lime", "lime", lime),
            ("shap-exhaustive", "shap_local", shap_mean),
            ("shap-sampled", "shap_local", shap_sampled),
            ("compare", "compare", agreement),
        ):
            path = directory / f"{stem}.json"
            report = dict(payload.to_dict(), year=year, manifest=manifest)
            with tr.span("manifest.write_report"):
                fx.write_report(path, report)
            outcome.paths[schema + ":" + stem] = path
        return outcome

    def check(self, spec, outcome, traced):
        import numpy as np

        fx, kind = self.ctx.fx, spec["kind"]
        x = self.X[spec["row"]]
        lime, shap_mean, shap_sampled, _ = outcome.value
        problems = self._check_shap(shap_mean, kind, x, "kernel_shap mean background")
        problems += self._check_shap(shap_sampled, kind, x, "kernel_shap sampled")
        own = float(np.asarray(self.models[kind].predict_proba(x[None, :])).ravel()[0])
        if not abs(lime.predicted_proba - own) <= OUTPUT_TOL:
            problems.append(f"lime predicted_proba {lime.predicted_proba!r} != model's {own!r}")
        if not math.isfinite(lime.local_fidelity):
            problems.append(f"lime local_fidelity {lime.local_fidelity!r} is not finite")
        problems += validate_reports(self.ctx, outcome.paths)
        written = sum(os.path.getsize(p) for p in outcome.paths.values())
        self.ctx.tracer.count("manifest.bytes_written_per_item", written)
        if traced:
            tr = self.ctx.tracer
            config = fx.LimeConfig(n_perturbations=LIME_PERTURBATIONS, seed=spec["seed"])
            untraced = fx.explain_local(
                self._item_models[False][kind], x, self.parts.train, config, self.names
            )
            with tr.span("manifest.canonical_json"):
                traced_text = fx.canonical_json(lime.to_dict())
            if traced_text != fx.canonical_json(untraced.to_dict()):
                problems.append("traced LIME path differs from explain_local")
        return problems


class CliSession(Workload):
    name = "cli-session"
    in_process = False
    # Explain commands lead each cycle, and the workers start their kind cycles
    # spread over the kind order, so a run explains every kind (and its peak
    # RSS counts the heaviest child) once each of three workers has run 5 items.
    COMMANDS = ("explain.local-shap", "explain.local-lime", "summary", "evaluate")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.model_dir = ctx.tmp / "models"
        self.data = str(ctx.data_path)
        self._years = None
        self._rows = None

    def _floodxai(self, args, tr, name):
        with tr.span(f"cli.command.{name}"):
            proc = subprocess.run(
                [sys.executable, "-m", "floodxai", *args],
                cwd=self.ctx.tmp, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
            )
        return proc.returncode, proc.stderr.decode(errors="replace")[-400:]

    def model_path(self, kind):
        return str(self.model_dir / f"{kind}.json")

    def setup(self):
        tr = self.ctx.tracer
        for kind in KINDS:
            args = ["train", "--data", self.data, "--model", kind,
                    "--seed", str(self.split_seed), "--out", self.model_path(kind)]
            code, err = self._floodxai(args, tr, "train")
            if code != 0:
                raise SetupError(f"floodxai train --model {kind} exited {code}: {err}")
        if tr.enabled:
            self._setup_data()
            self._probe_setup()

    def _probe_setup(self):
        fx, tr = self.ctx.fx, self.ctx.tracer
        probe_dir = self.ctx.tmp / "probe"
        for kind in KINDS:
            args = ["train", "--data", self.data, "--model", kind,
                    "--seed", str(self.split_seed), "--out", str(probe_dir / f"{kind}.json")]
            with tr.span("cli.main.train"):
                code = _cli_main(args)
            if code != 0:
                raise SetupError(f"in-process train --model {kind} exited {code}")
            with tr.span("models.io.save_model"):
                fx.save_model(self.models[kind], str(probe_dir / f"{kind}-saved.json"))

    def _year_list(self):
        """Years of the CSV, read with the csv module so set-up stays import-free."""
        if self._years is None:
            import csv

            with open(self.data, newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            key = next(k for k in rows[0] if k.strip().upper() == "YEAR")
            self._years = [int(r[key]) for r in rows]
        return self._years

    def items(self):
        rng = random.Random(self.item_seed + (self.ctx.part << 32))
        i = 0
        while True:
            cycle, position = divmod(i, len(self.COMMANDS))
            command = self.COMMANDS[position]
            spec = {"command": command}
            if command.startswith("explain."):
                cycle += self.ctx.part * len(self.kind_order) // self.ctx.parts
                spec["kind"] = self.kind_order[cycle % len(self.kind_order)]
                spec["year"] = rng.choice(self._year_list())
                spec["seed"] = rng.randrange(1000)
            yield spec
            i += 1

    def _args(self, spec, directory):
        command = spec["command"]
        json_path, svg_path = str(directory / "report.json"), str(directory / "chart.svg")
        data = ["--data", self.data, "--json", json_path]
        if command == "summary":
            args = ["summary", *data, "--svg", svg_path]
        elif command == "evaluate":
            args = ["evaluate", *data, "--model", *(self.model_path(k) for k in KINDS)]
            svg_path = None
        else:
            args = ["explain", *data, "--svg", svg_path, "--model", self.model_path(spec["kind"]),
                    "--mode", command.split(".", 1)[1], "--year", str(spec["year"]),
                    "--seed", str(spec["seed"])]
        return args, json_path, svg_path

    def run(self, spec, tr, index):
        directory = self.ctx.tmp / "items" / f"item-{index:06d}"
        args, json_path, svg_path = self._args(spec, directory)
        if self.ctx.inject == "bad-exit" and index % 3 == 1:
            args += ["--impute", "not-a-strategy"]
        code, err = self._floodxai(args, tr, spec["command"])
        paths = {"json": json_path}
        if svg_path:
            paths["svg"] = svg_path
        return Outcome((code, err), paths)

    def probe(self, spec, outcome, tr):
        """In-process layer timings for the command the child process just ran."""
        fx = self.ctx.fx
        command = spec["command"]
        directory = self.ctx.tmp / "probe" / "item"
        args, json_path, _ = self._args(spec, directory)
        with tr.span(f"cli.main.{command}"):
            _cli_main(args)
        if outcome.value[0] != 0:
            return
        with open(outcome.paths["json"], encoding="utf-8") as handle:
            report = json.load(handle)
        if command == "summary":
            with tr.span("render.svg"):
                fx.svg_bar_chart(self.names, fx.monthly_means(self.dataset), "Mean monthly rainfall (mm)")
        elif command == "evaluate":
            for kind in KINDS:
                with tr.span("models.io.load_model"):
                    model = fx.load_model(self.model_path(kind))
                with tr.span("metrics.evaluate"):
                    fx.evaluate(model, self.parts.test, name=kind)
        else:
            with tr.span("models.io.load_model"):
                fx.load_model(self.model_path(spec["kind"]))
            if command == "explain.local-lime":
                labels = [c["condition"] for c in report["conditions"]]
                values = [c["weight"] for c in report["conditions"]]
            else:
                labels, values = report["feature_names"], report["phi"]
            with tr.span("render.svg"):
                fx.svg_two_sided_bar_chart(labels, values, f"Attributions for {spec['year']}")
        with tr.span("manifest.canonical_json"):
            fx.canonical_json(report)
        with tr.span("manifest.write_report"):
            fx.write_report(str(directory / "rewritten.json"), report)
        tr.count(
            "manifest.bytes_written_per_item",
            sum(os.path.getsize(p) for p in outcome.paths.values()),
        )

    def check(self, spec, outcome, traced):
        import numpy as np

        code, err = outcome.value
        if code != 0:
            return [f"{spec['command']} exited {code}: {err.strip()}"]
        problems = validate_reports(
            self.ctx, {_SCHEMA_OF[spec["command"]] + ":report": outcome.paths["json"]}
        )
        svg = outcome.paths.get("svg")
        if svg:
            with open(svg, encoding="utf-8") as handle:
                if "<svg" not in handle.read(200):
                    problems.append("svg chart does not start with an <svg> element")
        if problems or not spec["command"].startswith("explain."):
            return problems
        with open(outcome.paths["json"], encoding="utf-8") as handle:
            report = json.load(handle)
        model = self._reference_model(spec["kind"])
        x = np.asarray(self._reference_rows()[spec["year"]], dtype=float)
        own = float(np.asarray(model.predict_proba(x[None, :])).ravel()[0])
        if spec["command"] == "explain.local-shap":
            residual = abs(report["additivity_residual"])
            if not residual <= EFFICIENCY_TOL:
                problems.append(f"efficiency residual {residual:.3g} > {EFFICIENCY_TOL}")
            reported = report["model_output"]
        else:
            fidelity = report["local_fidelity"]
            if fidelity is None or not math.isfinite(fidelity):
                problems.append(f"lime local_fidelity {fidelity!r} is not finite")
            reported = report["predicted_proba"]
        if not abs(reported - own) <= OUTPUT_TOL:
            problems.append(f"reported probability {reported!r} != model's own {own!r}")
        return problems

    def _reference_model(self, kind):
        if self.ctx.fx is None:
            import floodxai

            self.ctx.fx = floodxai
        return self.ctx.fx.load_model(self.model_path(kind))

    def _reference_rows(self):
        if self._rows is None:
            fx = self.ctx.fx
            dataset = fx.impute_missing(fx.load_csv(self.data))
            self._rows = {r.year: r.monthly_mm for r in dataset.records}
        return self._rows


def _cli_main(args):
    """Run the CLI in this process with its output discarded; return the exit code."""
    from floodxai.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(list(args))


def validate_reports(ctx, paths):
    """Validate written JSON reports against schemas/<name>.v1.schema.json.

    `paths` maps "<schema name>:<label>" to a report path.
    """
    import jsonschema

    problems = []
    for key, path in paths.items():
        schema_name = key.split(":", 1)[0]
        validator = ctx.validators.get(schema_name)
        if validator is None:
            schema_path = ctx.root / "schemas" / f"{schema_name}.v1.schema.json"
            with open(schema_path, encoding="utf-8") as fh:
                validator = jsonschema.Draft202012Validator(json.load(fh))
            ctx.validators[schema_name] = validator
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"{key}: cannot read report: {exc}")
            continue
        for error in validator.iter_errors(report):
            problems.append(f"{key}: schema {schema_name}: {error.message}")
    return problems


WORKLOADS = {w.name: w for w in (GlobalShap, KnnLocalShap, LocalExplain, CliSession)}
