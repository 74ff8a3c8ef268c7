#!/usr/bin/env python3
"""Record, or compare, the coalition values of the stored models on one fixed set.

The set is every dataset row (121) × four backgrounds (the trainset, its
mean, its first 5 rows, its first row) × ten mask tables: the exhaustive
table and the sampled tables of budgets 26, 200 and 512 at seeds 0, 3 and 7,
each between the empty and the full coalition as Kernel SHAP builds it.
That is 4,840 calls per model kind, on the models stored in
``tests/golden/models`` and their split of ``data/kerala.csv``.

Per kind and call the script records

* v(S) of every mask, taken the way ``kernel_shap`` takes it;
* ``kernel_shap``'s phi, base value and model output for the same table
  (exhaustive, or the budget and seed);
* for the tree and KNN, the ``masked_proba`` table itself. Its cells are a
  few leaf fractions or votes, so each call stores its distinct values and
  a uint8 (or uint16) index per cell; the tables are recovered exactly.

It also records the sampler itself, which takes no model: the masks and
counts of ``_sample_coalitions`` for M in {2, 3, 12, 20, 70}, the budgets
2M + 2, 26, 200, 512 and 4094, and the seeds 0-9. ``--kinds`` with no kind
records only these, in seconds.

``--out FILE`` writes them to an ``.npz``. ``--against FILE`` compares them
with a file written by the same script, on another commit for instance, and
prints per kind and quantity whether all arrays are equal and the largest
absolute difference; it exits 1 if any array differs. The script imports
the package from the ``src/`` beside it, so a copy of it placed in another
commit's checkout records that commit's values.

Usage:
    python3 tools/coalition_parity.py --out parent.npz
    python3 tools/coalition_parity.py --out change.npz --against parent.npz
    python3 tools/coalition_parity.py --kinds tree logistic --against parent.npz
    python3 tools/coalition_parity.py --kinds --against parent.npz

On two CPUs KNN takes about two minutes, and the other three kinds about
one together.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from floodxai import MODEL_KINDS, impute_missing, load_csv, split  # noqa: E402
from floodxai.explain import shapley  # noqa: E402
from floodxai.explain.shapley import EXHAUSTIVE, ShapConfig, kernel_shap  # noqa: E402
from floodxai.models.io import model_from_dict, read_model_file  # noqa: E402

MODELS_DIR = REPO_ROOT / "tests" / "golden" / "models"
DATA_PATH = REPO_ROOT / "data" / "kerala.csv"
BUDGETS = (26, 200, 512)
SEEDS = (0, 3, 7)
TABLE_KINDS = ("tree", "knn")  # kinds whose masked_proba tables are stored
SAMPLER_WIDTHS = (2, 3, 12, 20, 70)
SAMPLER_SEEDS = range(10)


def engine_values(model, x, bg, table):
    """v(S) of every mask of `table` as `kernel_shap` computes it. Commits from
    before `masked_mean` average the `masked_proba` table instead."""
    if hasattr(shapley, "_mean_fn"):
        return shapley._mean_values(shapley._mean_fn(model), x, bg, table)
    return shapley._masked_values(shapley._masked_fn(model), x, bg, table)


def calls(m):
    """(table, n_coalition_samples, seed) of the ten tables, in order."""
    yield shapley._bit_table(m), EXHAUSTIVE, 0
    for budget in BUDGETS:
        for seed in SEEDS:
            interior, _ = shapley._sample_coalitions(m, budget, seed)
            table = np.vstack([np.zeros(m, dtype=bool), interior, np.ones(m, dtype=bool)])
            yield table, budget, seed


def record(kind):
    """Every quantity of `kind` over the set, as arrays named `<kind>/<quantity>`."""
    payload = read_model_file(MODELS_DIR / f"{kind}.json")
    model, metadata = model_from_dict(payload), payload["metadata"]
    dataset = impute_missing(load_csv(DATA_PATH))
    train = split(dataset, metadata["split"], metadata["seed"]).train.features()
    backgrounds = (train, train.mean(axis=0, keepdims=True), train[:5], train[:1])
    m = train.shape[1]
    values, phi, base, output = [], [], [], []
    levels, level_counts, index, shapes = [], [], [], []
    for x in dataset.features():
        for bg in backgrounds:
            for table, budget, seed in calls(m):
                values.append(engine_values(model, x, bg, table))
                config = ShapConfig(background=bg, n_coalition_samples=budget, seed=seed)
                explanation = kernel_shap(model, x, config)
                phi.append(explanation.phi)
                base.append(explanation.base_value)
                output.append(explanation.model_output)
                if kind in TABLE_KINDS:
                    proba = model.masked_proba(x, bg, table)
                    distinct, cells = np.unique(proba, return_inverse=True)
                    shapes.append(proba.shape)
                    levels.append(distinct)
                    level_counts.append(len(distinct))
                    index.append(cells.reshape(-1).astype(np.uint16))
    found = {
        "values": np.concatenate(values),
        "value_counts": np.array([len(v) for v in values]),
        "phi": np.array(phi),
        "base": np.array(base),
        "output": np.array(output),
    }
    if kind in TABLE_KINDS:
        found["table_levels"] = np.concatenate(levels)
        found["table_level_counts"] = np.array(level_counts)
        found["table_shapes"] = np.array(shapes)
        if max(level_counts) > 1 << 16:
            raise SystemExit(f"{max(level_counts)} distinct {kind} cells in one call "
                             f"do not fit uint16 indices")
        index = np.concatenate(index)
        found["table_index"] = index.astype(np.uint8) if max(level_counts) <= 256 else index
    return {f"{kind}/{name}": array for name, array in found.items()}


def record_sampler():
    """Masks, counts and distinct-mask counts of every sampler call, per width, as
    arrays named `sampler/m<M>/<quantity>`."""
    found = {}
    for m in SAMPLER_WIDTHS:
        masks, counts = [], []
        for budget in (2 * m + 2, 26, 200, 512, 4094):
            for seed in SAMPLER_SEEDS:
                drawn, weights = shapley._sample_coalitions(m, budget, seed)
                masks.append(drawn)
                counts.append(weights)
        found[f"sampler/m{m}/masks"] = np.concatenate(masks)
        found[f"sampler/m{m}/counts"] = np.concatenate(counts)
        found[f"sampler/m{m}/lengths"] = np.array([len(c) for c in counts])
    return found


def tables(found, kind):
    """The `masked_proba` cells of every call, flat, from their levels and index."""
    counts = found[f"{kind}/table_level_counts"]
    cells = np.prod(found[f"{kind}/table_shapes"], axis=1)
    offsets = np.repeat(np.cumsum(counts) - counts, cells)
    return found[f"{kind}/table_levels"][offsets + found[f"{kind}/table_index"]]


def same_array(label, name, got, want):
    """Print whether `got` and `want` are equal and their max |difference|."""
    if got.shape != want.shape:
        print(f"{label:9s} {name:7s} shape {got.shape} != {want.shape}")
        return False
    equal = np.array_equal(got, want)
    gap = float(np.max(np.abs(got.astype(float) - want.astype(float)))) if got.size else 0.0
    print(f"{label:9s} {name:7s} array_equal {str(equal):5s}  max |diff| {gap:.3g}"
          f"  ({got.size} entries)")
    return equal


def compare(found, reference, kinds):
    """Print, per kind (and sampler width) and quantity, array_equal and the max |difference|."""
    same = True
    for m in SAMPLER_WIDTHS:
        for name in ("masks", "counts", "lengths"):
            key, label = f"sampler/m{m}/{name}", f"sampler{m}"
            if key not in reference:
                print(f"{label:9s} {name:7s} missing from the reference file")
                same = False
                continue
            same &= same_array(label, name, found[key], reference[key])
    for kind in kinds:
        for name in ("values", "phi", "base", "output", "table"):
            key = f"{kind}/{name}"
            if name == "table":
                if kind not in TABLE_KINDS:
                    continue
                got, want = tables(found, kind), tables(reference, kind)
            elif key not in reference:
                print(f"{kind:9s} {name:7s} missing from the reference file")
                same = False
                continue
            else:
                got, want = found[key], reference[key]
            same &= same_array(kind, name, got, want)
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kinds", nargs="*", choices=MODEL_KINDS, default=list(MODEL_KINDS),
                        help="model kinds to record (none: the sampler alone)")
    parser.add_argument("--out", type=Path, help="write the recorded arrays to this .npz")
    parser.add_argument("--against", type=Path, help="compare with an .npz this script wrote")
    args = parser.parse_args(argv)
    if args.out is None and args.against is None:
        parser.error("give --out, --against or both")
    found = record_sampler()
    for kind in args.kinds:
        found.update(record(kind))
    if args.out is not None:
        np.savez_compressed(args.out, **found)
        print(f"wrote the sampler and {len(args.kinds)} kinds to {args.out}")
    if args.against is not None:
        with np.load(args.against) as reference:
            return 0 if compare(found, dict(reference), args.kinds) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
