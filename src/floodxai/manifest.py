"""Run manifests, canonical JSON serialization, and atomic report files.

Every CLI report embeds a manifest describing the command, the dataset
content hash, all seeds and hyperparameters, and the tool version. Two
runs with equal manifests must produce byte-identical reports once
timestamp fields are excluded, so serialization here is canonical:
sorted keys, fixed indentation, shortest round-trip float formatting.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
from datetime import datetime, timezone

SCHEMA_VERSION = 1
TIMESTAMP_KEYS = frozenset({"created_at"})


def dataset_fingerprint(path):
    """sha256 content hash of a file, prefixed with the algorithm name."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _plain(obj):
    """Reduce numpy containers/scalars to JSON-native types; NaN -> null."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(path, obj):
    """Write canonical JSON atomically; a failed serialization writes nothing."""
    write_text({path: canonical_json(obj)})
    return path


def write_text(texts):
    """Write each text of a {path: text} mapping atomically, as one group.

    Every parent directory is made, then every text is written to a temp file
    beside its path, and only then is each temp file renamed over its path. A
    failure before the renames removes the temp files and raises, so it leaves
    none of the group's files behind.

    Each temp file is created with mode 0666 less the umask, so the renamed file
    gets the mode that a plain `open` would give it.
    """
    targets = [(path, os.path.dirname(os.path.abspath(path))) for path in texts]
    for _, directory in targets:
        os.makedirs(directory, exist_ok=True)
    staged = []
    try:
        for path, directory in targets:
            tmp_path = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
            fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp_path, path))
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(texts[path])
        for tmp_path, path in staged:
            os.replace(tmp_path, path)
    except BaseException:
        for tmp_path, _ in staged:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise


def strip_timestamps(obj):
    """Recursively drop timestamp fields, for run-to-run byte comparison."""
    if isinstance(obj, dict):
        return {
            k: strip_timestamps(v) for k, v in obj.items() if k not in TIMESTAMP_KEYS
        }
    if isinstance(obj, list):
        return [strip_timestamps(v) for v in obj]
    return obj


def build_manifest(command, data_path, version, seeds=None, hyperparameters=None):
    """Assemble the reproducibility record embedded in every report."""
    return {
        "command": command,
        "dataset_fingerprint": dataset_fingerprint(data_path),
        "seeds": dict(seeds or {}),
        "hyperparameters": _plain(hyperparameters or {}),
        "version": version,
        "created_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
