"""Versioned JSON persistence for trained models.

Each file records the model kind, hyperparameters, learned parameters,
the training scaler, and free-form metadata. Hyperparameters are the
fields of the model's config dataclass; the model class lays out the
learned parameters (`parameters` / `from_parameters`), the linear pair through
their shared `LinearClassifier`. Floats survive the JSON
round trip exactly (shortest-repr encoding), so a reloaded model makes
bit-identical predictions. Training curves are not persisted.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

from ..dataset import Scaler
from ..errors import ConfigError
from ..manifest import write_report
from .base import _finite_parameter
from .kinds import kind_entry, model_kind

MODEL_FORMAT_VERSION = 1


def _scaler_to_dict(scaler):
    if scaler is None:
        return None
    return {"mean": list(scaler.mean), "std": list(scaler.std)}


def _scaler_from_dict(payload):
    if payload is None:
        return None
    std = _finite_parameter("scaler std", payload["std"])
    if not (std > 0).all():
        raise ConfigError(f"scaler std must be positive, got {std.tolist()}")
    return Scaler(mean=_finite_parameter("scaler mean", payload["mean"]), std=std)


def model_to_dict(model, metadata=None, manifest=None):
    """Serializable payload for a trained model; optionally with a run manifest."""
    payload = {
        "schema": "floodxai.model",
        "schema_version": 1,
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model_kind(model),
        "hyperparameters": asdict(model.config),
        "parameters": model.parameters(),
        "scaler": _scaler_to_dict(model.scaler),
        "metadata": dict(metadata or {}),
    }
    if manifest is not None:
        payload["manifest"] = manifest
    return payload


def model_from_dict(payload):
    """Rebuild a trained model from its serialized payload.

    A payload that is not a valid model file raises ConfigError naming the
    unsupported version, unknown kind or hyperparameter, missing key,
    non-object metadata, value of the wrong type, hyperparameter out of range,
    or learned parameter that is not finite (a scaler std must be positive).
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"a model file holds a JSON object, got {type(payload).__name__}")
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ConfigError(
            f"model file metadata must be a JSON object, got {type(metadata).__name__}"
        )
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ConfigError(
            f"unsupported model format_version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    entry = kind_entry(payload.get("kind"))
    hyper = payload.get("hyperparameters", {})
    try:
        unknown = sorted(set(hyper) - {f.name for f in fields(entry.config_class)})
        if unknown:
            raise ConfigError(f"unknown {payload['kind']} hyperparameters {unknown}")
        config = entry.config_class(**hyper)
        config.validate()
        return entry.model_class.from_parameters(
            payload.get("parameters", {}), config, _scaler_from_dict(payload.get("scaler"))
        )
    except KeyError as exc:
        raise ConfigError(f"model file is missing key {exc.args[0]!r}") from None
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model file: {exc}") from None


def save_model(model, path, metadata=None, manifest=None):
    """Write a model JSON file atomically; optionally embed a run manifest."""
    return write_report(path, model_to_dict(model, metadata, manifest))


def read_model_file(path):
    """The parsed JSON payload of a model file; non-JSON raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}") from None


def load_model(path):
    """Load a model JSON file written by :func:`save_model`."""
    return model_from_dict(read_model_file(path))
