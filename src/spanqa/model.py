"""Model container and versioned on-disk format.

The file is a single JSON object with arrays stored as base64 little-endian
float64 bytes and keys sorted, so identical models serialize byte-identically
(no timestamps, no platform-dependent fields).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .classifier import SpanClassifier
from .encoder import HashedWindowEncoder, PrecomputedEncoder
from .fileio import atomic_write
from .types import ValidationError

FORMAT_VERSION = 1


@dataclass
class SpanScoringModel:
    backend: HashedWindowEncoder | PrecomputedEncoder
    classifier: SpanClassifier
    threshold: float  # fitted decision threshold tau
    train_config: dict


def _enc(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    blob = arr.astype("<f8", copy=False).tobytes()
    return {"shape": list(arr.shape), "data": base64.b64encode(blob).decode("ascii")}


def _dec(obj: dict) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8").astype(np.float64)
    return arr.reshape(obj["shape"]).copy()


def _array(path, arrays: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Decode arrays[name] and check it against the shape the header declares."""
    try:
        arr = _dec(arrays[name])
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise ValidationError(f"{path}: array {name!r} cannot be decoded ({err})") from None
    if arr.shape != shape:
        raise ValidationError(
            f"{path}: array {name!r} has shape {list(arr.shape)}, expected {list(shape)}")
    return arr


def save_model(model: SpanScoringModel, path) -> None:
    backend = model.backend
    if isinstance(backend, HashedWindowEncoder):
        backend_doc = {
            "name": backend.name,
            "dim": backend.dim,
            "window": backend.window,
            "buckets": backend.buckets,
            "arrays": {"table": _enc(backend.table)},
        }
    elif isinstance(backend, PrecomputedEncoder):
        backend_doc = {
            "name": backend.name,
            "dim": backend.dim,
            "path": str(getattr(backend, "source_path", "")),
        }
    else:
        raise ValidationError(f"cannot serialize backend {type(backend).__name__}")
    clf = model.classifier
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "span-scoring-model",
        "threshold": model.threshold,
        "train_config": model.train_config,
        "backend": backend_doc,
        "classifier": {
            "dim": clf.dim,
            "hidden": clf.hidden,
            "arrays": {name: _enc(value) for name, value in clf.params().items()},
        },
    }
    atomic_write(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path, embeddings_path=None) -> SpanScoringModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{path}: model format version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})")

    try:
        return _decode(doc, path, embeddings_path)
    except KeyError as err:
        raise ValidationError(f"{path}: model file is missing key {err}") from None


def _decode(doc: dict, path, embeddings_path) -> SpanScoringModel:
    bdoc = doc["backend"]
    if bdoc["name"] == HashedWindowEncoder.name:
        backend = HashedWindowEncoder(bdoc["dim"], bdoc["window"], bdoc["buckets"])
        backend.table = _array(path, bdoc["arrays"], "table", (backend.buckets, backend.dim))
    elif bdoc["name"] == PrecomputedEncoder.name:
        source = embeddings_path or bdoc.get("path")
        if not source:
            raise ValidationError(
                f"{path}: model uses precomputed embeddings; pass embeddings_path")
        backend = PrecomputedEncoder.from_file(source)
        backend.source_path = source
    else:
        raise ValidationError(f"{path}: unknown backend {bdoc['name']!r}")

    cdoc = doc["classifier"]
    clf = SpanClassifier(cdoc["dim"], cdoc["hidden"])
    for name, param in clf.params().items():
        param[...] = _array(path, cdoc["arrays"], name, param.shape)
    return SpanScoringModel(
        backend=backend,
        classifier=clf,
        threshold=float(doc["threshold"]),
        train_config=doc["train_config"],
    )
