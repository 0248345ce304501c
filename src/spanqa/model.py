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
from .encoder import MAX_WINDOW, HashedWindowEncoder, PrecomputedEncoder
from .fileio import atomic_write, plain
from .types import ParseError, ValidationError

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
    return arr.reshape(obj["shape"])


def _array(path, section: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Decode section["arrays"][name]; check it against the shape the header
    declares and that every value is finite."""
    try:
        arr = _dec(section["arrays"][name])
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise ValidationError(f"{path}: array {name!r} cannot be decoded ({err})") from None
    if arr.shape != shape:
        raise ValidationError(
            f"{path}: array {name!r} has shape {list(arr.shape)}, expected {list(shape)}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{path}: array {name!r} holds non-finite values")
    return arr


def _field(path, doc: dict, key: str, kind):
    """doc[key], checked to be a `kind` (bool never counts as a number)."""
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{path}: {key!r} has the wrong type ({type(value).__name__})")
    return value


def _count(path, doc: dict, key: str, minimum: int, maximum: int | None = None) -> int:
    value = _field(path, doc, key, int)
    if value < minimum:
        raise ValidationError(f"{path}: {key!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}: {key!r} must be <= {maximum}, got {value}")
    return value


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
            "path": backend.source_path,
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
    atomic_write(path, json.dumps(plain(doc), sort_keys=True, separators=(",", ":"),
                                  allow_nan=False) + "\n")


def load_model(path, embeddings_path=None) -> SpanScoringModel:
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ParseError(f"{path}: model file is not valid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: model file must hold a JSON object")
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
    threshold = _field(path, doc, "threshold", (int, float))
    if not 0.0 <= threshold <= 1.0:  # also rejects NaN
        raise ValidationError(f"{path}: threshold {threshold!r} is not in [0, 1]")
    bdoc = _field(path, doc, "backend", dict)
    cdoc = _field(path, doc, "classifier", dict)
    dim = _count(path, bdoc, "dim", 1)
    hidden = _count(path, cdoc, "hidden", 1)
    if _field(path, cdoc, "dim", int) != dim:
        raise ValidationError(f"{path}: classifier dim {cdoc['dim']} != backend dim {dim}")
    # arrays are checked against the header before anything is sized from it
    clf_arrays = {name: _array(path, cdoc, name, shape) for name, shape in
                  (("w1", (hidden, dim)), ("b1", (hidden,)), ("w2", (hidden,)), ("b2", (1,)))}

    name = bdoc["name"]
    if name == HashedWindowEncoder.name:
        if embeddings_path:
            raise ValidationError(
                f"{path}: model uses the {name} backend; an embeddings file does not apply")
        window = _count(path, bdoc, "window", 0, MAX_WINDOW)
        buckets = _count(path, bdoc, "buckets", 1)
        table = _array(path, bdoc, "table", (buckets, dim))
        backend = HashedWindowEncoder(dim, window, buckets)
        backend.table = table
    elif name == PrecomputedEncoder.name:
        source = embeddings_path or bdoc.get("path")
        if not source:
            raise ValidationError(
                f"{path}: model uses precomputed embeddings; pass embeddings_path")
        backend = PrecomputedEncoder.from_file(source)
        if backend.dim != dim:
            raise ValidationError(f"{path}: embeddings in {source} are {backend.dim}-dimensional, "
                                  f"the model expects {dim}")
    else:
        raise ValidationError(f"{path}: unknown backend {name!r}")

    clf = SpanClassifier(dim, hidden)
    for key, param in clf.params().items():
        param[...] = clf_arrays[key]
    return SpanScoringModel(
        backend=backend,
        classifier=clf,
        threshold=float(threshold),
        train_config=_field(path, doc, "train_config", dict),
    )
