"""Model container and versioned on-disk format.

The file is a single JSON object with arrays stored as base64 little-endian
float64 bytes and keys sorted, so identical models serialize byte-identically
(no timestamps, no platform-dependent fields).

save_model never holds an array's base64 or the file's whole text: it writes
the document in pieces, a dict key by key in sorted order, each array as the
base64 of consecutive slices of its memory, and any other value in one
json.dumps. Each slice is a multiple of 3 bytes long, so the pieces join into
the base64 of the whole array, and the file is the one a single json.dumps of
the document would give, whatever its strings hold. load_model decodes each
array from its base64 string into a read-only array over the decoded bytes,
with no further copy, and builds the encoder and classifier from the arrays
without drawing random parameters; a loaded encoder table is read-only, like
a seeded one. The encoder (window, buckets), the classifier (hidden) and
SpanScoringModel own their values' rules; load_model checks only the version,
the sections' types and their shared dim, and puts the path once before any error.
"""

from __future__ import annotations

import binascii
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .classifier import SpanClassifier
from .encoder import HashedWindowEncoder, PrecomputedEncoder
from .fileio import atomic_write, plain, read_json
from .types import ParseError, ValidationError, check_count, check_fraction

FORMAT_VERSION = 1


@dataclass
class SpanScoringModel:
    backend: HashedWindowEncoder | PrecomputedEncoder
    classifier: SpanClassifier
    threshold: float  # fitted decision threshold tau, a number in [0, 1]
    train_config: dict

    def __post_init__(self):
        self.threshold = check_fraction("'threshold'", self.threshold)


# bytes of array data per base64 piece save_model writes; a multiple of 3, so
# no piece but the last is padded
_CHUNK = 3 * 2**14


def _base64(arr: np.ndarray):
    """Yield the base64 of arr's little-endian float64 bytes in pieces, each
    encoded from a _CHUNK-byte slice of the array's own memory."""
    data = memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")
    for start in range(0, len(data), _CHUNK):
        yield binascii.b2a_base64(data[start:start + _CHUNK], newline=False).decode("ascii")


def _array(section: dict, name: str) -> np.ndarray:
    """Decode section["arrays"][name], the one base64 decoding rule: a
    read-only array over the bytes decoded from its data, shaped by its shape;
    a2b_base64 accepts and rejects the same input as base64.b64decode. The
    array's owner checks its values."""
    try:
        obj = section["arrays"][name]
        return np.frombuffer(binascii.a2b_base64(obj["data"]), dtype="<f8").reshape(obj["shape"])
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise ValidationError(f"array {name!r} cannot be decoded ({err})") from None


def _field(doc: dict, key: str, kind):
    """doc[key], checked to be a `kind` (bool never counts as a number)."""
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{key!r} has the wrong type ({type(value).__name__})")
    return value


def _json(value):
    """Yield the compact JSON text of value, dict keys sorted, in pieces: an
    array as {"data": its base64, "shape": its shape}, a dict key by key, and
    any other value in one json.dumps. A dict key that is not a str raises
    ValidationError: only str keys read back as the keys they were."""
    if isinstance(value, np.ndarray):
        yield '{"data":"'
        yield from _base64(value)
        yield f'","shape":{json.dumps(list(value.shape), separators=(",", ":"))}}}'
    elif isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise ValidationError(f"cannot save the dict key {key!r}: keys must be str")
        yield "{"
        for k, key in enumerate(sorted(value)):
            yield f'{"," if k else ""}{json.dumps(key)}:'
            yield from _json(value[key])
        yield "}"
    else:
        yield json.dumps(plain(value), sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_model(model: SpanScoringModel, path) -> None:
    backend = model.backend
    if isinstance(backend, HashedWindowEncoder):
        backend_doc = {
            "name": backend.name,
            "dim": backend.dim,
            "window": backend.window,
            "buckets": backend.buckets,
            "arrays": {"table": backend.table},
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
            "arrays": clf.params(),
        },
    }
    atomic_write(path, itertools.chain(_json(doc), ("\n",)))


def load_model(path, embeddings_path=None) -> SpanScoringModel:
    doc = read_json(path)
    try:
        return _decode(doc, embeddings_path)
    except KeyError as err:
        raise ParseError(f"{path}: model file is missing key {err}") from None
    except (ParseError, ValidationError) as err:
        raise type(err)(f"{path}: {err}") from None


def _decode(doc: dict, embeddings_path) -> SpanScoringModel:
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # not True or 1.0, though both == 1
        raise ValidationError(f"unsupported format version {version!r}, expected {FORMAT_VERSION}")
    bdoc = _field(doc, "backend", dict)
    cdoc = _field(doc, "classifier", dict)
    dim = check_count("'dim'", bdoc["dim"], 1)
    if _field(cdoc, "dim", int) != dim:
        raise ValidationError(f"classifier dim {cdoc['dim']} != backend dim {dim}")

    name = bdoc["name"]
    if name == HashedWindowEncoder.name:
        if embeddings_path:
            raise ValidationError(f"an embeddings file does not apply to the {name} backend")
        backend = HashedWindowEncoder(dim, bdoc["window"], bdoc["buckets"],
                                      table=_array(bdoc, "table"))
    elif name == PrecomputedEncoder.name:
        source = embeddings_path or _field(bdoc, "path", str)
        if not source:
            raise ValidationError("model uses precomputed embeddings; pass embeddings_path")
        backend = PrecomputedEncoder.from_file(source)
        if backend.dim != dim:
            raise ValidationError(f"embeddings in {source} are {backend.dim}-dimensional, "
                                  f"the model expects {dim}")
    else:
        raise ValidationError(f"unknown backend {name!r}")

    return SpanScoringModel(
        backend=backend,
        classifier=SpanClassifier(dim, cdoc["hidden"], params={
            name: _array(cdoc, name) for name in ("w1", "b1", "w2", "b2")}),
        threshold=doc["threshold"],
        train_config=_field(doc, "train_config", dict),
    )
