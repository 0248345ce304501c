"""Model container and versioned on-disk format.

The file is a single JSON object with arrays stored as base64 little-endian
float64 bytes and keys sorted, so identical models serialize byte-identically
(no timestamps, no platform-dependent fields).

save_model never holds an array's base64 or the file's whole text: it dumps
the document with a slot in place of each array's data, then writes the text
around the slots and, in each slot's place, the base64 of consecutive slices
of the array's memory. Each slice is a multiple of 3 bytes long, so the
pieces join into the base64 of the whole array, and the file is the one a
single json.dumps of the document would give. load_model decodes each array
from its base64 string into a read-only array over the decoded bytes, with
no further copy, and builds the encoder and classifier from the arrays
without drawing random parameters; a loaded encoder table is read-only, like
a seeded one.
"""

from __future__ import annotations

import binascii
import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

from .classifier import SpanClassifier
from .encoder import MAX_WINDOW, HashedWindowEncoder, PrecomputedEncoder
from .fileio import atomic_write, plain, read_json
from .types import ValidationError, check_count

FORMAT_VERSION = 1


@dataclass
class SpanScoringModel:
    backend: HashedWindowEncoder | PrecomputedEncoder
    classifier: SpanClassifier
    threshold: float  # fitted decision threshold tau
    train_config: dict


# bytes of array data per base64 piece save_model writes; a multiple of 3, so
# no piece but the last is padded
_CHUNK = 3 * 2**14


def _base64(arr: np.ndarray):
    """Yield the base64 of arr's little-endian float64 bytes in pieces, each
    encoded from a _CHUNK-byte slice of the array's own memory."""
    data = memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")
    for start in range(0, len(data), _CHUNK):
        yield binascii.b2a_base64(data[start:start + _CHUNK], newline=False).decode("ascii")


def _dec(obj: dict) -> np.ndarray:
    """A read-only array over the bytes decoded from obj's base64 data;
    a2b_base64 accepts and rejects the same input as base64.b64decode."""
    return np.frombuffer(binascii.a2b_base64(obj["data"]), dtype="<f8").reshape(obj["shape"])


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


def save_model(model: SpanScoringModel, path) -> None:
    arrays: dict[str, np.ndarray] = {}  # slot -> the array whose base64 goes there

    def slot(arr: np.ndarray) -> dict:
        name = f"<array {len(arrays)}>"
        arrays[name] = arr
        return {"shape": list(arr.shape), "data": name}

    backend = model.backend
    if isinstance(backend, HashedWindowEncoder):
        backend_doc = {
            "name": backend.name,
            "dim": backend.dim,
            "window": backend.window,
            "buckets": backend.buckets,
            "arrays": {"table": slot(backend.table)},
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
            "arrays": {name: slot(value) for name, value in clf.params().items()},
        },
    }
    text = json.dumps(plain(doc), sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    # text, slot, text, slot, ..., text; base64 needs no JSON escaping
    parts = re.split("(" + "|".join(map(re.escape, arrays)) + ")", text)
    if sorted(parts[1::2]) != sorted(arrays):
        raise ValidationError("cannot save the model: one of its strings holds an array "
                              "slot such as '<array 0>'")
    atomic_write(path, itertools.chain.from_iterable(
        _base64(arrays[part]) if k % 2 else (part,) for k, part in enumerate(parts)))


def load_model(path, embeddings_path=None) -> SpanScoringModel:
    doc = read_json(path)
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
    dim = check_count(f"{path}: 'dim'", bdoc["dim"], 1)
    hidden = check_count(f"{path}: 'hidden'", cdoc["hidden"], 1)
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
        window = check_count(f"{path}: 'window'", bdoc["window"], 0, MAX_WINDOW)
        buckets = check_count(f"{path}: 'buckets'", bdoc["buckets"], 1)
        backend = HashedWindowEncoder(dim, window, buckets,
                                      table=_array(path, bdoc, "table", (buckets, dim)))
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

    return SpanScoringModel(
        backend=backend,
        classifier=SpanClassifier(dim, hidden, params=clf_arrays),
        threshold=float(threshold),
        train_config=_field(path, doc, "train_config", dict),
    )
