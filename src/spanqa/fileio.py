"""The only module that opens a file or parses JSON, so every write goes
through atomic_write and every JSON input through read_json or read_jsonl.
model.save_model dumps its own compact JSON text and hands it to atomic_write.

A write takes its text as an iterable of strings, written in order, so a
large file need never be held as one string. It goes to a fresh temporary
file in the destination's directory, which then replaces the destination
with os.replace. A write that fails partway, in the file system or in the
code that makes the strings, leaves the previous file, if any, as it was and
removes the temporary file.

Every JSON artifact is strict JSON. `plain` writes a float infinity as the
string "inf" or "-inf"; a NaN raises ValueError, and the previous file stays
as it was. write_json writes one indented object with sorted keys;
write_jsonl streams one compact object per line, keys in insertion order.

read_json reads a whole file holding one JSON object: one that is not UTF-8
JSON raises a ParseError, one holding another value a ValidationError, each
naming the file. read_jsonl(path, build) is the one reader of a JSON-Lines
input: build turns one non-blank line's object into (report_id, record), or
None (the embeddings header), and read_jsonl returns the records by id, in
file order. Each error it raises starts "path:N: ". A line that is not UTF-8
JSON or not an object, or lacks a key ("missing field 'k'"), is a ParseError;
a repeated id is a ValidationError. A ParseError or ValidationError that
build raises keeps its class.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from collections.abc import Iterable

from .types import ParseError, ValidationError


def atomic_write(path, chunks: Iterable[str]) -> None:
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        # "x" creates with the usual umask-derived mode, like a plain open(path, "w")
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def plain(value):
    """value with each float infinity, in any nested dict, list or tuple,
    replaced by "inf" or "-inf"; everything else is returned as it is."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def write_json(path, doc) -> None:
    atomic_write(path, (json.dumps(plain(doc), ensure_ascii=False, sort_keys=True, indent=2,
                                   allow_nan=False), "\n"))


def write_jsonl(path, records) -> None:
    atomic_write(path, (json.dumps(plain(r), ensure_ascii=False, allow_nan=False) + "\n"
                        for r in records))


def read_json(path) -> dict:
    try:
        with open(path, "rb") as fh:
            # the bytes are freed once decoded, before json.loads runs
            doc = json.loads(fh.read().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ParseError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return doc


def read_jsonl(path, build) -> dict:
    """{report_id: record} of path's lines, in file order; see the module docstring."""
    records = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ParseError("expected a JSON object")
                item = build(obj)
                if item is not None:
                    report_id, record = item
                    if report_id in records:
                        raise ValidationError(f"duplicate report id {report_id!r}")
                    records[report_id] = record
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({err})") from None
            except KeyError as err:
                raise ParseError(f"{path}:{lineno}: missing field {err}") from None
            except (ParseError, ValidationError) as err:
                raise type(err)(f"{path}:{lineno}: {err}") from None
    return records
