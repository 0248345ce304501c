"""The one way spanqa writes a file, and the one way it reads and writes JSON.

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
naming the file. read_jsonl yields one object per non-blank line; a line that
is not UTF-8 JSON or not an object raises a ParseError naming file and line.
"""

from __future__ import annotations

import json
import math
import os
import re
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


_SURROGATE = re.compile("[\ud800-\udfff]")


def has_lone_surrogate(text: str) -> bool:
    """Whether text holds a lone surrogate: JSON's \\ud800 escapes let a read
    produce one, and no UTF-8 write can encode it."""
    return _SURROGATE.search(text) is not None


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


def read_jsonl(path):
    """Yield (line number, record dict) for each non-blank line of path."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({err})") from None
            if not isinstance(rec, dict):
                raise ParseError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec
