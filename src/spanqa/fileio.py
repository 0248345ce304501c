"""The one way spanqa writes a file: atomically.

The text goes to a fresh temporary file in the destination's directory, which
then replaces the destination with os.replace. A write that fails partway
leaves the previous file, if any, untouched and removes the temporary file.
"""

from __future__ import annotations

import os
import uuid


def atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        # "x" creates with the usual umask-derived mode, like a plain open(path, "w")
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
