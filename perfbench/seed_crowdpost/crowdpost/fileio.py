"""Small file helpers shared by the writers."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    Keeps failed runs from leaving half-written outputs behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
