"""Small file helpers shared by the readers and writers."""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import tempfile
from typing import Iterable

# (path, backup) for each file `atomic_write_text` wrote inside
# `restored_on_error`, the backup holding the file it replaced, else None
_written: contextvars.ContextVar[list[tuple[str, str | None]] | None] = \
    contextvars.ContextVar("crowdpost_written", default=None)


class RepeatedKey(ValueError):
    """A JSON object repeats a key, which the decoder would resolve silently,
    last value winning."""


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The `object_pairs_hook` that raises `RepeatedKey` for a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise RepeatedKey(f"repeated key {key!r}")
            seen.add(key)
    return obj


def read_json(path):
    """The JSON value of a whole file.  A file that is not UTF-8, is not
    JSON, nests deeper than the decoder's recursion limit, or repeats a key
    within one object (which the decoder would resolve silently, last value
    winning) raises a one-line ValueError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except RepeatedKey as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _unlink_quietly(path: str | None) -> None:
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass


def atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write `text`, or the concatenation of an iterable of strings, via a
    temp file in the same directory, then rename.

    Creates the directory when it is missing.  Keeps failed runs from leaving
    half-written outputs behind.  The file gets the mode a plain `open` would
    give it under the process umask, not the owner-only mode of the temp file.
    Inside `restored_on_error`, the file it replaces is kept aside.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    written = _written.get()
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    backup = None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        if written is not None and os.path.isfile(path):
            # a hard link under the temp file's unique name keeps the old file
            link = tmp.removesuffix(".tmp") + ".bak"
            os.link(path, link, follow_symlinks=False)
            backup = link
        os.replace(tmp, path)
    except BaseException:
        _unlink_quietly(tmp)
        _unlink_quietly(backup)
        raise
    if written is not None:
        written.append((path, backup))


@contextlib.contextmanager
def restored_on_error():
    """Run a block; when it raises, undo every write `atomic_write_text` made
    inside it, latest first: a new file is removed and a replaced one put
    back, so a failed command leaves its output paths as it found them.
    Each file stays in place as soon as its writer returns."""
    written: list[tuple[str, str | None]] = []
    token = _written.set(written)
    try:
        yield
    except BaseException:
        for path, backup in reversed(written):
            try:
                if backup is None:
                    os.unlink(path)
                else:
                    os.replace(backup, path)
            except OSError:
                pass
        raise
    else:
        for _, backup in written:
            _unlink_quietly(backup)
    finally:
        _written.reset(token)
