"""Small file helpers shared by the writers."""

from __future__ import annotations

import contextlib
import contextvars
import os
import tempfile

# the paths `atomic_write_text` wrote inside `removed_on_error`, else None
_written: contextvars.ContextVar[list[str] | None] = contextvars.ContextVar(
    "crowdpost_written", default=None)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write via a temp file in the same directory, then rename.

    Creates the directory when it is missing.  Keeps failed runs from leaving
    half-written outputs behind.  The file gets the mode a plain `open` would
    give it under the process umask, not the owner-only mode of the temp file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    written = _written.get()
    if written is not None:
        written.append(path)


@contextlib.contextmanager
def removed_on_error():
    """Run a block; when it raises, remove every file `atomic_write_text`
    wrote inside it, so a failed command leaves none of its outputs.  Each
    file stays in place as soon as its writer returns."""
    written: list[str] = []
    token = _written.set(written)
    try:
        yield
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    finally:
        _written.reset(token)
