"""Atomic filesystem write discipline.

Every artifact the package writes — GDS/SVG exports, JSONL traces,
``--metrics`` files, journal checkpoints — must never be observable in a
half-written state: a process killed mid-write would otherwise leave a
truncated file that poisons the next consumer (a resume, a trace replay,
a GDS import).  :func:`atomic_write` provides the shared
discipline: write the full payload to a temporary file in the *same
directory* (so the final rename never crosses a filesystem), flush,
fsync, then ``os.replace`` onto the destination.  Readers therefore see
either the previous complete file or the new complete file, never a mix.

This module is dependency-free on purpose: the telemetry, layout and
resilience layers all import it without creating cycles.
"""

from __future__ import annotations

import os
import tempfile
from typing import Union


def fsync_directory(path: str) -> None:
    """Flush a directory entry to disk (best-effort on platforms without
    directory fds, e.g. Windows)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: str, data: Union[str, bytes], encoding: str = "utf-8"
) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives next to the destination so the final rename
    is atomic on POSIX; the data is flushed and fsynced before the
    rename, and the directory entry is fsynced after it, so a kill at
    any instant leaves either the old file or the complete new one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if isinstance(data, str):
        data = data.encode(encoding)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
