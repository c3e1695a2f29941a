"""Crash-safe file writes.

The durability primitive under every on-disk artifact the library
produces (language models, store manifests, sampler checkpoints):
write the full content to a temporary file in the *same directory*,
``fsync`` it, then atomically :func:`os.replace` it over the target.
A crash at any instant leaves either the old file or the new file —
never a torn mixture — and a failed write never clobbers the target.

These functions are re-exported by :mod:`repro.store`, which owns the
public persistence API; they live here (the dependency-free bottom
layer) so :mod:`repro.lm.io` can use them without a package cycle.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path
from typing import BinaryIO, Iterator

__all__ = ["atomic_write_bytes", "atomic_write_text", "atomic_writer", "fsync_directory"]


def fsync_directory(path: str | Path) -> None:
    """Flush a directory entry to disk (best effort).

    After :func:`os.replace`, the *rename itself* lives in the
    directory; fsyncing it makes the publish durable across power
    loss.  Platforms that cannot fsync a directory are silently
    skipped — atomicity (old-or-new, never torn) holds regardless.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Stream a file's bytes to ``path``, published atomically on exit.

    The caller writes to a temporary file created next to the target,
    so the final :func:`os.replace` stays within one filesystem (a
    cross-device rename is not atomic).  If the block raises, the
    temporary file is removed and the target is left exactly as it was.
    The file gets the permissions ``open(path, "w")`` would give it.
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    tmp_name = directory / f".{target.name}.{secrets.token_hex(6)}.tmp"
    try:
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # Name the file the caller asked for, not the temporary one.
        raise type(exc)(exc.errno, exc.strerror, str(target)) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    fsync_directory(directory)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically publish ``data`` at ``path`` (see :func:`atomic_writer`)."""
    with atomic_writer(path) as handle:
        handle.write(data)


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Atomically publish ``text`` at ``path`` (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))
