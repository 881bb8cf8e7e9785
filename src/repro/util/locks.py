"""Advisory file locking and atomic publication for multi-writer stores.

Every on-disk store that more than one process may mutate -- the
artifact cache's shape index, the SMT query cache's persistent warm
tier, the portfolio's win-rate book -- follows the same two-part
discipline, factored here so the implementations cannot drift:

* **atomic publication**: content is written to a temp file in the
  destination directory and published with ``os.replace``, so a reader
  (or a crash) can never observe a torn write;
* **advisory ``flock`` on mutation**: read-merge-write cycles hold an
  exclusive lock on a sibling ``.lock`` file, so two concurrent writers
  serialize their merges and neither clobbers the other's delta.

Locks are *advisory*: they only coordinate writers that opt in, which
is exactly the fleet's contract (every writer is this codebase).  On
platforms without ``fcntl`` the lock degrades to a no-op and writers
fall back to atomic last-writer-wins -- merges may lose a delta there,
but torn writes remain impossible.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

try:  # advisory file locking is POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = ["file_lock", "atomic_write_bytes", "atomic_write_text"]


@contextmanager
def file_lock(path: str | os.PathLike):
    """Hold an exclusive advisory ``flock`` on ``path`` (created empty
    if absent).  Yields the open lock handle, or ``None`` where
    ``fcntl`` is unavailable and the lock degrades to a no-op."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield None
        return
    fh = open(path, "a")
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield fh
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    finally:
        fh.close()


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Publish ``text`` at ``path`` atomically, UTF-8 encoded (see
    :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically (temp file + replace).

    The temp file gets a unique name, so even unserialized concurrent
    writers can never interleave bytes -- the last ``os.replace`` wins
    with a complete payload.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
