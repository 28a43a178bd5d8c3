"""Crash-consistent storage primitives shared by every durability surface.

Every artifact the reproduction persists — simulation checkpoints,
trace and telemetry sinks, result tables — routes its bytes through
this module.  Centralizing the write path buys three guarantees that
each consumer used to hand-roll (or lack):

* **Atomicity.**  :func:`atomic_write_bytes` stages into a temporary
  file in the destination directory, fsyncs, and ``os.replace``\\ s into
  place, so readers observe either the old content or the new content,
  never a torn half-file.
* **Canonical JSON.**  :func:`canonical_json` is the serialization the
  checkpoint envelope's checksum is computed over.
* **Bounded retry.**  Transient ``OSError``\\ s (ENOSPC, EDQUOT,
  EAGAIN, EINTR) are retried with bounded exponential backoff before
  surfacing as :class:`repro.errors.StorageError`; a ``verify=True``
  write that reads back torn or stale bytes is retried the same way.

docs/durability.md maps each artifact to its guarantee and to what
its reader does with a damaged copy.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from typing import Any, Dict

from .errors import StorageError

__all__ = [
    "canonical_json",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_bytes",
    "read_text",
]

# Transient errnos worth retrying: out-of-space and interrupted /
# temporarily-unavailable syscalls.  Everything else (EACCES, EROFS,
# ENOENT on the parent directory) is permanent and surfaces at once.
_TRANSIENT_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EDQUOT, errno.EAGAIN, errno.EINTR}
)
_MAX_RETRIES = 3
_BACKOFF_SECONDS = 0.01


# ---------------------------------------------------------------------------
# canonical JSON


def canonical_json(record: Dict[str, Any]) -> str:
    """The canonical serialization checksums are computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# retry plumbing


def _retry_transient(what: str, path: str, func: Any) -> Any:
    """Run ``func`` retrying transient OSErrors with bounded backoff."""
    attempt = 0
    while True:
        try:
            return func()
        except OSError as exc:
            transient = exc.errno in _TRANSIENT_ERRNOS
            attempt += 1
            if not transient or attempt > _MAX_RETRIES:
                raise StorageError(
                    f"cannot {what} {path!r}: {exc}"
                ) from exc
            time.sleep(_BACKOFF_SECONDS * (2 ** (attempt - 1)))


# ---------------------------------------------------------------------------
# primitives


def atomic_write_bytes(path: str, data: bytes, verify: bool = False) -> None:
    """Atomically replace ``path`` with ``data`` (write-temp, fsync, rename).

    A transient failure (ENOSPC and the like) removes the temp file and
    is retried up to the bounded budget, then surfaced as
    :class:`StorageError`.

    ``verify`` reads the destination back after the rename and treats
    any byte difference as a transient failure (rewritten, then loud).
    Checksummed surfaces don't need it — their *readers* detect damage
    — but final artifacts with no checksum and no later reader (result
    tables, stats JSON, trace snapshots) would otherwise be the one
    place a lying disk could corrupt silently.
    """

    def _attempt() -> None:
        directory = os.path.dirname(path) or "."
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        if verify:
            try:
                with open(path, "rb") as handle:
                    on_disk = handle.read()
            except FileNotFoundError:
                on_disk = None
            if on_disk != data:
                raise OSError(
                    errno.EAGAIN,
                    "read-back verification found torn or stale bytes",
                )

    _retry_transient("write", path, _attempt)


def atomic_write_text(
    path: str, text: str, encoding: str = "utf-8", verify: bool = False
) -> None:
    atomic_write_bytes(path, text.encode(encoding), verify=verify)


def read_bytes(path: str) -> bytes:
    """Read a file fully.

    ``FileNotFoundError`` and other ``OSError``\\ s propagate unchanged,
    so each caller reports a missing or unreadable file in its own
    terms.
    """
    with open(path, "rb") as handle:
        return handle.read()


def read_text(path: str, encoding: str = "utf-8") -> str:
    return read_bytes(path).decode(encoding, errors="replace")
