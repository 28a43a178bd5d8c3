"""Crash-consistent storage primitives shared by every durability surface.

Every artifact the reproduction persists — cache entries, journal
records, simulation checkpoints, progress heartbeats, trace and
telemetry sinks — routes its bytes through this module.  Centralizing
the write path buys three guarantees that each consumer used to
hand-roll (or lack):

* **Atomicity.**  :func:`atomic_write_bytes` stages into a temporary
  file in the destination directory, fsyncs, and ``os.replace``\\ s into
  place, so readers observe either the old content or the new content,
  never a torn half-file.  :class:`DurableAppender` fsyncs every
  appended line, so a record accepted by the appender survives SIGKILL.
* **Checksums.**  :func:`frame_bytes` / :func:`unframe_bytes` wrap
  binary blobs in a blake2b-checksummed envelope, and
  :func:`seal_record` / :func:`check_record` embed a blake2b digest in
  JSONL records (the ``"cs"`` field, computed over the canonical JSON
  of the record without it).  Readers accept the legacy unframed /
  unsealed formats unchanged, so artifacts written before this layer
  existed keep loading.
* **Bounded retry.**  Transient ``OSError``\\ s (ENOSPC, EDQUOT,
  EAGAIN, EINTR) are retried with bounded exponential backoff before
  surfacing as :class:`repro.errors.StorageError`; a ``verify=True``
  write that reads back torn or stale bytes is retried the same way.

docs/durability.md maps each artifact to its guarantee and to what
its reader does with a damaged copy.
"""

from __future__ import annotations

import errno
import io
import json
import os
import tempfile
import time
from hashlib import blake2b
from typing import Any, Dict, IO, Iterator, Optional

from .errors import ChecksumError, StorageError

__all__ = [
    "FRAME_MAGIC",
    "frame_bytes",
    "unframe_bytes",
    "canonical_json",
    "seal_record",
    "check_record",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_bytes",
    "read_text",
    "DurableAppender",
    "iter_sealed_lines",
]

# Frame layout: 4-byte magic, 16-byte blake2b digest of the payload,
# payload.  The magic can never collide with the formats that predate
# framing (pickle protocol >= 2 starts with b"\x80", JSON with
# whitespace/punctuation), which is what makes the legacy passthrough
# in unframe_bytes safe.
FRAME_MAGIC = b"RSF1"
_FRAME_DIGEST_SIZE = 16
_RECORD_DIGEST_SIZE = 8

# Transient errnos worth retrying: out-of-space and interrupted /
# temporarily-unavailable syscalls.  Everything else (EACCES, EROFS,
# ENOENT on the parent directory) is permanent and surfaces at once.
_TRANSIENT_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EDQUOT, errno.EAGAIN, errno.EINTR}
)
_MAX_RETRIES = 3
_BACKOFF_SECONDS = 0.01


# ---------------------------------------------------------------------------
# checksummed framing (binary blobs)


def frame_bytes(payload: bytes) -> bytes:
    """Wrap ``payload`` in the checksummed storage frame."""
    digest = blake2b(payload, digest_size=_FRAME_DIGEST_SIZE).digest()
    return FRAME_MAGIC + digest + payload


def unframe_bytes(blob: bytes) -> bytes:
    """Verify and strip a storage frame; pass legacy unframed bytes through.

    Raises :class:`ChecksumError` when the frame's digest does not
    match its payload (torn write or bit-flip).  Bytes that do not
    start with the frame magic predate framing and are returned
    unchanged — their integrity is the consumer's legacy contract.
    """
    if not blob.startswith(FRAME_MAGIC):
        return blob
    header_len = len(FRAME_MAGIC) + _FRAME_DIGEST_SIZE
    if len(blob) < header_len:
        raise ChecksumError(
            f"framed blob truncated inside the header "
            f"({len(blob)} < {header_len} bytes)"
        )
    expected = blob[len(FRAME_MAGIC):header_len]
    payload = blob[header_len:]
    actual = blake2b(payload, digest_size=_FRAME_DIGEST_SIZE).digest()
    if actual != expected:
        raise ChecksumError(
            "framed blob failed checksum verification "
            f"(expected {expected.hex()}, got {actual.hex()})"
        )
    return payload


# ---------------------------------------------------------------------------
# sealed JSONL records


def canonical_json(record: Dict[str, Any]) -> str:
    """The canonical serialization checksums are computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _record_digest(record: Dict[str, Any]) -> str:
    data = canonical_json(record).encode("utf-8")
    return blake2b(data, digest_size=_RECORD_DIGEST_SIZE).hexdigest()


def seal_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Return a copy of ``record`` with its ``"cs"`` checksum embedded."""
    body = {k: v for k, v in record.items() if k != "cs"}
    sealed = dict(body)
    sealed["cs"] = _record_digest(body)
    return sealed


def check_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Verify a sealed record; accept legacy records without ``"cs"``.

    Returns the record body (checksum field stripped).  Raises
    :class:`ChecksumError` on a digest mismatch.
    """
    if "cs" not in record:
        return record
    body = {k: v for k, v in record.items() if k != "cs"}
    expected = record["cs"]
    actual = _record_digest(body)
    if actual != expected:
        raise ChecksumError(
            "sealed record failed checksum verification "
            f"(expected {expected!r}, got {actual!r})"
        )
    return body


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

    ``FileNotFoundError`` and other ``OSError``\\ s propagate unchanged
    so callers keep their existing miss/degrade handling.
    """
    with open(path, "rb") as handle:
        return handle.read()


def read_text(path: str, encoding: str = "utf-8") -> str:
    return read_bytes(path).decode(encoding, errors="replace")


class DurableAppender:
    """Append-only line writer with per-line durability.

    Every :meth:`append` writes one line, flushes, and fsyncs, so an
    accepted record survives SIGKILL at any later point.  A kill in
    the middle of a write can still leave a torn last line; readers
    (:func:`iter_sealed_lines`) detect it by the record checksum and
    skip it.  A transient failure is retried, then raised as
    :class:`StorageError`.
    """

    def __init__(self, path: str, mode: str = "a") -> None:
        if mode not in ("a", "w"):
            raise ValueError(f"DurableAppender mode must be 'a' or 'w', got {mode!r}")
        self.path = path
        self._handle: Optional[IO[str]] = open(path, mode, encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._handle is None

    def append(self, line: str) -> None:
        """Durably append one line (newline added if missing)."""
        if self._handle is None:
            raise StorageError(f"appender for {self.path!r} is closed")
        if not line.endswith("\n"):
            line += "\n"

        def _attempt() -> None:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

        _retry_transient("append to", self.path, _attempt)

    def append_record(self, record: Dict[str, Any]) -> None:
        """Seal ``record`` with its checksum and durably append it."""
        self.append(json.dumps(seal_record(record), sort_keys=True))

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def __enter__(self) -> "DurableAppender":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def iter_sealed_lines(
    path: str, stats: Optional[Dict[str, int]] = None
) -> Iterator[Dict[str, Any]]:
    """Yield verified records from a JSONL file, counting bad lines.

    Unparseable, truncated, or checksum-failing lines are skipped; if
    ``stats`` is given its ``"skipped"`` entry is incremented per bad
    line.  Legacy records without a checksum are yielded as-is.
    """
    data = read_text(path)
    for line in io.StringIO(data):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            yield check_record(record)
        except (ValueError, ChecksumError):
            if stats is not None:
                stats["skipped"] = stats.get("skipped", 0) + 1
