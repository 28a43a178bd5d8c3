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
* **Deterministic fault injection.**  :class:`DiskFaultPlan` mirrors
  the message-level :class:`repro.congest.faults.FaultPlan`: every
  injection decision is a pure keyed-blake2b function of the plan seed
  and the operation's coordinates (kind, file basename, per-file
  operation index), so a chaos trial replays bit-identically from its
  seed.  Plans inject torn writes, dropped fsyncs (modeled as the
  record never reaching the disk), bit-flips on read, transient
  ENOSPC, slow I/O, and a global kill-point that terminates the
  process mid-operation — the harness behind ``repro chaos``
  (:mod:`repro.chaos`, docs/durability.md).

Transient ``OSError``\\ s (injected or real ENOSPC/EAGAIN/EINTR) are
retried with bounded exponential backoff before surfacing as
:class:`repro.errors.StorageError`.
"""

from __future__ import annotations

import atexit
import errno
import io
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields
from hashlib import blake2b
from typing import Any, Dict, IO, Iterator, Optional, Tuple

from .errors import ChecksumError, FaultError, StorageError

__all__ = [
    "FRAME_MAGIC",
    "KILL_EXIT_CODE",
    "DiskFaultPlan",
    "DiskFaultInjector",
    "StorageStats",
    "storage_stats",
    "reset_storage_stats",
    "active_injector",
    "use_disk_faults",
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

# Exit code used by an injected kill-point; distinct from exit 2
# (clean CLI error) and from real signal deaths so the chaos harness
# can tell "the plan killed it" from "it crashed on its own".
KILL_EXIT_CODE = 121

# Transient errnos worth retrying: out-of-space and interrupted /
# temporarily-unavailable syscalls.  Everything else (EACCES, EROFS,
# ENOENT on the parent directory) is permanent and surfaces at once.
_TRANSIENT_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EDQUOT, errno.EAGAIN, errno.EINTR}
)
_MAX_RETRIES = 3
_BACKOFF_SECONDS = 0.01

# Environment mirrors, following REPRO_NO_KERNELS / REPRO_CHAOS_DIR:
# a compiled plan serialized as JSON, and an optional path where the
# injector dumps its stats on kill/exit so the parent harness can
# count injections performed inside subprocesses.
ENV_PLAN = "REPRO_DISK_FAULTS"
ENV_STATS = "REPRO_DISK_FAULTS_STATS"


# ---------------------------------------------------------------------------
# stats


@dataclass
class StorageStats:
    """Counters for storage operations and injected faults.

    One module-global instance accumulates across all surfaces; the
    chaos harness snapshots it (or reads the :data:`ENV_STATS` dump of
    a killed subprocess) to prove every injected fault was observed.
    """

    writes: int = 0
    appends: int = 0
    reads: int = 0
    retries: int = 0
    torn_writes: int = 0
    dropped_fsyncs: int = 0
    bit_flips: int = 0
    enospc: int = 0
    slow_ops: int = 0
    kills: int = 0

    def injected(self) -> int:
        """Total faults injected (excluding operation counters)."""
        return (
            self.torn_writes
            + self.dropped_fsyncs
            + self.bit_flips
            + self.enospc
            + self.slow_ops
            + self.kills
        )

    def to_dict(self) -> Dict[str, int]:
        data = asdict(self)
        data["injected"] = self.injected()
        return data


_STATS = StorageStats()


def storage_stats() -> StorageStats:
    """The process-wide storage/fault counters."""
    return _STATS


def reset_storage_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    for spec in fields(StorageStats):
        setattr(_STATS, spec.name, 0)


def _dump_stats(path: str) -> None:
    # Deliberately bypasses the fault-injected write path: the stats
    # dump is the harness's evidence channel and must not itself be
    # subject to the plan (or recurse into the kill-point).
    try:
        payload = json.dumps(_STATS.to_dict(), sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        pass


# ---------------------------------------------------------------------------
# fault plan


@dataclass(frozen=True)
class DiskFaultPlan:
    """Deterministic schedule of host-storage faults.

    Mirrors :class:`repro.congest.faults.FaultPlan`: rates are
    probabilities in ``[0, 1]`` and every decision is a pure keyed
    hash of ``(seed, operation kind, file basename, per-file operation
    index)`` — no RNG state, so two processes compiling the same plan
    inject the same faults at the same operations.

    ``kill_at`` terminates the process (``os._exit`` with
    :data:`KILL_EXIT_CODE`) when the global storage-operation counter
    reaches that value, emulating SIGKILL at a reproducible point in
    the I/O stream.
    """

    seed: int = 0
    torn_write: float = 0.0
    drop_fsync: float = 0.0
    bit_flip: float = 0.0
    enospc: float = 0.0
    slow: float = 0.0
    slow_seconds: float = 0.005
    kill_at: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("torn_write", "drop_fsync", "bit_flip", "enospc", "slow"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultError(
                    f"disk fault rate {name}={rate!r} outside [0, 1]"
                )
        if self.slow_seconds < 0:
            raise FaultError("slow_seconds must be non-negative")
        if self.kill_at is not None and self.kill_at < 1:
            raise FaultError("kill_at must be a positive operation index")

    def is_noop(self) -> bool:
        return (
            self.torn_write == 0.0
            and self.drop_fsync == 0.0
            and self.bit_flip == 0.0
            and self.enospc == 0.0
            and self.slow == 0.0
            and self.kill_at is None
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DiskFaultPlan":
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultError(
                f"unknown disk fault plan field(s): {sorted(unknown)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "DiskFaultPlan":
        try:
            data = json.loads(text)
        except (ValueError, TypeError) as exc:
            raise FaultError(f"unparseable disk fault plan: {exc}") from exc
        if not isinstance(data, dict):
            raise FaultError("disk fault plan must be a JSON object")
        return cls.from_dict(data)

    def compile(self, stats_path: Optional[str] = None) -> "DiskFaultInjector":
        return DiskFaultInjector(self, stats_path=stats_path)


class DiskFaultInjector:
    """Compiled :class:`DiskFaultPlan`, consulted once per storage op.

    Stateless in the same sense as the message-fault injector: the
    per-coordinate decisions come from the keyed hash, and the only
    mutable state is the operation counters that *define* the
    coordinates (and advance identically in any replay).
    """

    def __init__(
        self, plan: DiskFaultPlan, stats_path: Optional[str] = None
    ) -> None:
        self.plan = plan
        self._key = blake2b(
            str(plan.seed).encode("utf-8"), digest_size=16
        ).digest()
        self._seq: Dict[Tuple[str, str], int] = {}
        self._ops = 0
        self._stats_path = stats_path

    # -- coordinates ---------------------------------------------------
    def _hash64(self, kind: str, name: str, seq: int) -> int:
        token = f"{kind}|{name}|{seq}"
        digest = blake2b(
            token.encode("utf-8"), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "big")

    def _decide(self, kind: str, name: str, rate: float) -> Tuple[bool, int]:
        """(fire?, hash64) for the next operation of this kind on this file."""
        seq = self._seq.get((kind, name), 0)
        self._seq[(kind, name)] = seq + 1
        if rate <= 0.0:
            return False, 0
        h = self._hash64(kind, name, seq)
        return (h / 2.0 ** 64) < rate, h

    def tick(self) -> None:
        """Advance the global op counter; fire the kill-point if reached."""
        self._ops += 1
        if self.plan.kill_at is not None and self._ops >= self.plan.kill_at:
            _STATS.kills += 1
            if self._stats_path:
                _dump_stats(self._stats_path)
            os._exit(KILL_EXIT_CODE)

    # -- per-operation fault hooks -------------------------------------
    def maybe_slow(self, name: str) -> None:
        fire, _ = self._decide("slow", name, self.plan.slow)
        if fire:
            _STATS.slow_ops += 1
            time.sleep(self.plan.slow_seconds)

    def maybe_enospc(self, name: str) -> None:
        fire, _ = self._decide("enospc", name, self.plan.enospc)
        if fire:
            _STATS.enospc += 1
            raise OSError(errno.ENOSPC, "injected: no space left on device")

    def torn_length(self, name: str, size: int) -> Optional[int]:
        """Length of the prefix to write if this write tears, else None."""
        fire, h = self._decide("torn", name, self.plan.torn_write)
        if not fire or size <= 1:
            return None
        _STATS.torn_writes += 1
        return h % size  # 0 .. size-1 bytes actually reach the disk

    def drops_fsync(self, name: str) -> bool:
        fire, _ = self._decide("fsync", name, self.plan.drop_fsync)
        if fire:
            _STATS.dropped_fsyncs += 1
        return fire

    def flip_bit(self, name: str, data: bytes) -> bytes:
        fire, h = self._decide("bitflip", name, self.plan.bit_flip)
        if not fire or not data:
            return data
        _STATS.bit_flips += 1
        bit = h % (len(data) * 8)
        mutated = bytearray(data)
        mutated[bit // 8] ^= 1 << (bit % 8)
        return bytes(mutated)


# ---------------------------------------------------------------------------
# active injector (explicit context or environment mirror)

_ACTIVE: Optional[DiskFaultInjector] = None
_ENV_INJECTOR: Optional[DiskFaultInjector] = None
_ENV_SNAPSHOT: Optional[str] = None


class use_disk_faults:
    """Context manager installing a process-wide disk-fault injector.

    ``with use_disk_faults(plan):`` makes every storage primitive in
    this module consult the compiled plan.  Nesting replaces the outer
    injector for the inner block.  Subprocesses inherit faults through
    the :data:`ENV_PLAN` environment variable instead.
    """

    def __init__(self, plan: Optional[DiskFaultPlan]) -> None:
        self._injector = (
            None if plan is None or plan.is_noop() else plan.compile()
        )
        self._previous: Optional[DiskFaultInjector] = None

    def __enter__(self) -> Optional[DiskFaultInjector]:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._injector
        return self._injector

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


def active_injector() -> Optional[DiskFaultInjector]:
    """The injector in effect, if any: explicit context beats environment."""
    global _ENV_INJECTOR, _ENV_SNAPSHOT
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(ENV_PLAN)
    if not raw:
        _ENV_INJECTOR = None
        _ENV_SNAPSHOT = None
        return None
    if raw != _ENV_SNAPSHOT:
        plan = DiskFaultPlan.from_json(raw)
        stats_path = os.environ.get(ENV_STATS) or None
        _ENV_INJECTOR = (
            None if plan.is_noop() else plan.compile(stats_path=stats_path)
        )
        _ENV_SNAPSHOT = raw
        if _ENV_INJECTOR is not None and stats_path:
            # The kill-point dumps explicitly (atexit never runs under
            # os._exit); this covers clean exits and loud crashes so
            # the chaos harness can always count injected faults.
            atexit.register(_dump_stats, stats_path)
    return _ENV_INJECTOR


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
            _STATS.retries += 1
            time.sleep(_BACKOFF_SECONDS * (2 ** (attempt - 1)))


# ---------------------------------------------------------------------------
# primitives


def atomic_write_bytes(path: str, data: bytes, verify: bool = False) -> None:
    """Atomically replace ``path`` with ``data`` (write-temp, fsync, rename).

    Under an active fault plan the write may tear (a prefix reaches
    the destination), the fsync may be dropped (the replace never
    happens: readers keep seeing the previous content), or the
    operation may fail with transient ENOSPC — retried up to the
    bounded budget, then surfaced as :class:`StorageError`.

    ``verify`` reads the destination back after the rename and treats
    any byte difference as a transient failure (rewritten, then loud).
    Checksummed surfaces don't need it — their *readers* detect damage
    — but final artifacts with no checksum and no later reader (result
    tables, stats JSON, trace snapshots) would otherwise be the one
    place a lying disk could corrupt silently.
    """
    injector = active_injector()
    name = os.path.basename(path)

    def _attempt() -> None:
        payload = data
        drop_replace = False
        if injector is not None:
            injector.tick()
            injector.maybe_slow(name)
            injector.maybe_enospc(name)
            torn = injector.torn_length(name, len(payload))
            if torn is not None:
                payload = payload[:torn]
            drop_replace = injector.drops_fsync(name)
        directory = os.path.dirname(path) or "."
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            if drop_replace:
                # The fsync "completed" from the caller's view but the
                # data never became durable; model that as the rename
                # never landing.
                os.unlink(tmp_path)
            else:
                os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        if verify:
            # Read raw (not through read_bytes): this checks what the
            # rename actually left on disk, without spending another
            # injection decision on our own verification.
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
    _STATS.writes += 1


def atomic_write_text(
    path: str, text: str, encoding: str = "utf-8", verify: bool = False
) -> None:
    atomic_write_bytes(path, text.encode(encoding), verify=verify)


def read_bytes(path: str) -> bytes:
    """Read a file fully; an active plan may flip one bit of the result.

    ``FileNotFoundError`` and other ``OSError``\\ s propagate unchanged
    so callers keep their existing miss/degrade handling.
    """
    injector = active_injector()
    name = os.path.basename(path)
    if injector is not None:
        injector.tick()
        injector.maybe_slow(name)
    with open(path, "rb") as handle:
        data = handle.read()
    if injector is not None:
        data = injector.flip_bit(name, data)
    _STATS.reads += 1
    return data


def read_text(path: str, encoding: str = "utf-8") -> str:
    return read_bytes(path).decode(encoding, errors="replace")


class DurableAppender:
    """Append-only line writer with per-line durability.

    Every :meth:`append` writes one line, flushes, and fsyncs, so an
    accepted record survives SIGKILL at any later point.  Under an
    active fault plan a line may be torn (prefix only — detected on
    replay by the record checksum), silently never written (dropped
    fsync: the caller believes the record is durable but it is not,
    which resume recovers by recomputing), or fail with transient
    ENOSPC (retried, then raised as :class:`StorageError`).
    """

    def __init__(self, path: str, mode: str = "a") -> None:
        if mode not in ("a", "w"):
            raise ValueError(f"DurableAppender mode must be 'a' or 'w', got {mode!r}")
        self.path = path
        self._name = os.path.basename(path)
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
        injector = active_injector()

        def _attempt() -> None:
            payload = line
            if injector is not None:
                injector.tick()
                injector.maybe_slow(self._name)
                injector.maybe_enospc(self._name)
                if injector.drops_fsync(self._name):
                    # Modeled lost write: the page never reached disk.
                    return
                torn = injector.torn_length(self._name, len(payload))
                if torn is not None:
                    self._handle.write(payload[:torn])
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    return
            self._handle.write(payload)
            self._handle.flush()
            os.fsync(self._handle.fileno())

        _retry_transient("append to", self.path, _attempt)
        _STATS.appends += 1

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
