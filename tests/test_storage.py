"""Contract of the crash-consistent storage layer (:mod:`repro.storage`).

Three clauses, each pinned here by damaging real bytes on a real disk:
atomic replace (readers see old bytes or new bytes, never a tear),
checksummed framing (corruption and tears are *detected*, with legacy
unframed artifacts still accepted), and bounded retry of transient
errors, including a verified write that reads back torn bytes.
"""

import errno
import os

import pytest

from repro import storage
from repro.errors import ChecksumError, StorageError
from repro.storage import (
    atomic_write_bytes,
    canonical_json,
    frame_bytes,
    read_bytes,
    unframe_bytes,
)


# ----------------------------------------------------------------------
# Framing and canonical JSON
# ----------------------------------------------------------------------

def test_frame_roundtrip_and_legacy_passthrough():
    payload = b"\x80\x04arbitrary pickle-ish bytes"
    assert unframe_bytes(frame_bytes(payload)) == payload
    # Bytes that predate framing (no magic) pass through untouched.
    assert unframe_bytes(payload) == payload
    assert unframe_bytes(b"") == b""
    assert unframe_bytes(b'{"json": 1}') == b'{"json": 1}'


def test_corrupt_frame_is_detected():
    blob = bytearray(frame_bytes(b"the payload"))
    blob[-1] ^= 0x01  # flip a payload bit
    with pytest.raises(ChecksumError, match="checksum"):
        unframe_bytes(bytes(blob))
    # Truncation inside the fixed-size header is equally loud.
    with pytest.raises(ChecksumError, match="truncated"):
        unframe_bytes(frame_bytes(b"x")[:10])


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# Atomic writes, verified writes and bounded retry
# ----------------------------------------------------------------------

def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "artifact.bin")
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert read_bytes(path) == b"second"
    assert os.listdir(tmp_path) == ["artifact.bin"]


def _tearing_replace(monkeypatch, tears, keep=3):
    """Make the next ``tears`` renames land a file cut to ``keep`` bytes,
    as a disk that acknowledges a write it did not keep would; count
    every call."""
    real_replace = os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) <= tears:
            with open(src, "r+b") as handle:
                handle.truncate(keep)
        real_replace(src, dst)

    monkeypatch.setattr(storage.os, "replace", replace)
    return calls


def test_torn_write_is_caught_by_the_frame(tmp_path, monkeypatch):
    path = str(tmp_path / "entry.bin")
    framed = frame_bytes(b"payload bytes that tear")
    # The tear lands past the 20-byte frame header: a shorter prefix no
    # longer starts with the magic and is handled as a legacy blob by
    # the consumer's deserializer instead.
    _tearing_replace(monkeypatch, tears=1, keep=len(framed) - 5)
    atomic_write_bytes(path, framed)
    torn = read_bytes(path)
    assert 20 < len(torn) < len(framed)  # a strict prefix reached the disk
    with pytest.raises(ChecksumError, match="checksum"):
        unframe_bytes(torn)


def test_bit_flip_on_read_is_caught_by_the_frame(tmp_path):
    path = str(tmp_path / "entry.bin")
    atomic_write_bytes(path, frame_bytes(b"precious payload"))
    with open(path, "r+b") as handle:  # one bit rots on the platter
        handle.seek(-3, os.SEEK_END)
        byte = handle.read(1)[0]
        handle.seek(-3, os.SEEK_END)
        handle.write(bytes([byte ^ 0x10]))
    flipped = read_bytes(path)
    with pytest.raises(ChecksumError, match="checksum"):
        unframe_bytes(flipped)


def test_verified_write_rewrites_a_torn_artifact(tmp_path, monkeypatch):
    """Final artifacts (tables, stats JSON) have no checksummed reader,
    so a lying disk would corrupt them silently; ``verify=True`` reads
    the rename target back and rewrites on mismatch."""
    path = str(tmp_path / "table.txt")
    calls = _tearing_replace(monkeypatch, tears=1)
    atomic_write_bytes(path, b"the full rendered result table\n",
                       verify=True)
    assert read_bytes(path) == b"the full rendered result table\n"
    assert len(calls) == 2
    assert os.listdir(tmp_path) == ["table.txt"]


def test_verified_write_rewrites_a_dropped_write(tmp_path, monkeypatch):
    """A rename the disk acknowledges but never keeps leaves the old
    bytes in place; the read-back sees them and writes again."""
    path = str(tmp_path / "table.txt")
    atomic_write_bytes(path, b"stale stats")
    real_replace = os.replace
    calls = []

    def dropping_replace(src, dst):
        calls.append(dst)
        if len(calls) == 1:
            os.unlink(src)  # acknowledged, never landed
            return
        real_replace(src, dst)

    monkeypatch.setattr(storage.os, "replace", dropping_replace)
    atomic_write_bytes(path, b"stats payload", verify=True)
    assert read_bytes(path) == b"stats payload"
    assert len(calls) == 2
    assert os.listdir(tmp_path) == ["table.txt"]


def test_verified_write_goes_loud_when_the_disk_keeps_lying(
    tmp_path, monkeypatch
):
    path = str(tmp_path / "table.txt")
    calls = _tearing_replace(monkeypatch, tears=float("inf"))
    with pytest.raises(StorageError, match="verification"):
        atomic_write_bytes(path, b"0123456789", verify=True)
    assert len(calls) == storage._MAX_RETRIES + 1


def test_persistent_enospc_surfaces_as_storage_error(tmp_path, monkeypatch):
    path = str(tmp_path / "entry.bin")
    attempts = []

    def full(fd):
        attempts.append(fd)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(storage.os, "fsync", full)
    with pytest.raises(StorageError, match="No space"):
        atomic_write_bytes(path, b"data")
    assert len(attempts) == storage._MAX_RETRIES + 1
    # Neither the destination nor a temp file is left behind.
    assert os.listdir(tmp_path) == []


def test_transient_error_is_retried_then_succeeds():
    attempts = []
    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError(errno.ENOSPC, "full")
        return "ok"
    assert storage._retry_transient("write", "x", flaky) == "ok"
    assert len(attempts) == 3


def test_permanent_oserror_is_not_retried():
    attempts = []
    def denied():
        attempts.append(1)
        raise OSError(errno.EACCES, "denied")
    with pytest.raises(StorageError, match="denied"):
        storage._retry_transient("write", "x", denied)
    assert len(attempts) == 1


def test_read_missing_file_raises_plain_file_not_found(tmp_path):
    # Consumers keep their miss handling: no StorageError wrapping.
    with pytest.raises(FileNotFoundError):
        read_bytes(str(tmp_path / "absent.bin"))
