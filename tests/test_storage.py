"""Contract of the crash-consistent storage layer (:mod:`repro.storage`).

Two clauses, each pinned here by damaging real bytes on a real disk:
atomic replace (readers see old bytes or new bytes, never a tear) and
bounded retry of transient errors, including a verified write that
reads back torn bytes.  The checkpoint envelope's checksum, computed
over :func:`canonical_json`, is pinned in ``tests/test_checkpoint.py``.
"""

import errno
import os

import pytest

from repro import storage
from repro.errors import StorageError
from repro.storage import atomic_write_bytes, canonical_json, read_bytes


# ----------------------------------------------------------------------
# Canonical JSON
# ----------------------------------------------------------------------

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
