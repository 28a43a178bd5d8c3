"""Live runner heartbeat: flushed JSONL progress events.

A multi-minute ``repro bench`` sweep is a black box from the outside:
the table prints only at the end, and the only mid-run signal is CPU
load.  ``--progress out.jsonl`` turns the run into an observable
stream — the executor appends one JSON object per lifecycle event
(cell started / finished, suite boundaries) and flushes after every
line, so a second terminal can follow along live with ``repro trace
tail out.jsonl --follow``.

The stream is *heartbeat*, not ledger: it exists to answer "is the run
alive, and what is it chewing on?"  Lines are nonetheless durable —
each event is sealed with a blake2b checksum and fsynced through
:class:`repro.storage.DurableAppender`, so the heartbeat survives
SIGKILL with at most the event in flight lost — and the reader skips
(and counts) unparseable or checksum-failing lines, because the final
line of a live file is routinely half-written.  If the disk gives out
mid-run the heartbeat degrades loudly (one warning) rather than
killing the sweep: durability of *results* is the journal's job
(:mod:`repro.runner.journal`).

Event vocabulary (each object carries ``t`` — epoch seconds — and
``event``; everything else is event-specific):

* ``bench_started`` / ``bench_finished`` — one ``repro bench``
  invocation, bracketing all its suites (``suites``, ``jobs``).
* ``suite_started`` — ``suite``, ``cells``, ``pending``, ``replayed``
  (journal resume satisfied that many), ``jobs``.
* ``cell_started`` — ``suite``, ``index``, ``label``: a worker (or
  the inline loop) took the cell.
* ``cell_finished`` — adds ``elapsed`` seconds and ``stalled`` (the
  graded verdict said the algorithm stalled — the run itself is fine).
* ``suite_finished`` — ``suite``, ``cells``, ``stalled``,
  ``wall_seconds``.  A cell that raises ends the run before this
  event, so a stream without it is a run that failed or was killed.

Schema changes bump :data:`PROGRESS_SCHEMA_VERSION`, stamped on the
``bench_started``/``suite_started`` events.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import Any, Dict, Iterator, Optional, Union

from .. import storage
from ..errors import StorageError

PROGRESS_SCHEMA_VERSION = 1

#: How long ``follow_progress`` sleeps between polls of a quiet file.
_FOLLOW_POLL_SECONDS = 0.2


class ProgressLog:
    """Append-only flushed JSONL sink for runner lifecycle events.

    One instance spans one ``repro bench`` invocation (possibly several
    suites), so a single file tells the whole story in order.  Safe to
    construct on a fresh or existing path; events append.  The writer
    is the coordinating process only — worker processes never touch the
    file, so no cross-process locking is needed.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._appender: Optional[storage.DurableAppender] = (
            storage.DurableAppender(self.path, "a")
        )

    def emit(self, event: str, **fields: Any) -> None:
        """Durably append one sealed event line (flush + fsync)."""
        if self._appender is None:
            return
        record: Dict[str, Any] = {"t": round(time.time(), 3), "event": event}
        record.update(fields)
        try:
            self._appender.append_record(record)
        except StorageError as exc:
            # The heartbeat must never kill the run it is narrating:
            # warn once and go dark.
            warnings.warn(
                f"progress log {self.path!r} failed, disabling: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            self.close()

    def close(self) -> None:
        if self._appender is not None:
            self._appender.close()
            self._appender = None

    def __enter__(self) -> "ProgressLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def iter_progress(
    path: str, stats: Optional[Dict[str, int]] = None
) -> Iterator[Dict[str, Any]]:
    """Parse an existing progress file, skipping (and counting) bad lines.

    A live file's last line may be mid-write; a reader that crashed on
    it would be useless as a tail, so unparseable or checksum-failing
    lines are dropped — and tallied in ``stats["skipped"]`` when the
    caller passes a dict, so ``repro trace tail`` can report how many
    records it could not trust.
    """
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("progress record is not an object")
                record = storage.check_record(record)
            except (ValueError, StorageError):
                if stats is not None:
                    stats["skipped"] = stats.get("skipped", 0) + 1
                continue
            yield record


def follow_progress(
    path: str,
    poll_seconds: float = _FOLLOW_POLL_SECONDS,
    idle_timeout: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events as they are appended (``tail -f`` semantics).

    Returns after a ``bench_finished`` event, or once ``idle_timeout``
    seconds pass with no new complete line (None = follow until the
    caller stops iterating, e.g. on Ctrl-C).  Partial trailing lines
    are buffered until their newline arrives.
    """
    last_data = time.monotonic()
    buffer = ""
    with open(path) as handle:
        while True:
            chunk = handle.read()
            if chunk:
                last_data = time.monotonic()
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        if not isinstance(record, dict):
                            raise ValueError("not an object")
                        record = storage.check_record(record)
                    except (ValueError, StorageError):
                        continue
                    yield record
                    if record.get("event") == "bench_finished":
                        return
            else:
                if (
                    idle_timeout is not None
                    and time.monotonic() - last_data >= idle_timeout
                ):
                    return
                time.sleep(poll_seconds)


def render_progress_event(
    record: Dict[str, Any], t0: Optional[float] = None
) -> str:
    """One human-readable line per event for ``repro trace tail``.

    ``t0`` (epoch seconds, typically the first event's ``t``) turns
    absolute timestamps into a run-relative clock.
    """
    t = record.get("t")
    if isinstance(t, (int, float)) and t0 is not None:
        clock = f"[{t - t0:8.2f}s]"
    else:
        clock = "[        ]"
    event = record.get("event", "?")
    suite = record.get("suite", "")
    label = record.get("label", "")
    index = record.get("index")
    where = f"{suite}[{index}] {label}".strip() if index is not None else suite
    if event == "bench_started":
        suites = record.get("suites", [])
        return f"{clock} bench started: {', '.join(suites)}"
    if event == "bench_finished":
        return f"{clock} bench finished"
    if event == "suite_started":
        return (
            f"{clock} {suite}: {record.get('pending', '?')} cell(s) to run"
            f" ({record.get('replayed', 0)} replayed,"
            f" jobs={record.get('jobs', 1)})"
        )
    if event == "suite_finished":
        return (
            f"{clock} {suite}: done —"
            f" {record.get('cells', '?')} cell(s),"
            f" {record.get('stalled', 0)} stalled"
            f" in {record.get('wall_seconds', 0.0):.2f}s"
        )
    if event == "cell_started":
        return f"{clock} {where}: started"
    if event == "cell_finished":
        flag = " [stalled verdict]" if record.get("stalled") else ""
        return (
            f"{clock} {where}: finished in"
            f" {record.get('elapsed', 0.0):.3f}s{flag}"
        )
    extras = {
        k: v for k, v in record.items() if k not in ("t", "event", "cs")
    }
    return f"{clock} {event} {json.dumps(extras, sort_keys=True)}"
