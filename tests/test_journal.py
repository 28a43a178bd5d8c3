"""Suite journal: resumable runs with byte-identical merged tables.

The contract (see :mod:`repro.runner.journal`): a suite run killed
mid-flight leaves a write-ahead journal whose replay plus the remaining
cells produces exactly the table the uninterrupted run would have.
Mangled *records* never abort a resume (they are counted and
recomputed; mismatched journals are discarded) — but a mangled
*header* refuses an explicit resume loudly, because a journal that
cannot prove its identity could silently replay the wrong run.
"""

import base64
import dataclasses
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import JournalError
from repro.runner import (
    JOURNAL_SCHEMA_VERSION,
    SUITES,
    SuiteJournal,
    default_journal_path,
    run_fingerprint,
    run_suite,
)

SUITE = "E15"  # a real grid whose first LIMIT cells run in well under 1 s
LIMIT = 4

FIXTURES = os.path.join(os.path.dirname(__file__), "data")


def _fingerprint():
    return run_fingerprint(SUITE, LIMIT, trace=False, telemetry=False)


def _run(journal=None, resume=False, jobs=1):
    return run_suite(
        SUITE, jobs=jobs, use_cache=False, limit=LIMIT,
        journal=journal, resume=resume,
    )


def _truncate_to(path, keep_lines):
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(lines[:keep_lines]) + "\n")
    return lines


def test_journal_records_every_cell(tmp_path):
    journal = str(tmp_path / "e15.jsonl")
    run = _run(journal=journal)
    assert run.journal_path == journal
    assert run.replayed_cells() == 0
    with open(journal) as handle:
        lines = [json.loads(line) for line in handle]
    assert lines[0]["kind"] == "header"
    assert lines[0]["schema"] == JOURNAL_SCHEMA_VERSION
    assert lines[0]["fingerprint"] == _fingerprint()
    assert [r["index"] for r in lines[1:]] == [0, 1, 2, 3]


def test_interrupted_run_resumes_byte_identically(tmp_path):
    baseline = _run().render_table()
    journal = str(tmp_path / "e15.jsonl")
    _run(journal=journal)
    _truncate_to(journal, 3)  # header + 2 cells: "killed" after cell 1

    resumed = _run(journal=journal, resume=True)
    assert resumed.replayed_cells() == 2
    assert resumed.render_table() == baseline
    # The resume appended the recomputed cells, so a second resume
    # replays everything.
    again = _run(journal=journal, resume=True)
    assert again.replayed_cells() == LIMIT
    assert again.render_table() == baseline


def test_parallel_resume_matches_serial(tmp_path):
    baseline = _run().render_table()
    journal = str(tmp_path / "e15.jsonl")
    _run(journal=journal)
    _truncate_to(journal, 2)

    resumed = _run(journal=journal, resume=True, jobs=2)
    assert resumed.replayed_cells() == 1
    assert resumed.render_table() == baseline


def test_corrupt_records_are_recomputed_not_fatal(tmp_path):
    baseline = _run().render_table()
    journal = str(tmp_path / "e15.jsonl")
    _run(journal=journal)
    lines = _truncate_to(journal, 5)
    # Mangle cell 1 three different ways across three resumes: torn
    # JSON, bad base64, and a payload that unpickles to garbage.
    torn = lines[2][: len(lines[2]) // 2]
    bad_b64 = json.dumps(
        {"kind": "cell", "index": 1, "payload": "!!not-base64!!"}
    )
    not_a_result = json.dumps({
        "kind": "cell", "index": 1,
        "payload": base64.b64encode(pickle.dumps("just a string"))
        .decode("ascii"),
    })
    for bad_line in (torn, bad_b64, not_a_result):
        with open(journal, "w") as handle:
            handle.write("\n".join([lines[0], lines[1], bad_line]) + "\n")
        resumed = _run(journal=journal, resume=True)
        assert resumed.journal_corrupt_lines == 1
        assert resumed.replayed_cells() == 1  # cell 0 survived
        assert resumed.render_table() == baseline


def test_mismatched_header_discards_journal(tmp_path):
    journal = str(tmp_path / "e15.jsonl")
    _run(journal=journal)
    # A different limit is a different run shape: nothing is replayed.
    resumed = run_suite(SUITE, use_cache=False, limit=2,
                        journal=journal, resume=True)
    assert resumed.replayed_cells() == 0
    # And the journal was rewritten for the new shape.
    with open(journal) as handle:
        header = json.loads(handle.readline())
    assert header["fingerprint"]["limit"] == 2


def test_missing_journal_starts_fresh(tmp_path):
    journal = str(tmp_path / "e15.jsonl")
    resumed = _run(journal=journal, resume=True)  # nothing to resume
    assert resumed.replayed_cells() == 0


def test_corrupt_header_refuses_resume_loudly(tmp_path):
    """An unreadable header means the journal cannot prove its identity.

    Resuming from it could silently merge the wrong run, so the
    explicit ``resume=True`` path raises :class:`JournalError` instead
    of guessing (exit code 2 at the CLI, pinned in test_cli.py) —
    unlike a *parseable* header with a mismatched fingerprint, which
    starts fresh because the caller asked for a different experiment.
    """
    journal = str(tmp_path / "e15.jsonl")
    with open(journal, "w") as handle:
        handle.write("complete garbage\n")
    with pytest.raises(JournalError):
        _run(journal=journal, resume=True)

    # A header whose checksum no longer verifies is just as untrusted.
    _run(journal=journal, resume=False)
    with open(journal) as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    assert "cs" in header
    header["fingerprint"]["suite"] = "TAMPERED"  # cs now stale
    lines[0] = json.dumps(header, sort_keys=True)
    with open(journal, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError):
        _run(journal=journal, resume=True)

    # Without --resume the same file is simply truncated and rewritten.
    fresh = _run(journal=journal, resume=False)
    assert fresh.replayed_cells() == 0


def test_prepr10_unsealed_journal_still_replays(tmp_path):
    """A journal written before records carried ``"cs"`` checksums must
    keep resuming.  The fixture is a real journaled E10 run with every
    checksum stripped — the exact on-disk layout that predates the
    storage layer — so this pins the legacy-read path end to end:
    header accepted, cells unpickled, nothing counted as corrupt."""
    fixture = os.path.join(FIXTURES, "journal_prepr10.jsonl")
    journal = str(tmp_path / "legacy.jsonl")
    shutil.copy(fixture, journal)
    # The embedded salt belongs to the code that wrote the fixture, so
    # resume against the fixture's own fingerprint (a live resume of a
    # stale-salt journal would correctly start fresh instead).
    with open(fixture) as handle:
        header = json.loads(handle.readline())
    assert "cs" not in header  # genuinely pre-sealing
    with SuiteJournal.open(journal, header["fingerprint"]) as wal:
        assert not wal.fresh
        assert wal.corrupt_lines == 0
        assert sorted(wal.completed) == [0, 1]
        for result in wal.completed.values():
            assert result.replayed
            assert result.rows  # the payload unpickled into real rows


def test_resume_false_discards_prior_journal(tmp_path):
    journal = str(tmp_path / "e15.jsonl")
    _run(journal=journal)
    fresh = _run(journal=journal, resume=False)
    assert fresh.replayed_cells() == 0
    with open(journal) as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 1 + LIMIT  # rewritten, not appended to


def test_default_journal_path_under_cache_root(tmp_path):
    path = default_journal_path("E10", str(tmp_path))
    assert path == str(tmp_path / "journals" / "E10.jsonl")
    run = run_suite(SUITE, use_cache=False, limit=2,
                    cache_root=str(tmp_path), resume=True)
    assert run.journal_path == str(tmp_path / "journals" / "E15.jsonl")
    assert os.path.exists(run.journal_path)


def test_journal_replay_filters_out_of_grid_cells(tmp_path):
    """Cells journaled beyond the current --limit stay out of the
    table (and out of the replay count)."""
    journal = str(tmp_path / "e15.jsonl")
    fingerprint = _fingerprint()
    with SuiteJournal.open(journal, fingerprint) as wal:
        full = _run()
        for result in full.results:
            wal.record(result)
    # Same fingerprint, so the journal is reusable; but only cells in
    # the grid participate.
    resumed = _run(journal=journal, resume=True)
    assert resumed.replayed_cells() == LIMIT
    assert resumed.render_table() == full.render_table()


def test_sigkill_mid_suite_then_resume(tmp_path):
    """The real thing: SIGKILL a journaled run, resume, diff tables.

    The child kills itself (via a cell hook) after the journal has two
    cells; the parent then resumes from the journal on disk and must
    reproduce the uninterrupted table exactly.
    """
    journal = str(tmp_path / "e15.jsonl")
    script = textwrap.dedent(f"""
        import os, signal
        from repro.runner import journal as journal_mod, run_suite

        real_record = journal_mod.SuiteJournal.record
        def record_then_die(self, result):
            real_record(self, result)
            if result.index == 1:
                os.kill(os.getpid(), signal.SIGKILL)
        journal_mod.SuiteJournal.record = record_then_die
        run_suite({SUITE!r}, use_cache=False, limit={LIMIT},
                  journal={journal!r})
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
    )
    assert proc.returncode == -9  # died to SIGKILL mid-suite

    baseline = _run().render_table()
    resumed = _run(journal=journal, resume=True)
    assert resumed.replayed_cells() == 2
    assert resumed.render_table() == baseline


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigkill_mid_e15_resumes_byte_identically(tmp_path):
    """SIGKILL a journaled E15 (temporal adversity) run the moment the
    first cell is durable, then resume: every journaled cell replays
    byte-identically into the same table an uninterrupted run makes."""
    baseline = run_suite("E15", jobs=1, use_cache=False, limit=4)
    baseline_rows = {r.index: r.rows for r in baseline.results}

    journal = tmp_path / "e15-wal.jsonl"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "bench",
            "--suite", "E15", "--limit", "4", "--jobs", "1",
            "--no-cache", "--journal", str(journal),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        # Wait for the header plus at least one durable cell record,
        # then kill without any chance to flush or clean up.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                with open(journal) as handle:
                    if sum(1 for _ in handle) >= 2:
                        break
            except FileNotFoundError:
                pass
            if proc.poll() is not None:
                break  # finished before we could kill: still resumable
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait()
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    resumed = run_suite(
        "E15", jobs=1, use_cache=False, limit=4,
        journal=str(journal), resume=True,
    )
    assert resumed.replayed_cells() >= 1
    assert {r.index: r.rows for r in resumed.results} == baseline_rows
    assert resumed.render_table() == baseline.render_table()
    # SIGKILL routinely tears the in-flight journal line; the resumed
    # footer may (loudly) append its corrupt-line count to the
    # otherwise identical baseline footer.
    assert resumed.footer().startswith(baseline.footer())


@pytest.mark.parametrize("jobs", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers must inherit the patched suite",
    )),
])
def test_failing_cell_fails_the_run(tmp_path, monkeypatch, jobs):
    """A cell that raises ends the run with its exception, inline and
    pooled; the cells that landed first stay journaled, and a resume
    once the cell is mended renders the uninterrupted table."""
    baseline = _run().render_table()
    real = SUITES[SUITE].cell_fn

    def broken(cell):
        if cell.index == 2:
            raise RuntimeError("cell 2 is broken")
        return real(cell)

    monkeypatch.setitem(
        SUITES, SUITE, dataclasses.replace(SUITES[SUITE], cell_fn=broken)
    )
    journal = str(tmp_path / "e15.jsonl")
    with pytest.raises(RuntimeError, match="cell 2 is broken"):
        _run(journal=journal, jobs=jobs)
    with open(journal) as handle:
        landed = [json.loads(line)["index"] for line in list(handle)[1:]]
    # Cell 2 is submitted only after an earlier cell lands.
    assert landed and 2 not in landed

    monkeypatch.undo()
    resumed = _run(journal=journal, resume=True, jobs=jobs)
    assert resumed.replayed_cells() == len(landed)
    assert resumed.render_table() == baseline
