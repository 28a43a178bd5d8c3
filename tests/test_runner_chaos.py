"""Self-healing executor: retries, timeouts, pool rebuilds, quarantine.

The hidden CHAOS suite misbehaves only when ``REPRO_CHAOS_DIR`` is set
(crashing, hanging, or flaking per its behavior schedule), so the same
grid doubles as a healthy control: with the variable unset every cell
is an ordinary fast cell, and the healthy subset of a chaotic run must
match the fault-free serial run row for row.

These tests never enable the cache — a memoized chaos cell would skip
the misbehavior the executor is supposed to absorb.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runner import SUITES, run_suite, suite_names

CHAOS_CELLS = SUITES["CHAOS"].cells()
BEHAVIOR = {cell.index: cell.params["behavior"] for cell in CHAOS_CELLS}


@pytest.fixture
def chaos_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def no_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_DIR", raising=False)


# ----------------------------------------------------------------------
# The hidden suite itself
# ----------------------------------------------------------------------

def test_chaos_suite_is_hidden_but_registered():
    assert "CHAOS" in SUITES
    assert "CHAOS" not in suite_names()
    assert SUITES["CHAOS"].hidden
    # Public suites stay public.
    assert {"E01", "E03", "E10", "E11"} <= set(suite_names())


def test_chaos_is_healthy_without_the_env_var(no_chaos):
    run = run_suite("CHAOS", jobs=1, use_cache=False)
    assert len(run.results) == len(CHAOS_CELLS)
    assert not run.quarantined
    assert not run.recovery.intervened
    assert all(r.attempts == 1 for r in run.results)


# ----------------------------------------------------------------------
# Recovery paths, isolated per behavior via --limit slices
# ----------------------------------------------------------------------

def test_flaky_cell_retries_and_succeeds_serially(chaos_dir):
    run = run_suite("CHAOS", jobs=1, use_cache=False, limit=2, retries=1)
    assert not run.quarantined
    by_index = {r.index: r for r in run.results}
    assert by_index[1].attempts == 2  # the flaky cell needed its retry
    assert by_index[0].attempts == 1
    assert run.recovery.retries == 1


def test_flaky_cell_without_retries_is_quarantined(chaos_dir):
    run = run_suite("CHAOS", jobs=1, use_cache=False, limit=2, retries=0)
    assert [q.index for q in run.quarantined] == [1]
    assert run.quarantined[0].attempts == 1
    assert "flaky" in run.quarantined[0].reason
    # The healthy neighbor still completed.
    assert [r.index for r in run.results] == [0]


def test_hung_cell_is_killed_and_quarantined(chaos_dir):
    start = time.monotonic()
    run = run_suite(
        "CHAOS", jobs=2, use_cache=False, limit=4,
        cell_timeout=1.0, retries=1,
    )
    elapsed = time.monotonic() - start
    # Two 1s attempts plus overhead — nowhere near the 3600s sleep.
    assert elapsed < 30.0
    assert [q.index for q in run.quarantined] == [3]
    assert BEHAVIOR[3] == "hang"
    assert run.quarantined[0].attempts == 2
    assert "timed out" in run.quarantined[0].reason
    assert run.recovery.timeouts == 2
    assert run.recovery.pool_rebuilds >= 1
    # Everyone else (including flaky, after its retry) made it.
    assert sorted(r.index for r in run.results) == [0, 1, 2]


def test_full_chaos_run_self_heals(chaos_dir):
    run = run_suite(
        "CHAOS", jobs=2, use_cache=False,
        cell_timeout=1.0, retries=2,
    )
    quarantined_behaviors = sorted(BEHAVIOR[q.index] for q in run.quarantined)
    assert quarantined_behaviors == ["crash", "hang"]
    for q in run.quarantined:
        assert q.attempts == 3
        assert q.reason
    assert run.recovery.pool_rebuilds >= 1  # worker death and/or hang kill
    assert run.recovery.retries >= 1

    survived = {r.index: r for r in run.results}
    assert sorted(survived) == [0, 1, 2, 4]
    assert survived[1].attempts >= 2  # flaky needed at least one retry

    # Healthy-cell rows are byte-identical to a fault-free serial run.
    del os.environ["REPRO_CHAOS_DIR"]
    healthy = run_suite("CHAOS", jobs=1, use_cache=False)
    healthy_rows = {r.index: r.rows for r in healthy.results}
    for index, result in survived.items():
        assert result.rows == healthy_rows[index]


def test_quarantine_appears_in_summary(chaos_dir):
    run = run_suite("CHAOS", jobs=1, use_cache=False, limit=2, retries=0)
    summary = run.summary()
    assert summary["recovery"] == {
        "retries": 0, "timeouts": 0, "pool_rebuilds": 0,
    }
    assert summary["quarantined"] == [{
        "suite": "CHAOS",
        "index": 1,
        "label": "CHAOS[1:flaky]",
        "attempts": 1,
        "reason": run.quarantined[0].reason,
    }]


def test_healthy_run_summary_reports_no_interventions(no_chaos):
    run = run_suite("CHAOS", jobs=2, use_cache=False, cell_timeout=30.0)
    summary = run.summary()
    assert summary["quarantined"] == []
    assert summary["recovery"] == {
        "retries": 0, "timeouts": 0, "pool_rebuilds": 0,
    }


def test_run_suite_rejects_negative_retries():
    with pytest.raises(ValueError):
        run_suite("CHAOS", retries=-1)


# ----------------------------------------------------------------------
# Interrupt handling
# ----------------------------------------------------------------------

@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigkill_mid_e15_resumes_byte_identically(tmp_path):
    """SIGKILL a journaled E15 (temporal adversity) run the moment the
    first cell is durable, then resume: every journaled cell replays
    byte-identically into the same table an uninterrupted run makes."""
    baseline = run_suite("E15", jobs=1, use_cache=False, limit=4)
    baseline_rows = {r.index: r.rows for r in baseline.results}

    journal = tmp_path / "e15-wal.jsonl"
    env = dict(os.environ)
    env.pop("REPRO_CHAOS_DIR", None)
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
    assert not resumed.quarantined
    assert {r.index: r.rows for r in resumed.results} == baseline_rows
    assert resumed.render_table() == baseline.render_table()
    # SIGKILL routinely tears the in-flight journal line; the resumed
    # footer may (loudly) append its corrupt-line count to the
    # otherwise identical baseline footer.
    assert resumed.footer().startswith(baseline.footer())


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigint_aborts_promptly_without_waiting_for_hung_workers(tmp_path):
    """Ctrl-C must not block on a worker sleeping for an hour."""
    script = (
        "from repro.runner import run_suite\n"
        "print('chaos-start', flush=True)\n"
        # No cell_timeout, and the limit=4 slice stops before the
        # crashing cell (whose pool break would fail the hung future):
        # the hung cell blocks forever, so only the interrupt path can
        # end this run.
        "run_suite('CHAOS', jobs=2, use_cache=False, limit=4)\n"
    )
    env = dict(os.environ)
    env["REPRO_CHAOS_DIR"] = str(tmp_path)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # keep the test runner's tty out of it
    )
    try:
        assert proc.stdout.readline().strip() == b"chaos-start"
        time.sleep(3.0)  # let the pool reach the hanging cell
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert code != 0  # KeyboardInterrupt propagated, promptly
