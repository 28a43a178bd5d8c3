"""Differential guarantees of the parallel experiment runner.

The load-bearing claim: for every suite, the assembled table is a pure
function of the grid — byte-identical whether cells run serially,
across a process pool, with the artifact cache cold, warm, or disabled.
These tests execute the same suites under those configurations and
compare the rendered bytes, then pin the merge order, the metrics
composition, what a failing cell, Ctrl-C and SIGKILL leave behind, and
the ``repro bench`` CLI surface.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.congest import CongestMetrics
from repro.runner import SUITES, run_suite, suite_names

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Grid structure
# ----------------------------------------------------------------------

def test_suite_registry_well_formed():
    assert set(suite_names()) >= {"E01", "E03", "E10"}
    for name in suite_names():
        cells = SUITES[name].cells()
        assert [c.index for c in cells] == list(range(len(cells)))
        assert len({c.label for c in cells}) == len(cells)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("E99")


def test_limit_takes_grid_prefix(tmp_path):
    run = run_suite("E10", limit=2, cache_root=str(tmp_path / "c"))
    assert [r.index for r in run.results] == [0, 1]


# ----------------------------------------------------------------------
# Serial / parallel / cache equivalence (the acceptance criterion)
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,limit",
    [("E01", 4), ("E03", None), ("E10", 4)],
)
def test_parallel_tables_byte_identical_to_serial(name, limit, tmp_path):
    root = str(tmp_path / "cache")
    serial_nocache = run_suite(name, jobs=1, use_cache=False, limit=limit)
    serial_cold = run_suite(name, jobs=1, cache_root=root, limit=limit)
    parallel_warm = run_suite(name, jobs=2, cache_root=root, limit=limit)
    parallel_nocache = run_suite(name, jobs=2, use_cache=False, limit=limit)

    reference = serial_nocache.render_table()
    assert serial_cold.render_table() == reference
    assert parallel_warm.render_table() == reference
    assert parallel_nocache.render_table() == reference
    # The warm run actually hit the cache (cells memoized by the cold run).
    warm_stats = parallel_warm.cache_stats()
    assert warm_stats["disk_hits"] + warm_stats["memory_hits"] > 0


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_spawn_and_fork_agree(tmp_path):
    root = str(tmp_path / "cache")
    forked = run_suite("E10", jobs=2, limit=3, cache_root=root,
                       mp_start="fork")
    spawned = run_suite("E10", jobs=2, limit=3, cache_root=root,
                        mp_start="spawn")
    assert forked.render_table() == spawned.render_table()


def test_results_sorted_by_index_not_completion(tmp_path):
    run = run_suite("E01", jobs=2, limit=6,
                    cache_root=str(tmp_path / "c"))
    assert [r.index for r in run.results] == sorted(
        r.index for r in run.results
    )


# ----------------------------------------------------------------------
# Metrics, traces, stats
# ----------------------------------------------------------------------

def test_merged_metrics_compose_parallel(tmp_path):
    run = run_suite("E10", limit=2, cache_root=str(tmp_path / "c"))
    merged = run.merged_metrics()
    parts = [CongestMetrics.from_dict(r.metrics) for r in run.results]
    assert merged.rounds == max(p.rounds for p in parts)
    assert merged.total_messages == sum(p.total_messages for p in parts)
    assert run.compute_seconds() >= 0.0


def test_metrics_round_trip_dict():
    a = CongestMetrics()
    a.record_round({("u", "v"): 3}, 5, 80)
    a.record_round({("u", "w"): 1}, 3, 40)
    a.record_message(17)
    b = CongestMetrics.from_dict(a.to_dict(include_per_round=True))
    assert b.summary() == a.summary()
    assert b.messages_per_round == a.messages_per_round


def test_trace_collection_in_cell_order(tmp_path):
    run = run_suite("E10", limit=2, jobs=2, trace=True,
                    cache_root=str(tmp_path / "c"))
    lines = run.trace_lines()
    assert lines, "traced run produced no trace lines"
    labels = [json.loads(line)["sim"] for line in lines]
    # Every recorder is tagged with its cell label; cells appear in order.
    first_cell = run.results[0].label
    second_cell = run.results[1].label
    assert any(label.startswith(first_cell) for label in labels)
    boundary = max(
        i for i, label in enumerate(labels)
        if label.startswith(first_cell)
    )
    assert all(
        label.startswith(second_cell) for label in labels[boundary + 1:]
    )


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_bench_smoke(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    out_dir = str(tmp_path / "out")
    stats_path = str(tmp_path / "stats.json")
    code = main([
        "bench", "--suite", "E10", "--limit", "2", "--jobs", "2",
        "--cache-dir", cache_dir, "--out", out_dir,
        "--stats-json", stats_path,
    ])
    assert code == 0
    captured = capsys.readouterr()
    # Result tables stay on stdout; the cache/cells line is a
    # diagnostic and goes to stderr through the `repro` logger.
    assert "E10" in captured.out
    assert "cache:" in captured.err

    with open(stats_path) as handle:
        stats = json.load(handle)
    assert stats["suites"][0]["suite"] == "E10"
    assert stats["suites"][0]["cells"] == 2
    assert stats["jobs"] == 2 and stats["cache_enabled"] is True

    table_path = os.path.join(out_dir, "E10.txt")
    with open(table_path) as handle:
        written = handle.read()
    # Byte-identity of the persisted table (footer included) against
    # an in-process run.
    serial = run_suite("E10", limit=2, use_cache=False)
    expected = serial.render_table() + "\n" + serial.footer()
    assert written.strip() == expected.strip()
    # The status footer also reaches stdout beneath the table.
    assert serial.footer() in captured.out


def test_footer_counts_cells_and_stalled():
    run = run_suite("E15", jobs=1, use_cache=False, limit=4)
    assert run.footer() == "E15: 4 cell(s), 0 stalled"
    assert run.summary()["stalled"] == 0
    # Flip one cell's graded verdict to stalled: every surface that
    # reports the count (method, footer, --stats-json summary) follows.
    run.results[0].extra["verdict"]["status"] = "stalled"
    assert run.stalled_cells() == 1
    assert run.footer().endswith("1 stalled")
    assert run.summary()["stalled"] == 1


def test_cli_bench_no_cache(tmp_path, capsys):
    code = main([
        "bench", "--suite", "E10", "--limit", "1", "--no-cache",
    ])
    assert code == 0
    # Cache statistics are diagnostics: logger -> stderr.
    assert "misses" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Failures and interruptions: a stopped run is rerun, not resumed
# ----------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        not HAVE_FORK, reason="workers must inherit the patched suite",
    )),
])
def test_failing_cell_fails_the_run(tmp_path, monkeypatch, jobs):
    """A cell that raises ends the run with its exception, inline and
    pooled.  The pool holds at most ``jobs`` cells: cell 2 starts only
    after an earlier cell has finished, and the failure waits only for
    the cells already running, so the rest of the grid never starts."""
    real = SUITES["E15"].cell_fn
    markers = tmp_path / "markers"
    markers.mkdir()

    def broken(cell):
        finished = sorted(p.name for p in markers.glob("finished-*"))
        (markers / f"started-{cell.index}").write_text(" ".join(finished))
        if cell.index == 2:
            raise RuntimeError("cell 2 is broken")
        out = real(cell)
        (markers / f"finished-{cell.index}").touch()
        return out

    monkeypatch.setitem(
        SUITES, "E15", dataclasses.replace(SUITES["E15"], cell_fn=broken)
    )
    with pytest.raises(RuntimeError, match="cell 2 is broken"):
        run_suite("E15", jobs=jobs, use_cache=False, limit=8)
    started = {
        int(p.name.split("-")[1]) for p in markers.glob("started-*")
    }
    assert (markers / "started-2").read_text() != ""
    if jobs == 1:
        assert started == {0, 1, 2}
    else:
        # Cell 3 can start only if cell 0 or 1 landed before cell 2
        # raised; nothing later is ever submitted.
        assert {0, 1, 2} <= started <= {0, 1, 2, 3}


def _cell_entries(cache_dir):
    """The whole-cell results the artifact cache has stored so far."""
    return [
        name
        for _, _, names in os.walk(os.path.join(cache_dir, "cell"))
        for name in names if name.endswith(".bin")
    ]


def _start_bench(argv):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "bench"] + argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # keep the test runner's tty out of it
    )


def _wait_for_a_stored_cell(proc, cache_dir):
    deadline = time.monotonic() + 60
    while not _cell_entries(cache_dir):
        assert proc.poll() is None, "bench exited before its first cell"
        assert time.monotonic() < deadline, "no cell stored in 60 s"
        time.sleep(0.01)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigint_stops_a_pooled_run_after_its_running_cells(tmp_path):
    """Ctrl-C during ``repro bench --jobs 2`` ends the run once the
    cells already running finish: the rest of the grid never runs, and
    the suite never prints its table."""
    cache_dir = str(tmp_path / "cache")
    proc = _start_bench(
        ["--suite", "E10", "--jobs", "2", "--cache-dir", cache_dir]
    )
    try:
        _wait_for_a_stored_cell(proc, cache_dir)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert b"E10: " not in out
    assert len(_cell_entries(cache_dir)) < len(SUITES["E10"].cells())


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigkilled_bench_reruns_from_the_cell_cache(tmp_path):
    """A killed ``repro bench`` is rerun, not resumed: each cell that
    landed before the SIGKILL is already in the artifact cache's cell
    tier, so the rerun reads it back from disk and renders the
    uninterrupted table."""
    cache_dir = str(tmp_path / "cache")
    limit = 3
    proc = _start_bench(
        ["--suite", "E10", "--limit", str(limit), "--jobs", "1",
         "--cache-dir", cache_dir]
    )
    try:
        _wait_for_a_stored_cell(proc, cache_dir)
        proc.send_signal(signal.SIGKILL)
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert 1 <= len(_cell_entries(cache_dir)) < limit

    rerun = run_suite("E10", limit=limit, cache_root=cache_dir)
    uninterrupted = run_suite("E10", limit=limit, use_cache=False)
    assert rerun.render_table() == uninterrupted.render_table()
    assert rerun.footer() == uninterrupted.footer()
    assert rerun.cache_stats()["disk_hits"] >= 1
