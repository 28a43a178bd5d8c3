"""Differential guarantees of the parallel experiment runner.

The load-bearing claim: for every suite, the assembled table is a pure
function of the grid — byte-identical whether cells run serially or
across a process pool.  These tests execute the same suites both ways
and compare the rendered bytes, then pin the merge order, the metrics
composition, what a failing cell and Ctrl-C leave behind, and the
``repro bench`` CLI surface.
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


def test_limit_takes_grid_prefix():
    run = run_suite("E10", limit=2)
    assert [r.index for r in run.results] == [0, 1]


# ----------------------------------------------------------------------
# Serial / parallel equivalence (the acceptance criterion)
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,limit",
    [("E01", 4), ("E03", None), ("E10", 4)],
)
def test_parallel_tables_byte_identical_to_serial(name, limit):
    serial = run_suite(name, jobs=1, limit=limit)
    parallel = run_suite(name, jobs=2, limit=limit)
    assert parallel.jobs == 2
    assert parallel.render_table() == serial.render_table()
    assert parallel.footer() == serial.footer()


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
def test_spawn_and_fork_agree():
    forked = run_suite("E10", jobs=2, limit=3, mp_start="fork")
    spawned = run_suite("E10", jobs=2, limit=3, mp_start="spawn")
    assert forked.render_table() == spawned.render_table()


def test_results_sorted_by_index_not_completion():
    run = run_suite("E01", jobs=2, limit=6)
    assert [r.index for r in run.results] == sorted(
        r.index for r in run.results
    )


# ----------------------------------------------------------------------
# Metrics, traces, stats
# ----------------------------------------------------------------------

def test_metrics_round_trip_dict():
    a = CongestMetrics()
    a.record_round({("u", "v"): 3}, 5, 80)
    a.record_round({("u", "w"): 1}, 3, 40)
    a.max_message_bits = 17
    b = CongestMetrics.from_dict(a.to_dict())
    assert b == a


def test_trace_collection_in_cell_order():
    run = run_suite("E10", limit=2, jobs=2, trace=True)
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
    out_dir = str(tmp_path / "out")
    stats_path = str(tmp_path / "stats.json")
    code = main([
        "bench", "--suite", "E10", "--limit", "2", "--jobs", "2",
        "--out", out_dir, "--stats-json", stats_path,
    ])
    assert code == 0
    captured = capsys.readouterr()
    # Result tables stay on stdout; the per-suite cells line is a
    # diagnostic and goes to stderr through the `repro` logger.
    assert "E10" in captured.out
    assert "[E10] cells=2 jobs=2 wall=" in captured.err

    with open(stats_path) as handle:
        stats = json.load(handle)
    assert stats["suites"][0]["suite"] == "E10"
    assert stats["suites"][0]["cells"] == 2
    assert stats["jobs"] == 2
    # Every run computes every cell: the stats carry no cache keys.
    assert set(stats) == {"jobs", "suites", "wall_seconds"}
    assert set(stats["suites"][0]) == {
        "cells", "compute_seconds", "jobs", "stalled", "suite",
        "wall_seconds",
    }

    table_path = os.path.join(out_dir, "E10.txt")
    with open(table_path) as handle:
        written = handle.read()
    # Byte-identity of the persisted table (footer included) against
    # an in-process run.
    serial = run_suite("E10", limit=2)
    expected = serial.render_table() + "\n" + serial.footer()
    assert written.strip() == expected.strip()
    # The status footer also reaches stdout beneath the table.
    assert serial.footer() in captured.out


def test_footer_counts_cells_and_stalled():
    run = run_suite("E15", jobs=1, limit=4)
    assert run.footer() == "E15: 4 cell(s), 0 stalled"
    assert run.summary()["stalled"] == 0
    # Flip one cell's graded verdict to stalled: every surface that
    # reports the count (method, footer, --stats-json summary) follows.
    run.results[0].extra["verdict"]["status"] = "stalled"
    assert run.stalled_cells() == 1
    assert run.footer().endswith("1 stalled")
    assert run.summary()["stalled"] == 1


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
        run_suite("E15", jobs=jobs, limit=8)
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


#: Runs ``repro bench --suite E10 --jobs 2`` with E10's cell function
#: wrapped to touch ``finished-<index>`` in the directory given as its
#: argument after each cell.  Forked workers inherit the wrapped entry.
_MARKING_BENCH = """
import dataclasses, os, sys
from repro.cli import main
from repro.runner import SUITES

markers = sys.argv[1]
real = SUITES["E10"].cell_fn

def marked(cell):
    out = real(cell)
    open(os.path.join(markers, f"finished-{cell.index}"), "w").close()
    return out

SUITES["E10"] = dataclasses.replace(SUITES["E10"], cell_fn=marked)
sys.exit(main(["bench", "--suite", "E10", "--jobs", "2"]))
"""


@pytest.mark.skipif(not HAVE_FORK, reason="workers must inherit the patch")
def test_sigint_stops_a_pooled_run_after_its_running_cells(tmp_path):
    """Ctrl-C during ``repro bench --jobs 2`` ends the run once the
    cells already running finish: the rest of the grid never runs, and
    the suite never prints its table."""
    markers = tmp_path / "markers"
    markers.mkdir()
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-c", _MARKING_BENCH, str(markers)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # keep the test runner's tty out of it
    )
    try:
        deadline = time.monotonic() + 60
        while not any(markers.iterdir()):
            assert proc.poll() is None, "bench exited before its first cell"
            assert time.monotonic() < deadline, "no cell finished in 60 s"
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert b"E10: " not in out
    assert len(list(markers.iterdir())) < len(SUITES["E10"].cells())
