"""Tests for the command-line interface."""

import dataclasses
import errno
import json
import os

import pytest

from repro import storage
from repro.cli import main
from repro.runner import SUITES

SEED_BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "results",
    "BENCH_seed_baseline.json",
)


class TestCLI:
    def test_decompose(self, capsys):
        assert main(["decompose", "--n", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cut fraction" in out

    def test_maxis(self, capsys):
        assert main(["maxis", "--n", "50", "--eps", "0.3", "--seed", "2"]) == 0
        assert "independent set" in capsys.readouterr().out

    def test_mcm(self, capsys):
        assert main(["mcm", "--n", "50", "--seed", "3"]) == 0
        assert "matching" in capsys.readouterr().out

    def test_mwm(self, capsys):
        code = main(
            ["mwm", "--n", "40", "--max-weight", "30", "--iterations", "2",
             "--seed", "4"]
        )
        assert code == 0
        assert "matching weight" in capsys.readouterr().out

    def test_correlation(self, capsys):
        assert main(["correlation", "--n", "50", "--seed", "5"]) == 0
        assert "agreement score" in capsys.readouterr().out

    def test_mds(self, capsys):
        assert main(["mds", "--family", "grid", "--n", "49", "--seed", "6"]) == 0
        assert "dominating set" in capsys.readouterr().out

    def test_property_member(self, capsys):
        assert main(
            ["test-property", "--property", "planar", "--n", "60",
             "--seed", "7"]
        ) == 0
        assert "Accept" in capsys.readouterr().out

    def test_property_far(self, capsys):
        assert main(
            ["test-property", "--property", "planar", "--far", "--n", "48",
             "--eps", "0.05", "--seed", "8"]
        ) == 0
        assert "Reject" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["thm15", "ball", "chop", "mpx"])
    def test_ldd_algorithms(self, algorithm, capsys):
        assert main(
            ["ldd", "--algorithm", algorithm, "--family", "grid", "--n", "64",
             "--seed", "9"]
        ) == 0
        assert "clusters" in capsys.readouterr().out

    def test_triangles(self, capsys):
        assert main(
            ["triangles", "--family", "trigrid", "--n", "49", "--seed", "10"]
        ) == 0
        assert "exact" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        from repro.congest import RoundTrace
        from repro.obs import load_trace_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(
            ["maxis", "--n", "40", "--seed", "11", "--trace", str(path)]
        ) == 0
        # Diagnostics land on stderr; results stay on stdout.
        captured = capsys.readouterr()
        assert "trace:" in captured.err and str(path) in captured.err
        assert "independent set" in captured.out
        rounds = [
            RoundTrace.from_dict(d) for d in load_trace_jsonl(str(path))
        ]
        assert rounds  # at least one simulated round was recorded
        assert sum(r.messages for r in rounds) > 0
        assert all(r.round >= 1 for r in rounds)

    def test_quiet_suppresses_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["--quiet", "maxis", "--n", "40", "--seed", "11",
             "--trace", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert "trace:" not in captured.err
        assert "independent set" in captured.out


class TestFaultsCommand:
    def test_churn_plan_accepted(self, capsys):
        code = main([
            "faults", "--n", "30", "--seed", "2",
            "--crash", "3:2", "--rejoin", "3:6",
            "--checkpoint-interval", "2",
        ])
        assert code in (0, 1)  # graded, never a traceback
        out = capsys.readouterr().out
        assert "crashes=1 rejoins=1" in out
        assert "verdict:" in out

    @pytest.mark.parametrize("algorithm", ["framework", "maxis"])
    def test_corrupt_plan_is_graded(self, capsys, algorithm):
        # A corrupted payload is lost, never unpacked: the run ends in
        # the verdict of the protocol's own checks, not a TypeError.
        code = main([
            "faults", "--algorithm", algorithm, "--n", "60",
            "--seed", "1", "--corrupt", "0.05",
        ])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "corrupt=0.05" in out
        verdict = [l for l in out.splitlines() if l.startswith("verdict:")]
        assert len(verdict) == 1
        assert "TypeError" not in verdict[0]

    def test_rejoin_without_crash_is_a_clean_error(self, capsys):
        # Structurally invalid plans are operator errors: exit 2 with
        # a one-line message on stderr, never a traceback.
        assert main(["faults", "--n", "30", "--rejoin", "3:6"]) == 2
        assert "invalid fault plan" in capsys.readouterr().err

    def test_conflicting_churn_schedule_is_a_clean_error(self, capsys):
        code = main([
            "faults", "--n", "30",
            "--edge-arrive", "0-1:4", "--edge-arrive", "0-1:6",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid fault plan" in err
        assert "conflicting churn schedule" in err

    @pytest.mark.parametrize("flags, schedule", [
        (["--crash", "3:1", "--rejoin", "3:3", "--crash", "3:5"], "crash"),
        (["--crash", "3:1", "--rejoin", "3:3", "--rejoin", "3:5"], "rejoin"),
    ], ids=["crash", "rejoin"])
    def test_second_crash_or_rejoin_is_a_clean_error(
        self, capsys, flags, schedule
    ):
        # A second entry for one vertex is ambiguous: refused with one
        # line, never run with only the earliest honoured.
        code = main(["faults", "--algorithm", "matching", "--n", "60",
                     "--seed", "1"] + flags)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid fault plan: conflicting crash schedule: vertex 3 "
            f"has two {schedule} rounds"
        ]

    def test_bad_schedule_spec_is_a_clean_error(self, capsys):
        # Exit 1 means a failed verdict; a malformed flag value is an
        # operator error and exits 2 instead.
        for flag, spec, shape in [
            ("--crash", "nonsense", "VERTEX:ROUND"),
            ("--crash", "5-4", "VERTEX:ROUND"),
            ("--partition", "2-6:", "START-END:V1,V2,..."),
        ]:
            assert main(["faults", "--n", "30", flag, spec]) == 2
            err = capsys.readouterr().err
            assert f"bad {flag} {spec!r}; expected {shape}" in err
            assert "Traceback" not in err

    def test_bad_checkpoint_interval_is_a_clean_error(self, capsys):
        assert main(["faults", "--n", "30", "--crash", "3:2",
                     "--checkpoint-interval", "0"]) == 2
        assert "invalid fault plan" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["delaunay", "ktree", "torus", "cycle"])
    def test_too_small_n_is_a_clean_error(self, capsys, family):
        # The generator cannot build the family at this size: exit 2
        # with one line naming the flags, never a GraphError traceback.
        assert main(["faults", "--family", family, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert f"cannot build --family {family} at --n 2" in lines[0]
        assert "Traceback" not in captured.err


_MAXIS = ["maxis", "--n", "30", "--seed", "2"]
_FAULTS = ["faults", "--algorithm", "maxis", "--n", "60", "--seed", "1"]
_BENCH = ["bench", "--suite", "E15", "--limit", "1", "--jobs", "1"]


class TestEmptyPathFlags:
    """An empty PATH is a given flag with an unusable value: one error
    line naming the flag, exit 2, and nothing run or written."""

    @pytest.mark.parametrize(
        "argv,named",
        [
            (_MAXIS + ["--trace", ""], "invalid trace path"),
            (_BENCH + ["--trace", ""], "invalid trace path"),
            (_BENCH + ["--telemetry", ""], "invalid telemetry path"),
            (_BENCH + ["--stats-json", ""], "invalid stats-json path"),
            # The probe of the good path before it leaves no file.
            (_BENCH + ["--trace", "ok.jsonl", "--stats-json", ""],
             "invalid stats-json path"),
            (_BENCH + ["--out", ""], "invalid out path"),
            (_FAULTS + ["--save-checkpoint", ""],
             "invalid save-checkpoint path"),
            (_FAULTS + ["--resume-from", ""], "cannot read checkpoint ''"),
        ],
        ids=[
            "maxis-trace", "bench-trace", "bench-telemetry",
            "bench-stats-json", "bench-trace-then-stats-json", "bench-out",
            "faults-save-checkpoint", "faults-resume-from",
        ],
    )
    def test_empty_path_is_an_operator_error(
        self, capsys, tmp_path, monkeypatch, argv, named
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and named in lines[0]
        assert os.listdir(tmp_path) == []


class TestProbeKeepsExistingOutputs:
    """The probe checks that an output path is writable before the run;
    the file it protects must keep its bytes until the final atomic
    write replaces it, so a run that fails or is refused after the
    probe leaves an earlier output intact."""

    def test_failing_bench_cell_keeps_existing_outputs(
        self, tmp_path, monkeypatch
    ):
        real = SUITES["E15"].cell_fn

        def broken(cell):
            if cell.index == 1:
                raise RuntimeError("cell 1 is broken")
            return real(cell)

        monkeypatch.setitem(
            SUITES, "E15", dataclasses.replace(SUITES["E15"], cell_fn=broken)
        )
        outputs = {
            flag: tmp_path / f"earlier{flag}.out"
            for flag in ("--trace", "--telemetry", "--stats-json")
        }
        argv = ["bench", "--suite", "E15", "--limit", "2"]
        for flag, path in outputs.items():
            path.write_bytes(f"earlier {flag} output\n".encode())
            argv += [flag, str(path)]
        with pytest.raises(RuntimeError, match="cell 1 is broken"):
            main(argv)
        for flag, path in outputs.items():
            assert path.read_bytes() == f"earlier {flag} output\n".encode()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--family", "delaunay", "--n", "2"],
             "cannot build --family delaunay"),
            (["--drop", "2"], "invalid fault plan: drop rate 2.0"),
            (["--algorithm", "framework", "--save-checkpoint", "ck.json"],
             "--save-checkpoint supports --algorithm maxis or matching"),
            (["--resume-from", "damaged.json"], "cannot load checkpoint"),
            (["--checkpoint-every", "3"],
             "--checkpoint-every requires --save-checkpoint PATH"),
        ],
        ids=["n-2", "drop-2", "framework-save-checkpoint",
             "damaged-resume-from", "lone-checkpoint-every"],
    )
    def test_refused_simulation_keeps_existing_trace(
        self, capsys, tmp_path, monkeypatch, flags, message
    ):
        """A run refused inside its handler exits 2 with one line and
        never reaches the final trace write."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "damaged.json").write_bytes(b'{"schema": 3, "ro')
        trace = tmp_path / "earlier.jsonl"
        trace.write_bytes(b'{"round": 1}\n')
        code = main(["faults", *flags, "--trace", str(trace)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0], lines
        assert trace.read_bytes() == b'{"round": 1}\n'
        assert sorted(os.listdir(tmp_path)) == ["damaged.json",
                                                "earlier.jsonl"]


def test_bench_unknown_suite_exits_2(capsys):
    assert main(["bench", "--suite", "NOPE"]) == 2
    assert "unknown suite(s) ['NOPE']" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [_MAXIS, _FAULTS], ids=["maxis", "faults"])
def test_trace_detail_requires_trace(capsys, tmp_path, monkeypatch, argv):
    """A single-simulation command refuses ``--trace-detail`` without
    ``--trace`` as ``bench`` does: exit 2 before anything runs."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--trace-detail"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trace-detail requires --trace PATH" in captured.err
    assert os.listdir(tmp_path) == []


def _refused_as_usage_error(capsys, tmp_path, monkeypatch, argv):
    """``argv`` exits 2 in argparse: nothing printed, nothing written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        _BENCH + ["--resume"],
        *(_BENCH + [f"--{flag}", "out.jsonl"]
          for flag in ("journal", "progress")),
        ["trace", "tail", "progress.jsonl"],
        _BENCH + ["--cache"],
        _BENCH + ["--no-cache"],
        _BENCH + ["--cache-dir", "cache"],
    ],
    ids=["bench-resume", "bench-journal", "bench-progress", "trace-tail",
         "bench-cache", "bench-no-cache", "bench-cache-dir"],
)
def test_resume_and_heartbeat_flags_are_gone(
    capsys, tmp_path, monkeypatch, argv
):
    """A killed bench is rerun, not resumed, no heartbeat is written,
    and every run computes every cell: the bench journal, resume,
    progress and artifact-cache flags and the trace ``tail`` command
    are refused as usage errors before anything runs."""
    _refused_as_usage_error(capsys, tmp_path, monkeypatch, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--log-json"] + _MAXIS,
        ["obs", "report", "snap.json", "--format", "prom"],
        ["obs", "diff", "old.json", "new.json", "--json"],
        ["obs", "export", "snap.json", "--format", "chrome"],
        ["trace", "explain", "t.jsonl", "--vertex", "1", "--round", "1",
         "--json"],
    ],
    ids=["log-json", "obs-report-format", "obs-diff-json",
         "obs-export-format", "trace-explain-json"],
)
def test_output_format_flags_are_gone(capsys, tmp_path, monkeypatch, argv):
    """Diagnostics are plain text and each telemetry and trace reader
    prints one format: the JSON-log, Prometheus/JSONL report, JSON diff,
    export-format and JSON explain flags are refused as usage errors
    before anything runs."""
    _refused_as_usage_error(capsys, tmp_path, monkeypatch, argv)


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_bench_limit_below_one_exits_2(capsys, tmp_path, monkeypatch, limit):
    """A limit below 1 selects no cell: run anyway, it would print an
    empty table and exit 0, so a mistyped smoke would pass vacuously.
    It is an unusable flag value, refused before anything runs."""
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--suite", "E11", "--limit", limit,
                 "--out", "tables"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert f"--limit must be at least 1, got {limit}" in lines[0]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_exits_2(capsys, tmp_path, monkeypatch, jobs):
    """Fewer than one worker is no job count: run anyway, the suites
    would run inline while --stats-json and the telemetry snapshot
    recorded the given count.  It is refused before anything runs."""
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--suite", "E15", "--limit", "1",
                 "--jobs", jobs, "--out", "tables",
                 "--stats-json", "stats.json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert f"--jobs must be at least 1, got {jobs}" in lines[0]
    assert os.listdir(tmp_path) == []


def _graded(out):
    """The lines a graded run prints: metrics, faults and verdict."""
    return [line for line in out.splitlines()
            if line.startswith(("CONGEST:", "faults:", "verdict:"))]


class TestFaultsCheckpointCLI:
    ARGS = ["faults", "--family", "delaunay", "--n", "40",
            "--algorithm", "maxis", "--seed", "3"]
    MATCHING = ["faults", "--algorithm", "matching", "--n", "60",
                "--seed", "1", "--drop", "0.1"]

    def test_save_then_resume_round_trips(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        assert main(self.ARGS + ["--save-checkpoint", ck,
                                 "--checkpoint-every", "4"]) == 0
        first = capsys.readouterr()
        assert "checkpoints: 1 saved" in first.out
        assert os.path.exists(ck)

        assert main(self.ARGS + ["--resume-from", ck]) == 0
        second = capsys.readouterr()
        assert "resumed:" in second.out and "verdict:" in second.out

    @pytest.mark.parametrize("algorithm", ["maxis", "matching"])
    def test_resumed_run_prints_the_uninterrupted_result(
        self, capsys, tmp_path, algorithm
    ):
        ck = str(tmp_path / "ck.json")
        common = ["faults", "--algorithm", algorithm, "--n", "60",
                  "--seed", "1", "--drop", "0.1"]
        code = main(common + ["--save-checkpoint", ck,
                              "--checkpoint-every", "3"])
        first = capsys.readouterr().out
        assert "checkpoints: " in first and " saved to " in first
        assert main(common + ["--resume-from", ck]) == code
        second = capsys.readouterr().out
        assert "resumed:" in second
        assert len(_graded(first)) == 3
        assert _graded(second) == _graded(first)

    def test_resumed_run_saves_checkpoints_like_a_fresh_one(
        self, capsys, tmp_path
    ):
        """A resumed run given --save-checkpoint saves as a fresh run
        does, and finishing from what it saved prints the same graded
        lines again."""
        ck, ck2 = str(tmp_path / "ck.json"), str(tmp_path / "ck2.json")
        # The run lasts 145 rounds: resumed from round 100, it saves at
        # rounds 120 and 140.
        assert main(self.MATCHING + ["--save-checkpoint", ck,
                                     "--checkpoint-every", "100"]) == 0
        first = capsys.readouterr().out
        assert main(self.MATCHING + ["--resume-from", ck,
                                     "--save-checkpoint", ck2,
                                     "--checkpoint-every", "20"]) == 0
        second = capsys.readouterr().out
        assert f"checkpoints: 2 saved to {ck2} (last at round 140)" in second
        assert main(self.MATCHING + ["--resume-from", ck2]) == 0
        third = capsys.readouterr().out
        assert len(_graded(first)) == 3
        assert _graded(third) == _graded(second) == _graded(first)

    def test_resume_refuses_fault_flags_of_another_plan(
        self, capsys, tmp_path
    ):
        """The checkpoint's own plan governs a resumed run: flags that
        name another are refused before anything runs or is written."""
        ck = str(tmp_path / "ck.json")
        assert main(self.MATCHING + ["--save-checkpoint", ck,
                                     "--checkpoint-every", "3"]) == 0
        capsys.readouterr()
        code = main(self.MATCHING + ["--resume-from", ck,
                                     "--save-checkpoint",
                                     str(tmp_path / "ck2.json"),
                                     "--checkpoint-every", "2",
                                     "--drop", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert "fault flags describe another plan" in lines[0]
        assert os.listdir(tmp_path) == ["ck.json"]

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_checkpoint_every_below_one_exits_2(self, capsys, tmp_path, every):
        # An interval below 1 names no sensible capture round: an
        # unusable flag value, refused before anything runs.
        ck = tmp_path / "ck.json"
        code = main(self.ARGS + ["--save-checkpoint", str(ck),
                                 "--checkpoint-every", every])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert f"--checkpoint-every must be at least 1, got {every}" in (
            lines[0]
        )
        assert not ck.exists()

    @pytest.mark.parametrize("flags", [[], ["--drop", "0.1"]],
                             ids=["bare", "flags-repeated"])
    def test_older_checkpoint_resumes_to_the_uninterrupted_result(
        self, capsys, flags
    ):
        """A checkpoint older code wrote with MATCHING resumes to the
        lines the uninterrupted run prints, whether the capturing run's
        fault flags are repeated or not."""
        from tests.test_checkpoint import LEGACY_CHECKPOINT

        assert main(self.MATCHING) == 0
        first = capsys.readouterr().out
        resume = self.MATCHING[:-2] + flags
        assert main(resume + ["--resume-from", LEGACY_CHECKPOINT]) == 0
        second = capsys.readouterr().out
        assert "resumed:" in second
        assert len(_graded(first)) == 3
        assert _graded(second) == _graded(first)

    @pytest.mark.parametrize("flags", [[], ["--drop", "0.1"]],
                             ids=["bare", "flags-repeated"])
    def test_checkpoint_scheduling_link_failures_exits_2(
        self, capsys, tmp_path, flags
    ):
        from tests.test_checkpoint import (
            legacy_checkpoint_with_link_failures,
        )

        ck = tmp_path / "ck.json"
        ck.write_text(json.dumps(legacy_checkpoint_with_link_failures()))
        resume = self.MATCHING[:-2] + flags
        assert main(resume + ["--resume-from", str(ck)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert "cannot load checkpoint" in lines[0]
        assert "link failures" in lines[0]

    def test_corrupt_checkpoint_resume_exits_2(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        assert main(self.ARGS + ["--save-checkpoint", str(ck),
                                 "--checkpoint-every", "4"]) == 0
        capsys.readouterr()
        data = ck.read_bytes()
        ck.write_bytes(data[: len(data) // 2])
        assert main(self.ARGS + ["--resume-from", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "cannot load checkpoint" in err and "Traceback" not in err

    def test_missing_checkpoint_resume_exits_2(self, capsys, tmp_path):
        code = main(self.ARGS + ["--resume-from",
                                 str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint" in err and "Traceback" not in err

    def test_resume_under_another_algorithm_exits_2(self, capsys, tmp_path):
        ck = str(tmp_path / "ck.json")
        common = ["faults", "--n", "60", "--seed", "1"]
        assert main(common + ["--algorithm", "matching", "--drop", "0.1",
                              "--save-checkpoint", ck,
                              "--checkpoint-every", "3"]) == 0
        capsys.readouterr()
        code = main(common + ["--algorithm", "maxis", "--resume-from", ck])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "ProposalMatching" in err and "Traceback" not in err


class TestObsErrorPaths:
    def test_report_missing_snapshot_exits_2(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert "absent.json" in err and "Traceback" not in err

    def test_report_malformed_snapshot_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["obs", "report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "Traceback" not in err

    def test_diff_missing_snapshot_exits_2(self, capsys, tmp_path):
        present = tmp_path / "present.json"
        present.write_text("{}")  # never reached: the first load fails
        assert main([
            "obs", "diff", str(tmp_path / "absent.json"), str(present)
        ]) == 2
        err = capsys.readouterr().err
        assert "absent.json" in err and "Traceback" not in err

    @staticmethod
    def _ten_times_slower(tmp_path):
        """Paths of a snapshot and of one ten times slower."""
        from repro.obs import build_snapshot, write_snapshot

        paths = []
        for name, scale in (("old", 1), ("new", 10)):
            path = str(tmp_path / f"{name}.json")
            write_snapshot(path, build_snapshot(suites={"E10": {
                "wall_seconds": 1.0 * scale,
                "cells": {"E10[n=64]": {"elapsed": 0.5 * scale}},
            }}))
            paths.append(path)
        return paths

    @pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
    def test_diff_budget_must_be_finite_and_positive(
        self, capsys, tmp_path, budget
    ):
        """A budget of 0 or below used to raise a ValueError traceback
        (exit 1, the "regressed" code), and NaN or infinity passed a
        snapshot ten times slower: each is one error line, exit 2."""
        paths = self._ten_times_slower(tmp_path)
        assert main(["obs", "diff", *paths, "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert f"--budget must be a finite ratio above 0, got {budget}" \
            in lines[0]

    @pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
    def test_diff_min_seconds_must_be_finite_and_not_negative(
        self, capsys, tmp_path, floor
    ):
        """No slowdown exceeds a NaN or infinite floor, so either used
        to pass a snapshot ten times slower with exit 0: each is now one
        error line, exit 2, as is a negative floor."""
        paths = self._ten_times_slower(tmp_path)
        assert main(["obs", "diff", *paths, "--min-seconds", floor]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert f"--min-seconds must be a finite number of seconds, 0 or " \
            f"more, got {floor}" in lines[0]

    def test_diff_min_seconds_zero_still_gates(self, capsys, tmp_path):
        old, new = self._ten_times_slower(tmp_path)
        assert main(["obs", "diff", old, old, "--min-seconds", "0"]) == 0
        assert main(["obs", "diff", old, new, "--min-seconds", "0"]) == 1

    def test_diff_wrong_kind_snapshot_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "kind.json"
        bad.write_text('{"kind": "something-else", "schema": 1}')
        assert main(["obs", "diff", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "kind.json" in err and "Traceback" not in err


def _timed_seed_baseline():
    """The committed seed baseline plus a two-event span timeline, so
    that ``obs export`` has something to write."""
    with open(SEED_BASELINE) as handle:
        snapshot = json.load(handle)
    snapshot["telemetry"]["timeline"] = [
        {"ph": "B", "name": "cell", "ts_ns": 1000, "pid": 1, "tid": 1},
        {"ph": "E", "name": "cell", "ts_ns": 5000, "pid": 1, "tid": 1},
    ]
    return snapshot


def _telemetry_as_list(snapshot):
    snapshot["telemetry"] = [snapshot["telemetry"]]


def _empty_histogram(snapshot):
    snapshot["telemetry"]["histograms"]["congest.message_bits"] = {}


def _text_suite_wall(snapshot):
    snapshot["suites"]["E10"]["wall_seconds"] = "x"


def _event_without_ts(snapshot):
    del snapshot["telemetry"]["timeline"][0]["ts_ns"]


def _event_with_list_pid(snapshot):
    snapshot["telemetry"]["timeline"][0]["pid"] = [1]


def _timings_stripped(snapshot):
    for suite in snapshot["suites"].values():
        del suite["wall_seconds"]
        for cell in suite["cells"].values():
            del cell["elapsed"]
    for stats in snapshot["telemetry"]["spans"].values():
        del stats["wall_ns"]


class TestDamagedSnapshots:
    """Each of ``obs report``, ``diff`` and ``export`` refuses a damaged
    snapshot in one line with exit 2.  It used to end in a traceback
    (exit 1, the code of a failed perf gate), write a trace, or, with
    its timings stripped, diff clean: a missing timing read as 0 s and
    counted as an improvement."""

    @pytest.mark.parametrize("command", ["report", "diff", "export"])
    @pytest.mark.parametrize(
        "damage",
        [_telemetry_as_list, _empty_histogram, _text_suite_wall,
         _event_without_ts, _event_with_list_pid, _timings_stripped],
        ids=["telemetry-list", "empty-histogram", "text-suite-wall",
             "event-without-ts", "event-with-list-pid", "timings-stripped"],
    )
    def test_damaged_snapshot_exits_2(
        self, capsys, tmp_path, damage, command
    ):
        snapshot = _timed_seed_baseline()
        damage(snapshot)
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(snapshot))
        argv = {
            "report": ["obs", "report", str(path)],
            "diff": ["obs", "diff", SEED_BASELINE, str(path)],
            "export": ["obs", "export", str(path)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"cannot load snapshot {path}: ")
        assert "Traceback" not in captured.err
        assert os.listdir(tmp_path) == ["damaged.json"]


def test_export_on_a_full_disk_keeps_the_earlier_trace(
    capsys, tmp_path, monkeypatch
):
    """``obs export`` writes atomically and fsyncs: on a disk that stays
    full it exits 2 in one line and the trace already at ``--out`` keeps
    its bytes.  It used to open ``--out`` for writing in place and
    never fsync, so it exited 0."""
    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps(_timed_seed_baseline()))
    out = tmp_path / "earlier.trace.json"
    out.write_text('{"traceEvents": []}\n')

    def full(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(storage.os, "fsync", full)
    assert main(["obs", "export", str(snap), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "No space left on device" in lines[0], lines
    assert out.read_text() == '{"traceEvents": []}\n'
    assert sorted(os.listdir(tmp_path)) == ["earlier.trace.json", "snap.json"]
