"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


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
        from repro.congest import TraceRecorder

        path = tmp_path / "trace.jsonl"
        assert main(
            ["maxis", "--n", "40", "--seed", "11", "--trace", str(path)]
        ) == 0
        # Diagnostics land on stderr; results stay on stdout.
        captured = capsys.readouterr()
        assert "trace:" in captured.err and str(path) in captured.err
        assert "independent set" in captured.out
        lines = path.read_text().splitlines()
        assert lines  # at least one simulated round was recorded
        back = TraceRecorder.from_jsonl(lines)
        assert back.total_messages() > 0
        assert all(r.round >= 1 for r in back.rounds)

    def test_quiet_suppresses_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["--quiet", "maxis", "--n", "40", "--seed", "11",
             "--trace", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert "trace:" not in captured.err
        assert "independent set" in captured.out

    def test_log_json_diagnostics(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(
            ["--log-json", "maxis", "--n", "40", "--seed", "11",
             "--trace", str(path)]
        ) == 0
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert any(
            e["level"] == "info" and e["message"].startswith("trace:")
            for e in events
        )


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


class TestBenchJournal:
    def test_resume_replays_journaled_cells(self, capsys, tmp_path):
        journal = str(tmp_path / "wal.jsonl")
        args = ["bench", "--suite", "CHAOS", "--limit", "2", "--no-cache",
                "--cache-dir", str(tmp_path), "--journal", journal]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "2 cell(s) replayed" not in first.err

        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr()
        assert "2 cell(s) replayed, 0 computed" in second.err
        assert second.out == first.out  # byte-identical table

    def test_journal_rejects_multiple_suites(self, tmp_path, capsys):
        # Exit 1 means a quarantined cell; this is an operator error.
        assert main(["bench", "--suite", "E10", "--suite", "CHAOS",
                     "--journal", str(tmp_path / "wal.jsonl")]) == 2
        assert "one file" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "--suite", "NOPE"]) == 2
        assert "unknown suite(s) ['NOPE']" in capsys.readouterr().err

    def test_corrupt_journal_header_resume_exits_2(self, capsys, tmp_path):
        journal = tmp_path / "wal.jsonl"
        journal.write_text("{corrupt header\n")
        code = main(["bench", "--suite", "CHAOS", "--limit", "2",
                     "--no-cache", "--cache-dir", str(tmp_path),
                     "--journal", str(journal), "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "Traceback" not in err

    def test_corrupt_journal_cell_is_loud_in_footer_and_stats(
        self, capsys, tmp_path
    ):
        import json

        journal = str(tmp_path / "wal.jsonl")
        stats = str(tmp_path / "stats.json")
        args = ["bench", "--suite", "CHAOS", "--limit", "2", "--no-cache",
                "--cache-dir", str(tmp_path), "--journal", journal]
        assert main(args) == 0
        capsys.readouterr()
        # Tear the final cell record, as a kill mid-append would.
        with open(journal) as handle:
            lines = handle.read().splitlines()
        with open(journal, "w") as handle:
            handle.write("\n".join(lines[:-1]) + "\n" + lines[-1][:20] + "\n")

        assert main(args + ["--resume", "--stats-json", stats]) == 0
        out = capsys.readouterr().out
        assert "1 corrupt journal line(s) skipped" in out
        with open(stats) as handle:
            payload = json.load(handle)
        assert payload["suites"][0]["journal_corrupt_lines"] == 1


_MAXIS = ["maxis", "--n", "30", "--seed", "2"]
_FAULTS = ["faults", "--algorithm", "maxis", "--n", "60", "--seed", "1"]
_BENCH = ["bench", "--suite", "CHAOS", "--limit", "1", "--jobs", "1",
          "--no-cache"]
_CHAOS = ["chaos", "--suite", "CHAOS", "--limit", "1", "--trials", "1"]


class TestEmptyPathFlags:
    """An empty PATH is a given flag with an unusable value: one error
    line naming the flag, exit 2, and nothing run or written."""

    @pytest.mark.parametrize(
        "argv,named",
        [
            (_MAXIS + ["--trace", ""], "invalid trace path"),
            (_BENCH + ["--trace", ""], "invalid trace path"),
            (_BENCH + ["--telemetry", ""], "invalid telemetry path"),
            (_BENCH + ["--progress", ""], "invalid progress path"),
            (_BENCH + ["--journal", ""], "invalid journal path"),
            (_BENCH + ["--stats-json", ""], "invalid stats-json path"),
            (_CHAOS + ["--stats-json", ""], "invalid stats-json path"),
            (_FAULTS + ["--save-checkpoint", ""],
             "invalid save-checkpoint path"),
            (_FAULTS + ["--resume-from", ""], "cannot read checkpoint ''"),
        ],
        ids=[
            "maxis-trace", "bench-trace", "bench-telemetry",
            "bench-progress", "bench-journal", "bench-stats-json",
            "chaos-stats-json", "faults-save-checkpoint",
            "faults-resume-from",
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


class TestFaultsCheckpointCLI:
    ARGS = ["faults", "--family", "delaunay", "--n", "40",
            "--algorithm", "maxis", "--seed", "3"]

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

    def test_corrupt_checkpoint_resume_exits_2(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        assert main(self.ARGS + ["--save-checkpoint", str(ck),
                                 "--checkpoint-every", "4"]) == 0
        capsys.readouterr()
        data = ck.read_bytes()
        ck.write_bytes(data[: len(data) // 2])
        assert main(self.ARGS + ["--resume-from", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err and "Traceback" not in err

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

    def test_diff_wrong_kind_snapshot_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "kind.json"
        bad.write_text('{"kind": "something-else", "schema": 1}')
        assert main(["obs", "diff", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "kind.json" in err and "Traceback" not in err
