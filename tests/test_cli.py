"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_most_defaults(self):
        args = build_parser().parse_args(["most", "dry"])
        assert args.scenario == "dry"
        assert args.steps == 1500
        assert args.plot is False

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["most", "warp-speed"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "NEESgrid/MOST reproduction" in out
        assert "repro.core" in out

    def test_most_dry_short(self, capsys):
        assert main(["most", "dry", "--steps", "40"]) == 0
        out = capsys.readouterr().out
        assert "39/39 steps, completed" in out
        assert "data files archived" in out

    def test_most_public_exits_zero_with_premature_exit(self, capsys):
        # the public run's premature exit is the expected outcome
        assert main(["most", "public", "--steps", "60"]) == 0
        out = capsys.readouterr().out
        assert "exited prematurely" in out

    def test_most_plot_sparkline(self, capsys):
        main(["most", "dry", "--steps", "40", "--plot"])
        out = capsys.readouterr().out
        assert "roof drift" in out
        assert any(c in out for c in "▁▂▃▄▅▆▇█")

    def test_mini_most(self, capsys):
        assert main(["mini-most", "--steps", "50"]) == 0
        out = capsys.readouterr().out
        assert "stepper rig" in out
        assert "motor steps moved" in out

    def test_mini_most_kinetic(self, capsys):
        assert main(["mini-most", "--steps", "50", "--kinetic"]) == 0
        assert "kinetic simulator" in capsys.readouterr().out

    def test_followon_soil(self, capsys):
        assert main(["followon", "soil-structure", "--steps", "30"]) == 0
        assert "CD-36" in capsys.readouterr().out

    def test_followon_robot(self, capsys):
        assert main(["followon", "robot"]) == 0
        out = capsys.readouterr().out
        assert "after-shaking" in out

    def test_followon_six_dof(self, capsys):
        assert main(["followon", "six-dof"]) == 0
        assert "stills captured" in capsys.readouterr().out

    def test_followon_field_test(self, capsys):
        assert main(["followon", "field-test"]) == 0
        out = capsys.readouterr().out
        assert "wifi loss" in out and "satellite" in out


class TestObservatoryCommands:
    def test_observatory_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["observatory"])

    def test_query_defaults(self):
        args = build_parser().parse_args(
            ["observatory", "query", "a.b.c"])
        assert args.metric == "a.b.c"
        assert args.tier == "auto" and args.store == "observatory.json"

    def test_run_then_query_then_no_postmortem(self, tmp_path, capsys):
        store = tmp_path / "obs.json"
        assert main(["observatory", "run", "--steps", "40",
                     "--out", str(store)]) == 0
        out = capsys.readouterr().out
        assert "series stored" in out
        assert "SLO step-latency-p95" in out
        assert "flight snapshots    : 0" in out
        assert main(["observatory", "query",
                     "coordinator.mspsds.step_time", "--store", str(store),
                     "--label", "stat=p95", "--agg", "max"]) == 0
        out = capsys.readouterr().out
        assert "coordinator.mspsds.step_time" in out and "max=" in out
        # a clean run has no black box to render
        assert main(["observatory", "postmortem", "most-obs",
                     "--store", str(store)]) == 1
        assert "no flight snapshot" in capsys.readouterr().err

    def test_abort_run_renders_a_postmortem(self, tmp_path, capsys):
        store = tmp_path / "obs.json"
        assert main(["observatory", "run", "boom", "--steps", "40",
                     "--abort", "--out", str(store)]) == 0
        capsys.readouterr()
        assert main(["observatory", "postmortem", "boom",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "POSTMORTEM  run=boom  reason=abort" in out
        assert "uiuc" in out

    def test_query_json_document_and_bad_label(self, tmp_path, capsys):
        import json

        store = tmp_path / "obs.json"
        main(["observatory", "run", "--steps", "40", "--out", str(store)])
        capsys.readouterr()
        assert main(["observatory", "query",
                     "coordinator.mspsds.step_time", "--store", str(store),
                     "--agg", "quantile", "--quantile", "50", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "query_result"
        assert doc["aggregate"]["op"] == "quantile"
        assert main(["observatory", "query", "a.b.c", "--store", str(store),
                     "--label", "nonsense"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_show_points_prints_at_most_that_many_points(self, tmp_path,
                                                         capsys):
        store = tmp_path / "obs.json"
        main(["observatory", "run", "--steps", "40", "--out", str(store)])
        capsys.readouterr()
        for shown, printed in ((0, 0), (1, 1), (5, 3)):
            assert main(["observatory", "query",
                         "coordinator.mspsds.step_time", "--store",
                         str(store), "--label", "stat=p95",
                         "--show-points", str(shown)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert "3 points" in lines[1]
            assert len(lines) == 2 + printed

    @pytest.mark.parametrize("command", [
        ["query", "coordinator.mspsds.step_time", "--show-points", "-1"],
        ["postmortem", "boom", "--last-steps", "-1"],
    ], ids=["show-points", "last-steps"])
    def test_a_negative_count_is_the_typed_error(self, tmp_path, capsys,
                                                 command):
        store = tmp_path / "obs.json"
        main(["observatory", "run", "boom", "--steps", "40", "--abort",
              "--out", str(store)])
        capsys.readouterr()
        assert main(["observatory", *command, "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {command[-2]} must be at least 0, "
                                f"got -1\n")
        assert not captured.out

    @pytest.mark.parametrize("command, content", [
        (["query", "a.b.c"], b'{"schema": '),
        (["postmortem", "r"], b'\xff\xfe{"seq":1}\n'),
    ], ids=["torn", "not-utf8"])
    def test_an_unreadable_dump_is_the_typed_error(self, tmp_path, capsys,
                                                   command, content):
        store = tmp_path / "obs.json"
        store.write_bytes(content)
        assert main(["observatory", *command, "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {store}: not a JSON dump")
        assert captured.err.count("\n") == 1 and not captured.out


class TestQueueCommands:
    def test_queue_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["queue"])

    def test_submit_defaults(self):
        args = build_parser().parse_args(["queue", "submit", "exp-1"])
        assert args.submission_id == "exp-1"
        assert args.journal == "queue.jsonl" and args.tenant == "cli"
        assert args.steps == 25 and args.checkpoint_every == 5

    def test_drain_defaults(self):
        args = build_parser().parse_args(["queue", "drain"])
        assert args.sites == 4 and args.takeover_delay == 30.0
        assert args.crash_after is None

    def test_submit_status_drain_round_trip(self, tmp_path, capsys):
        journal = str(tmp_path / "q.jsonl")
        assert main(["queue", "submit", "exp-1", "--journal", journal,
                     "--steps", "10", "--checkpoint-every", "4"]) == 0
        assert "queued exp-1" in capsys.readouterr().out
        # resubmission of the same id is absorbed, not re-journaled
        assert main(["queue", "submit", "exp-1", "--journal", journal]) == 0
        assert "deduped: exp-1 already journaled" in capsys.readouterr().out
        assert main(["queue", "status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "submitted           : 1" in out and "unclaimed" in out
        assert main(["queue", "drain", "--journal", journal,
                     "--sites", "2"]) == 0
        out = capsys.readouterr().out
        assert "completed           : 1/1" in out
        # a fresh CLI process replaying the journal sees the terminal
        assert main(["queue", "status", "--journal", journal,
                     "--json"]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] == 1 and doc["outstanding"] == 0
        assert doc["outstanding_submissions"] == []

    def test_drain_with_a_crash_recovers_across_epochs(self, tmp_path,
                                                       capsys):
        journal = str(tmp_path / "q.jsonl")
        for i in range(4):
            main(["queue", "submit", f"exp-{i}", "--journal", journal,
                  "--steps", "10", "--checkpoint-every", "4"])
        capsys.readouterr()
        assert main(["queue", "drain", "--journal", journal, "--sites", "2",
                     "--crash-after", "2.0", "--takeover-delay", "8.0"]) == 0
        out = capsys.readouterr().out
        assert "completed           : 4/4" in out
        assert "incarnations        : 2 (final epoch 2)" in out
        assert "duplicate executes  : 0" in out

    def test_a_journal_that_is_not_utf8_is_the_typed_error(self, tmp_path,
                                                           capsys):
        journal = tmp_path / "bad.jsonl"
        journal.write_bytes(b'\xff\xfe{"seq":1}\n')
        assert main(["queue", "status", "--journal", str(journal)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {journal}: journal is not "
                                       "UTF-8")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_a_second_submission_under_a_journaled_run_id_is_refused(
            self, tmp_path, capsys):
        journal = str(tmp_path / "q.jsonl")
        assert main(["queue", "submit", "a", "--run-id", "shared",
                     "--steps", "8", "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["queue", "submit", "b", "--run-id", "shared",
                     "--steps", "8", "--motion-scale", "1.25",
                     "--journal", journal]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run id 'shared' is already "
                                       "journaled by submission 'a'")
        assert main(["queue", "drain", "--journal", journal,
                     "--sites", "1"]) == 0
        out = capsys.readouterr().out
        assert "completed           : 1/1" in out
        assert "duplicate executes  : 0" in out

    def test_a_submission_no_pool_can_grant_fails_and_the_drain_goes_on(
            self, tmp_path, capsys):
        journal = str(tmp_path / "q.jsonl")
        assert main(["queue", "submit", "big", "--sites-per-lease", "9",
                     "--journal", journal]) == 0
        assert main(["queue", "submit", "ok1", "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["queue", "drain", "--journal", journal,
                     "--sites", "4"]) == 0
        out = capsys.readouterr().out
        assert "completed           : 1/2 (1 failed, 0 still outstanding)" \
            in out
        assert main(["queue", "status", "--journal", journal]) == 0
        assert "outstanding         : 0" in capsys.readouterr().out

    def test_a_non_finite_motion_scale_is_refused_at_submit(self, tmp_path,
                                                            capsys):
        journal = tmp_path / "q.jsonl"
        assert main(["queue", "submit", "s1", "--motion-scale", "inf",
                     "--journal", str(journal)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: $.body.motion_scale: must be "
                                "finite\n")
        assert not journal.exists()


@pytest.mark.parametrize("argv", [
    ["most", "dry", "--steps", "0"],
    ["resume", "--steps", "0"],
    ["chaos", "1", "--steps", "0"],
    ["mini-most", "--steps", "0"],
    ["followon", "soil-structure", "--steps", "0"],
    ["fleet", "--sites", "0"],
    ["fleet", "--tenants", "0"],
    ["fleet", "--runs", "0"],
    ["queue", "drain", "--sites", "0"],
])
def test_an_empty_run_or_pool_is_a_configuration_error(argv, tmp_path,
                                                        capsys):
    if argv[0] == "queue":
        argv = argv + ["--journal", str(tmp_path / "q.jsonl")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: a ")
    assert "needs at least one" in captured.err
    assert captured.err.count("\n") == 1
