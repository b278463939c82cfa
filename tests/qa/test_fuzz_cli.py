"""The ``repro fuzz`` entry point: campaign and replay modes, exit codes."""

from pathlib import Path

from repro.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "data" / "qa_corpus"


class TestCampaignMode:
    def test_green_campaign_exits_zero(self, capsys):
        rc = main(["fuzz", "--seed", "0", "--iters", "8", "--paths", "roundtrip"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FUZZ PASSED" in out
        assert "iterations=8/8" in out

    def test_paths_flag_restricts_oracles(self, capsys):
        main(["fuzz", "--seed", "0", "--iters", "4",
              "--paths", "roundtrip", "--paths", "random_access"])
        out = capsys.readouterr().out
        assert "chunked" not in out.split("oracles:")[1].splitlines()[0]

    def test_time_budget_flag(self, capsys):
        rc = main(["fuzz", "--seed", "0", "--iters", "100000",
                   "--time-budget", "1"])
        assert rc == 0
        assert "stopped early" in capsys.readouterr().out


class TestReplayMode:
    def test_replay_committed_corpus_green(self, capsys):
        rc = main(["fuzz", "--replay", str(CORPUS)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "0 failing entries" in out

    def test_replay_single_file(self, capsys):
        entry = next(CORPUS.glob("*.npz"))
        rc = main(["fuzz", "--replay", str(entry)])
        assert rc == 0
        assert f"PASS {entry}" in capsys.readouterr().out

    def test_replay_empty_or_missing_dir(self, tmp_path, capsys):
        rc = main(["fuzz", "--replay", str(tmp_path / "nothing-here")])
        assert rc == 0
        assert "no corpus entries" in capsys.readouterr().out
