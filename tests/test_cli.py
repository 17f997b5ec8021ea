"""Tests for the command-line front-end (python -m repro)."""

import pytest

from repro.__main__ import main


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "with_variants" in out
        assert "41" in out
        assert "118" in out

    def test_figure1_default_tag(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "p2_latency" in out
        assert "firings" in out

    def test_figure1_untagged(self, capsys):
        assert main(["figure1", "--tag", "none", "--tokens", "4"]) == 0
        out = capsys.readouterr().out
        assert "'p2': 0" in out

    def test_figure3(self, capsys):
        assert main(["figure3", "--variant", "V2", "--tokens", "5"]) == 0
        out = capsys.readouterr().out
        assert "conf_cluster2" in out

    def test_figure4_small(self, capsys):
        assert main(["figure4", "--frames", "40"]) == 0
        out = capsys.readouterr().out
        assert "invalid_frames_displayed" in out
        assert " 0" in out

    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "variant representation" in out

    def test_explore_figure2(self, capsys):
        assert main(["explore"]) == 0
        out = capsys.readouterr().out
        assert "theta1=gamma1" in out
        assert "34" in out
        assert "best selection" in out

    def test_explore_generated_exhaustive(self, capsys):
        assert main(
            ["explore", "--space", "generated", "--variants", "2",
             "--explorer", "exhaustive"]
        ) == 0
        out = capsys.readouterr().out
        assert "theta=var0" in out
        assert "(exhaustive)" in out
        assert "total nodes" in out

    def test_explore_reference_mode(self, capsys):
        assert main(["explore", "--reference", "--no-warm-start"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out

    def test_explore_jobs_matches_sequential(self, capsys):
        assert main(["explore"]) == 0
        sequential = capsys.readouterr().out
        assert main(["explore", "--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        # identical per-selection rows and best/worst lines; only the
        # title (and its ruler line) advertises the jobs count
        assert parallel.splitlines()[2:] == sequential.splitlines()[2:]
        assert "jobs=4" in parallel

    def test_explore_ordering_ablation_matches_default(self, capsys):
        assert main(["explore"]) == 0
        adaptive = capsys.readouterr().out
        assert main(["explore", "--ordering", "static"]) == 0
        static = capsys.readouterr().out
        # same best selection and cost whatever the branching order
        assert "theta1=gamma1" in static
        assert [line for line in static.splitlines()
                if "best selection" in line] == [
            line for line in adaptive.splitlines()
            if "best selection" in line
        ]

    def test_explore_share_incumbent(self, capsys):
        assert main(["explore", "--share-incumbent"]) == 0
        out = capsys.readouterr().out
        assert "theta1=gamma1" in out
        assert "34" in out

    @pytest.mark.parametrize("name", ["annealing", "portfolio", "racing"])
    def test_removed_explorers_rejected(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--explorer", name])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--jobs", "jobs must be >= 1"),
            ("--lineage-size", "lineage_size must be >= 1"),
            ("--max-open", "max_open must be"),
        ],
    )
    def test_library_validation_error_is_a_clean_exit(
        self, flag, message, capsys
    ):
        assert main(["explore", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
