"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.scheduler == "approx"
        assert args.tasks == 50


class TestCommands:
    def test_schedulers(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "approx" in out and "mip" in out
        # neither the GA baseline nor the consolidation wrapper is registered
        assert "genetic" not in out and "consolidated" not in out

    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        assert "GPU" in capsys.readouterr().out

    def test_solve_small(self, capsys):
        code = main(["solve", "-n", "6", "-m", "2", "--beta", "0.4", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean accuracy" in out
        assert "feasible" in out

    def test_solve_with_gantt_and_idle(self, capsys):
        code = main(
            ["solve", "-n", "4", "-m", "2", "--gantt", "--idle-fraction", "0.2", "--seed", "1"]
        )
        assert code == 0
        assert "|" in capsys.readouterr().out  # gantt rows

    def test_solve_alternative_scheduler(self, capsys):
        assert main(["solve", "-n", "5", "-m", "2", "--scheduler", "edf-nocompression"]) == 0
        assert "EDF-NOCOMPRESSION" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            ["compare", "-n", "8", "-m", "2", "--schedulers", "approx", "edf-nocompression"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DSCT-EA-APPROX" in out and "EDF-NOCOMPRESSION" in out

    def test_figures_fig1(self, capsys, tmp_path):
        code = main(["figures", "fig1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()

    def test_figures_unknown(self, capsys):
        assert main(["figures", "figZZ"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figures_table1_small(self, capsys):
        # patched-down config would be slow; use fig2 (fast) instead of table1 here
        assert main(["figures", "fig2"]) == 0
        assert "OFA accuracy" in capsys.readouterr().out


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code = main(["validate", "--instances", "5", "--seed", "1"])
        assert code == 0
        assert "worst relative gap" in capsys.readouterr().out


class TestSaveLoad:
    def test_save_then_load_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        assert main(["solve", "-n", "5", "-m", "2", "--save", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["solve", "--load", str(path)]) == 0
        assert "mean accuracy" in capsys.readouterr().out
