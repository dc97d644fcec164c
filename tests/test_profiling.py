"""Tests for repro.profile: phase attribution, the profiling bench, gates."""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.profile import hottest_phases, merge_phase_breakdowns, phase_breakdown
from repro.profile.bench import run_profile_bench
from repro.telemetry import MetricsRegistry

REPO_ROOT = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


# -- phase attribution ----------------------------------------------------------


class TestPhaseBreakdown:
    def build_registry(self):
        registry = MetricsRegistry()
        with registry.span("root"):
            time.sleep(0.02)
            with registry.span("child.a"):
                time.sleep(0.02)
            with registry.span("child.b"):
                time.sleep(0.02)
        return registry

    def test_self_seconds_partition_root_total(self):
        registry = self.build_registry()
        snapshot = registry.snapshot()
        breakdown = phase_breakdown(snapshot)
        assert set(breakdown) == {"root", "child.a", "child.b"}
        root_total = breakdown["root"]["total_seconds"]
        self_sum = sum(entry["self_seconds"] for entry in breakdown.values())
        assert self_sum == pytest.approx(root_total, rel=1e-6)
        # A leaf's self time is its whole duration.
        assert breakdown["child.a"]["self_seconds"] == pytest.approx(
            breakdown["child.a"]["total_seconds"]
        )

    def test_open_spans_are_excluded(self):
        registry = MetricsRegistry()
        span = registry.span("never.closed")
        span.__enter__()
        assert phase_breakdown(registry.snapshot()) == {}

    def test_merge_and_hottest(self):
        one = {"a": {"count": 1, "total_seconds": 1.0, "self_seconds": 1.0}}
        two = {
            "a": {"count": 2, "total_seconds": 3.0, "self_seconds": 2.0},
            "b": {"count": 1, "total_seconds": 9.0, "self_seconds": 9.0},
        }
        merged = merge_phase_breakdowns([one, two])
        assert merged["a"] == {"count": 3, "total_seconds": 4.0, "self_seconds": 3.0}
        ranked = hottest_phases(merged, n=1)
        assert [name for name, _ in ranked] == ["b"]
        # Ties break alphabetically so output is deterministic.
        tied = {"z": {"self_seconds": 1.0}, "a": {"self_seconds": 1.0}}
        assert [name for name, _ in hottest_phases(tied)] == ["a", "z"]


# -- the profiling benchmark ----------------------------------------------------


class TestProfileBench:
    def test_report_structure_and_artifacts(self, tmp_path):
        out = tmp_path / "report.json"
        report = run_profile_bench(out=str(out), repeats=1)
        assert set(report["budgets"])  # at least one gated phase share
        for key, share in report["budgets"].items():
            assert "/" in key and 0.0 <= share <= 1.0 + 1e-9
        assert report["solve"]["paths"] == ["fractional", "lp", "rounding"]
        assert json.loads(out.read_text())["meta"]["repeats"] == 1

    def test_committed_baseline_meets_acceptance_bars(self):
        """The committed BENCH_profile.json is itself a valid, passing report."""
        report = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_profile.json").read_text()
        )
        assert report["solve"]["coverage"] >= 0.9
        paths = {key.split("/", 1)[0] for key in report["budgets"]}
        assert {"fractional", "lp", "rounding", "planner"} <= paths
        # Shares per path stay a partition of the root-span time.
        for path, doc in report["paths"].items():
            total = sum(entry["share"] for entry in doc["phases"].values())
            assert total <= 1.0 + 1e-6, (path, total)


# -- the --profile regression gate ----------------------------------------------


class TestProfileGate:
    def write_reports(self, tmp_path, *, base_share, cur_share, coverage=0.95,
                      extra_current=None):
        baseline = {"budgets": {"fractional/solve.approx": base_share}}
        current = {
            "budgets": {"fractional/solve.approx": cur_share, **(extra_current or {})},
            "solve": {"coverage": coverage},
        }
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "current.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        return str(cur_path), str(base_path)

    def test_within_budget_passes(self, tmp_path, capsys):
        cur, base = self.write_reports(tmp_path, base_share=0.5, cur_share=0.55)
        assert check_regression.check_profile(cur, base, 1.25) == 0
        assert "profile gate passed" in capsys.readouterr().out

    def test_share_regression_fails(self, tmp_path, capsys):
        cur, base = self.write_reports(tmp_path, base_share=0.4, cur_share=0.6)
        assert check_regression.check_profile(cur, base, 1.25) == 1
        assert "PROFILE GATE" in capsys.readouterr().err

    def test_small_shares_never_gate(self, tmp_path, capsys):
        # 2% -> 4% is a 2x ratio but below the 5% gating floor.
        cur, base = self.write_reports(tmp_path, base_share=0.02, cur_share=0.04)
        assert check_regression.check_profile(cur, base, 1.25) == 0
        assert "below floor (ungated)" in capsys.readouterr().out

    def test_new_phases_report_but_never_gate(self, tmp_path, capsys):
        cur, base = self.write_reports(
            tmp_path, base_share=0.5, cur_share=0.5,
            extra_current={"fractional/brand.new": 0.9},
        )
        assert check_regression.check_profile(cur, base, 1.25) == 0
        assert "new (ungated)" in capsys.readouterr().out

    def test_coverage_collapse_fails(self, tmp_path, capsys):
        cur, base = self.write_reports(
            tmp_path, base_share=0.5, cur_share=0.5, coverage=0.5
        )
        assert check_regression.check_profile(cur, base, 1.25) == 1
        assert "coverage" in capsys.readouterr().err

    def test_cli_wires_profile_flag(self, tmp_path, capsys):
        cur, base = self.write_reports(tmp_path, base_share=0.5, cur_share=0.5)
        assert check_regression.main(
            ["--profile", cur, "--profile-baseline", base]
        ) == 0
        capsys.readouterr()
