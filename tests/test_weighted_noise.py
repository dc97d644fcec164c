"""Duration-noise replay and the API doc generator."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import ApproxScheduler
from repro.simulator import replay_with_duration_noise
from repro.utils.errors import ValidationError

from conftest import make_instance


class TestDurationNoise:
    @pytest.fixture(scope="class")
    def case(self):
        inst = make_instance(n=10, m=2, beta=0.7, rho=0.6, seed=420)
        return inst, ApproxScheduler().solve(inst)

    def test_zero_sigma_matches_nominal(self, case):
        inst, sched = case
        report = replay_with_duration_noise(inst, sched, sigma=0.0)
        assert report.total_accuracy == pytest.approx(sched.total_accuracy, rel=1e-9)
        assert not report.deadline_misses

    def test_accuracy_preserved_under_noise(self, case):
        inst, sched = case
        report = replay_with_duration_noise(inst, sched, sigma=0.3, seed=1)
        assert report.total_accuracy == pytest.approx(sched.total_accuracy, rel=1e-9)

    def test_noise_causes_misses_on_tight_plans(self):
        inst = make_instance(n=12, m=2, beta=1.0, rho=0.3, seed=421)
        sched = ApproxScheduler().solve(inst)
        miss_counts = [
            len(replay_with_duration_noise(inst, sched, sigma=0.4, seed=s).deadline_misses)
            for s in range(8)
        ]
        assert max(miss_counts) > 0

    def test_reproducible(self, case):
        inst, sched = case
        a = replay_with_duration_noise(inst, sched, sigma=0.2, seed=7)
        b = replay_with_duration_noise(inst, sched, sigma=0.2, seed=7)
        assert np.allclose(a.task_completion, b.task_completion)

    def test_rejects_negative_sigma(self, case):
        inst, sched = case
        with pytest.raises(ValidationError):
            replay_with_duration_noise(inst, sched, sigma=-0.1)


class TestApiGenerator:
    def test_generates_and_mentions_key_names(self, tmp_path):
        script = Path(__file__).parent.parent / "docs" / "generate_api.py"
        # write to a temp file so the checked-in api.md is untouched
        target = tmp_path / "api.md"
        out = subprocess.run(
            [sys.executable, str(script), str(target)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        api = target.read_text()
        for name in ("ApproxScheduler", "solve_fractional", "ClusterSimulator", "run_fig5"):
            assert name in api
        # deterministic: no object addresses leak into signatures
        assert " at 0x" not in api
