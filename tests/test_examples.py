"""Every example script must run end to end.

Each example is executed in a subprocess (import side effects included),
guarding the repository's runnable-examples deliverable.  The slowest
script (`paper_figures.py`) is exercised through its `--fast` mode.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "DSCT-EA-APPROX schedule" in out
        assert "deadlines met:     True" in out

    def test_hardware_catalog(self):
        out = run_example("hardware_catalog.py")
        assert "linear trend" in out
        assert "sampled cluster" in out

    def test_renewable_budget(self):
        out = run_example("renewable_budget.py")
        assert "day-average accuracy" in out

    def test_mlaas_online_serving(self):
        out = run_example("mlaas_online_serving.py")
        assert "planned" in out and "measured" in out
        assert "DSCT-EA-APPROX" in out

    @pytest.mark.slow
    def test_paper_figures_fast(self):
        out = run_example("paper_figures.py", "--fast", timeout=600.0)
        assert "HEADLINE" in out
        assert "Fig. 5" in out
