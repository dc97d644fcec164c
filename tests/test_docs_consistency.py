"""Documentation consistency: the docs must track the code.

These guards keep README/DESIGN/EXPERIMENTS honest as the code evolves:
referenced files must exist, the experiment index must name real
modules, and the API reference must be regenerable.
"""

import re
from pathlib import Path


ROOT = Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestRepositoryLayout:
    def test_required_documents_exist(self):
        for name in (
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CHANGELOG.md",
            "CONTRIBUTING.md",
            "CITATION.cff",
            "docs/architecture.md",
            "docs/algorithms.md",
            "docs/experiments.md",
            "docs/extending.md",
            "docs/tutorial.md",
            "docs/faq.md",
            "docs/api.md",
        ):
            assert (ROOT / name).exists(), name

    def test_examples_referenced_in_readme_exist(self):
        readme = read("README.md")
        for match in re.findall(r"`examples/([\w_]+\.py)`", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_all_examples_are_documented(self):
        readme = read("README.md")
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} missing from README examples table"

    def test_design_experiment_index_names_real_benches(self):
        design = read("DESIGN.md")
        for match in re.findall(r"`benchmarks/(test_bench_[\w]+\.py)`", design):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_design_modules_exist(self):
        design = read("DESIGN.md")
        for match in set(re.findall(r"`repro\.([\w.]+)`", design)):
            parts = match.split(".")
            base = ROOT / "src" / "repro"
            candidates = [
                base.joinpath(*parts).with_suffix(".py"),
                base.joinpath(*parts) / "__init__.py",
            ]
            # entries like `repro.experiments.fig3_optimality_gap` or
            # attribute references like `repro.core.instance.ProblemInstance.rho`
            # — accept if any prefix resolves to a module
            ok = any(c.exists() for c in candidates)
            if not ok and len(parts) > 1:
                for cut in range(len(parts) - 1, 0, -1):
                    prefix = parts[:cut]
                    if (
                        base.joinpath(*prefix).with_suffix(".py").exists()
                        or (base.joinpath(*prefix) / "__init__.py").exists()
                    ):
                        ok = True
                        break
            assert ok, f"repro.{match} referenced in DESIGN.md but not found"


class TestApiReference:
    def test_api_doc_fresh_enough(self):
        """api.md must mention every public subpackage's key export."""
        api = read("docs/api.md")
        for name in (
            "ApproxScheduler",
            "FractionalScheduler",
            "ClusterSimulator",
            "OnlineSimulation",
            "RollingHorizonPlanner",
            "AdaptiveBudgetPlanner",
            "run_method_matrix",
            "run_theta_sensitivity",
        ):
            assert name in api, f"{name} missing from docs/api.md — rerun docs/generate_api.py"

    def test_experiments_docstring_lists_all_run_drivers(self):
        import repro.experiments as exp

        doc = exp.__doc__ or ""
        drivers = [name for name in exp.__all__ if name.startswith("run_")]
        for name in drivers:
            assert name in doc, f"{name} missing from repro.experiments docstring table"
