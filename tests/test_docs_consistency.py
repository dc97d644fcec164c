"""Documentation consistency: the docs must track the code.

These guards keep README/DESIGN/EXPERIMENTS honest as the code evolves:
referenced files must exist, the experiment index must name real
modules, and the API reference must be regenerable.
"""

import importlib
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
        """Every backticked `repro.a.b.Name` in the prose docs names live code.

        The longest importable prefix is imported as a module and the rest
        resolved as attributes, so a deleted module, class or method fails
        here instead of lingering in the docs.  ``docs/api.md`` is generated
        from the code and exempt.
        """
        documents = ["DESIGN.md", "README.md", "EXPERIMENTS.md"] + sorted(
            str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md") if path.name != "api.md"
        )
        unresolved = []
        for name in documents:
            for ref in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", read(name)))):
                if not _resolves(ref):
                    unresolved.append(f"{name}: {ref}")
        assert not unresolved, "stale references: " + ", ".join(unresolved)


def _resolves(ref: str) -> bool:
    """Import the longest module prefix of ``ref``, then walk the attributes."""
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is None or not module_name.startswith(exc.name):
                raise  # the module exists but a dependency of it is missing
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


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
