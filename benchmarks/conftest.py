"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure: it runs the
experiment driver once inside ``benchmark.pedantic`` (so pytest-benchmark
reports the wall-clock of the full reproduction), prints the same
rows/series the paper reports, and archives the formatted table under
``benchmarks/output/``.

``PAPER_SCALE`` and ``run_once`` live in ``benchkit.py``; set
``REPRO_PAPER_SCALE=1`` to run the sweeps at the full published
parameters.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.records import ResultTable

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture
def save_table():
    """Print a ResultTable and archive it under benchmarks/output/."""

    def _save(name: str, table: ResultTable) -> None:
        text = table.format()
        print()
        print(text)
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        table.to_csv(OUTPUT_DIR / f"{name}.csv")

    return _save


def pytest_addoption(parser):
    parser.addoption(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="collect telemetry across the benchmark run and export it here "
        "(.jsonl/.prom); each test becomes one trace named after it",
    )


@pytest.fixture(scope="session")
def _bench_metrics_registry(request):
    """One shared registry for the whole benchmark session (opt-in)."""
    path = request.config.getoption("--metrics-out")
    if path is None:
        yield None
        return
    from repro.telemetry import MetricsRegistry, export_file

    registry = MetricsRegistry()
    yield registry
    out = export_file(registry, path)
    print(f"\nbenchmark telemetry written to {out}")


@pytest.fixture(autouse=True)
def _bench_collect(request, _bench_metrics_registry):
    """Activate the registry per test, each test under its own trace."""
    if _bench_metrics_registry is None:
        yield
        return
    from repro.observe import start_trace
    from repro.telemetry import collector

    with collector(_bench_metrics_registry), start_trace(request.node.name):
        yield
