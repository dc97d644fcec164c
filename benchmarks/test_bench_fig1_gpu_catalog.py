"""Fig. 1 — GPU energy efficiency vs speed (catalog + linear trend)."""

from repro.experiments import run_fig1
from repro.hardware import fit_efficiency_trend

from benchkit import run_once


def test_fig1_gpu_catalog(benchmark, save_table):
    table = run_once(benchmark, run_fig1)
    save_table("fig1_gpu_catalog", table)

    # The paper's observation: efficiency improves linearly with speed.
    slope, intercept = fit_efficiency_trend()
    assert slope > 0
    assert len(table.rows) >= 10
