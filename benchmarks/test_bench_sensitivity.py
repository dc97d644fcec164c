"""Sensitivity bench (extension): planning on misestimated θ."""

from repro.experiments import SensitivityConfig, run_theta_sensitivity

from benchkit import PAPER_SCALE, run_once

CONFIG = (
    SensitivityConfig(n=100, repetitions=6)
    if PAPER_SCALE
    else SensitivityConfig(n=40, repetitions=3)
)


def test_theta_sensitivity(benchmark, save_table):
    table = run_once(benchmark, lambda: run_theta_sensitivity(CONFIG))
    save_table("sensitivity_theta", table)

    rows = table.as_dicts()
    retained = [r["retained_pct"] for r in rows]
    # perfect information retains everything (same instances every row)
    assert retained[0] == 100.0
    # heavy noise costs accuracy (APPROX's rounding noise allows small
    # non-monotonic wiggles at low σ, so compare endpoints only)
    assert retained[-1] <= retained[0] + 0.5
    # even σ = 0.5 (±65% typical misestimation) keeps the plan useful
    assert retained[-1] > 80.0
