"""Robustness benches (extension): failure injection on APPROX plans."""

from repro.experiments.robustness import (
    RobustnessConfig,
    run_outage_sweep,
    run_slowdown_sweep,
)

from benchkit import PAPER_SCALE, run_once

CONFIG = RobustnessConfig(n=100, repetitions=5) if PAPER_SCALE else RobustnessConfig(n=40, repetitions=3)


def test_outage_robustness(benchmark, save_table):
    table = run_once(benchmark, lambda: run_outage_sweep(CONFIG))
    save_table("robustness_outage", table)

    rows = table.as_dicts()
    retained = [r["accuracy_retained_pct"] for r in rows]
    # a later outage can only help (graceful degradation)
    assert retained == sorted(retained)
    # no-failure endpoint retains everything
    assert retained[-1] > 99.9
    # even an immediate outage of one machine keeps a useful share
    assert retained[0] > 15.0


def test_slowdown_robustness(benchmark, save_table):
    table = run_once(benchmark, lambda: run_slowdown_sweep(CONFIG))
    save_table("robustness_slowdown", table)

    rows = table.as_dicts()
    # heavier throttling causes (weakly) more deadline misses
    misses = [r["deadline_misses"] for r in rows]
    assert misses == sorted(misses)
    assert rows[0]["deadline_misses"] == 0  # full speed: the plan holds
