"""Ablation benches for the design choices DESIGN.md calls out.

Not paper artefacts, but they regenerate the evidence behind three
implementation decisions: RefineProfile's value, the K = 5 segment
choice, and the busy-power-only energy model.
"""

from repro.experiments import (
    AblationConfig,
    run_idle_power_ablation,
    run_refine_ablation,
    run_segments_ablation,
)

from benchkit import PAPER_SCALE, run_once

CONFIG = AblationConfig(n=100, repetitions=5) if PAPER_SCALE else AblationConfig(n=50, repetitions=3)


def test_ablation_refine_profile(benchmark, save_table):
    table = run_once(benchmark, lambda: run_refine_ablation(CONFIG))
    save_table("ablation_refine_profile", table)

    rows = table.as_dicts()
    assert all(r["frac_gain_points"] >= -1e-6 for r in rows)
    earliest = [r for r in rows if r["scenario"] == "earliest"]
    # the skewed mix is exactly where refinement pays (Fig. 6b's story)
    assert max(r["frac_gain_points"] for r in earliest) > 0.1


def test_ablation_segment_count(benchmark, save_table):
    table = run_once(benchmark, lambda: run_segments_ablation(CONFIG))
    save_table("ablation_segments", table)

    rows = table.as_dicts()
    by_k = {r["K"]: r["approx_mean_acc"] for r in rows}
    # K = 5 captures nearly everything K = 12 does
    assert by_k[5] >= by_k[12] - 0.02
    # a single segment is measurably worse
    assert by_k[1] <= by_k[5] + 1e-9


def test_ablation_idle_power(benchmark, save_table):
    table = run_once(benchmark, lambda: run_idle_power_ablation(CONFIG))
    save_table("ablation_idle_power", table)

    rows = table.as_dicts()
    savings = [r["saving_pct"] for r in rows]
    # idle power monotonically erodes the saving but never erases it
    assert savings == sorted(savings, reverse=True)
    assert savings[-1] > 0


def test_ablation_rho_sweep(benchmark, save_table):
    from repro.experiments import run_rho_sweep

    table = run_once(benchmark, lambda: run_rho_sweep(CONFIG))
    save_table("ablation_rho_sweep", table)

    rows = table.as_dicts()
    approx = [r["approx_acc"] for r in rows]
    # loosening deadlines never hurts (same β, same tasks distributionally)
    assert approx[-1] > approx[0]
    # and the UB dominates APPROX everywhere
    assert all(r["ub_acc"] >= r["approx_acc"] - 1e-9 for r in rows)
