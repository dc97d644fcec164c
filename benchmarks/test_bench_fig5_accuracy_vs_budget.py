"""Fig. 5 — average accuracy vs energy budget ratio β, four methods.

Paper: n = 100 uniform tasks (θ = 0.1), m = 2, ρ = 1.0, β ∈ [0.1, 1.0].
Expected: APPROX ≈ UB ≫ EDF-3Levels ≫ EDF-NoCompression under tight
budgets, all converging to a_max at β = 1.
"""

from repro.experiments import Fig5Config, run_fig5
from repro.workloads.generator import PAPER_A_MAX

from benchkit import PAPER_SCALE, run_once

CONFIG = Fig5Config() if PAPER_SCALE else Fig5Config(n=60, repetitions=4)


def test_fig5_accuracy_vs_budget(benchmark, save_table):
    table = run_once(benchmark, lambda: run_fig5(CONFIG))
    save_table("fig5_accuracy_vs_budget", table)

    rows = table.as_dicts()
    for row in rows:
        # UB dominates, APPROX is near-optimal
        assert row["DSCT-EA-UB"] >= row["DSCT-EA-APPROX"] - 1e-9
        assert row["DSCT-EA-APPROX"] >= row["DSCT-EA-UB"] - 0.05
    tight = [r for r in rows if r["beta"] <= 0.5]
    for row in tight:
        assert row["DSCT-EA-APPROX"] > row["EDF-3COMPRESSIONLEVELS"]
        assert row["EDF-3COMPRESSIONLEVELS"] > row["EDF-NOCOMPRESSION"]
    # convergence at β = 1 (paper: all methods reach a_max)
    full = rows[-1]
    assert full["beta"] == 1.0
    for col in ("DSCT-EA-UB", "DSCT-EA-APPROX", "EDF-3COMPRESSIONLEVELS", "EDF-NOCOMPRESSION"):
        assert full[col] > PAPER_A_MAX - 0.05
    # accuracy grows with budget for APPROX
    approx = [r["DSCT-EA-APPROX"] for r in rows]
    assert approx[0] < approx[-1]
