"""Fig. 3 — optimality gap of DSCT-EA-APPROX vs task heterogeneity μ.

Paper: n = 100, m = 5, ρ = 0.35, β = 0.5, 100 repetitions per μ.
Default bench runs a reduced sweep; REPRO_PAPER_SCALE=1 restores the
published parameters.
"""

from repro.experiments import Fig3Config, run_fig3

from benchkit import PAPER_SCALE, run_once

CONFIG = (
    Fig3Config()
    if PAPER_SCALE
    else Fig3Config(mu_values=(5.0, 10.0, 15.0, 20.0), repetitions=8, n=50, m=4)
)


def test_fig3_optimality_gap(benchmark, save_table):
    table = run_once(benchmark, lambda: run_fig3(CONFIG))
    save_table("fig3_optimality_gap", table)

    for row in table.as_dicts():
        # the observed gap sits far below the pessimistic Eq. (14) bound
        assert 0.0 <= row["gap_mean"] <= 0.25 * row["guarantee_G"]
        assert row["gap_min"] <= row["gap_mean"] <= row["gap_max"]
        # and the approximation stays within a few percent of optimal
        assert row["gap_mean_pct_of_ub"] < 15.0
