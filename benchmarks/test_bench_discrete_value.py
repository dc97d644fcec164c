"""Ablation bench (extension): continuous vs discrete compression value."""

from repro.experiments import DiscreteValueConfig, run_discrete_value

from benchkit import PAPER_SCALE, run_once

CONFIG = (
    DiscreteValueConfig(n=30, repetitions=3, time_limit=30.0)
    if PAPER_SCALE
    else DiscreteValueConfig(n=15, repetitions=2, time_limit=10.0)
)


def test_discrete_value(benchmark, save_table):
    table = run_once(benchmark, lambda: run_discrete_value(CONFIG))
    save_table("ablation_discrete_value", table)

    for row in table.as_dicts():
        # sandwich: UB >= APPROX and UB >= discrete-MIP >= EDF heuristic
        assert row["continuous_ub"] >= row["approx"] - 1e-9
        assert row["continuous_ub"] >= row["discrete_mip"] - 1e-6
        assert row["discrete_mip"] >= row["edf_3levels"] - 1e-6
        # the paper's point: the discrete *model* itself leaves accuracy
        # on the table under tight budgets
        if row["beta"] <= 0.4:
            assert row["modelling_gap_pts"] > 0.5
