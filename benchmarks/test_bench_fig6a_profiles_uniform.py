"""Fig. 6a — energy profiles vs β, Uniform Tasks.

Expected: the final profile computed by DSCT-EA-APPROX stays close to
the naive profile (most-efficient machine funded first).
"""

from repro.experiments import Fig6Config, run_fig6

from benchkit import PAPER_SCALE, run_once

CONFIG = Fig6Config() if PAPER_SCALE else Fig6Config(n=60, repetitions=3)


def test_fig6a_profiles_uniform(benchmark, save_table):
    table = run_once(benchmark, lambda: run_fig6("uniform", CONFIG))
    save_table("fig6a_profiles_uniform", table)

    for row in table.as_dicts():
        # machine 1 (efficient) carries the naive-profile share or less
        assert row["profile_m1_s"] <= row["naive_m1_s"] + 1e-6
        # profiles never exceed the horizon
        assert row["profile_m1_s"] <= row["d_max_s"] * (1 + 1e-9)
        assert row["profile_m2_s"] <= row["d_max_s"] * (1 + 1e-9)
    # profiles grow with the budget
    rows = table.as_dicts()
    totals = [r["profile_m1_s"] + r["profile_m2_s"] for r in rows]
    assert totals[0] < totals[-1]
