"""Fig. 6b — energy profiles vs β, Earliest High Efficient Tasks.

Expected (the paper's key qualitative finding): steep early-deadline
tasks are deadline-constrained on the slow efficient machine, so the
refinement moves workload to the fast machine — the final profile
visibly deviates from the naive one at small β.
"""

from repro.experiments import Fig6Config, run_fig6

from benchkit import PAPER_SCALE, run_once

CONFIG = Fig6Config() if PAPER_SCALE else Fig6Config(n=60, repetitions=3)


def test_fig6b_profiles_skewed(benchmark, save_table):
    table = run_once(benchmark, lambda: run_fig6("earliest", CONFIG))
    save_table("fig6b_profiles_skewed", table)

    rows = table.as_dicts()
    small_beta = [r for r in rows if r["beta"] <= 0.4]
    # at small β the fast machine receives clearly more than its naive share
    assert any(r["profile_m2_s"] > r["naive_m2_s"] + 0.02 * r["d_max_s"] for r in small_beta)
    # and the efficient machine gives up part of its naive share
    assert any(r["profile_m1_s"] < r["naive_m1_s"] - 0.02 * r["d_max_s"] for r in small_beta)
