"""Fig. 4a — runtime vs number of tasks: DSCT-EA-APPROX vs exact MIP.

Paper: n from 10 to 500 at m = 5, 10 instances per point, 60 s solver
limit; the solver starts timing out at n ≈ 30 while APPROX scales to
hundreds of tasks.
"""

from repro.experiments import Fig4Config, run_fig4_tasks

from benchkit import PAPER_SCALE, run_once

CONFIG = (
    Fig4Config()
    if PAPER_SCALE
    else Fig4Config(task_counts=(10, 20, 30, 50), fixed_m=4, repetitions=2, time_limit=10.0)
)


def test_fig4a_runtime_vs_tasks(benchmark, save_table):
    table = run_once(benchmark, lambda: run_fig4_tasks(CONFIG))
    save_table("fig4a_runtime_tasks", table)

    rows = table.as_dicts()
    # APPROX handles the largest instances well under the solver limit
    assert all(r["approx_mean_s"] < CONFIG.time_limit / 2 for r in rows)
    # the exact solver hits the time limit as n grows (the paper's story)
    assert rows[-1]["mip_timeouts"] > 0
    # APPROX is never slower than the MIP on the largest size
    assert rows[-1]["approx_mean_s"] < rows[-1]["mip_mean_s"]
