"""Fig. 4b — runtime vs number of machines: DSCT-EA-APPROX vs exact MIP.

Paper: m from 2 to 10 at n = 50; the solver times out from m ≈ 4 while
APPROX stays interactive.
"""

from repro.experiments import Fig4Config, run_fig4_machines

from benchkit import PAPER_SCALE, run_once

CONFIG = (
    Fig4Config()
    if PAPER_SCALE
    else Fig4Config(machine_counts=(2, 4, 6), fixed_n=30, repetitions=2, time_limit=10.0)
)


def test_fig4b_runtime_vs_machines(benchmark, save_table):
    table = run_once(benchmark, lambda: run_fig4_machines(CONFIG))
    save_table("fig4b_runtime_machines", table)

    rows = table.as_dicts()
    assert all(r["approx_mean_s"] < CONFIG.time_limit / 2 for r in rows)
    # the exact solver struggles as machines are added (paper: m >= 4)
    assert sum(r["mip_timeouts"] for r in rows) > 0
    assert rows[-1]["approx_mean_s"] < rows[-1]["mip_mean_s"]
