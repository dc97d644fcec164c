"""Table 1 — DSCT-EA-FR-Opt vs the LP solver, n = 100..500, m = 5.

The paper reports the combinatorial algorithm beating MOSEK on every
size; here the comparison is against HiGHS and the same ordering holds
with margin.
"""

from repro.experiments import Table1Config, run_table1

from benchkit import PAPER_SCALE, run_once

CONFIG = Table1Config() if PAPER_SCALE else Table1Config(task_counts=(100, 200, 300, 400, 500), repetitions=2)


def test_table1_fr_runtimes(benchmark, save_table):
    table = run_once(benchmark, lambda: run_table1(CONFIG))
    save_table("table1_fr_runtimes", table)

    for row in table.as_dicts():
        # the paper's claim: FR-OPT is faster than the generic solver on
        # every tested size...
        assert row["fr_opt_s"] < row["lp_solver_s"]
        # ...while solving the same relaxation to (numerically) the same
        # optimum.
        assert row["max_rel_objective_gap"] < 5e-3
