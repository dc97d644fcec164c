"""Method-matrix bench (extension): every scheduler on a shared grid."""

from repro.experiments import MethodMatrixConfig, run_method_matrix

from benchkit import PAPER_SCALE, run_once

CONFIG = (
    MethodMatrixConfig(n=100, repetitions=5)
    if PAPER_SCALE
    else MethodMatrixConfig(n=40, repetitions=2)
)


def test_method_matrix(benchmark, save_table):
    table = run_once(benchmark, lambda: run_method_matrix(CONFIG))
    save_table("method_matrix", table)

    rows = table.as_dicts()
    by = {(r["method"], r["beta"]): r for r in rows}
    for beta in CONFIG.betas:
        ub = by[("DSCT-EA-FR-OPT", beta)]["mean_accuracy"]
        for method in set(r["method"] for r in rows):
            # the fractional optimum upper-bounds every method, cell by cell
            assert by[(method, beta)]["mean_accuracy"] <= ub + 1e-9
        # under the tightest budget the paper's method leads the integral field
        if beta == min(CONFIG.betas):
            approx = by[("DSCT-EA-APPROX", beta)]["mean_accuracy"]
            for method in ("EDF-3COMPRESSIONLEVELS", "EDF-NOCOMPRESSION", "RANDOM-ASSIGN"):
                assert approx >= by[(method, beta)]["mean_accuracy"] - 1e-9
