"""Fig. 2 — Once-For-All accuracy vs floating operations."""

import numpy as np

from repro.experiments import run_fig2
from repro.models import ofa_mobilenet_v3

from benchkit import run_once


def test_fig2_ofa_curve(benchmark, save_table):
    table = run_once(benchmark, lambda: run_fig2(n_curve=25, n_scatter=60, seed=0))
    save_table("fig2_ofa_curve", table)

    env = [r for r in table.as_dicts() if r["kind"] == "envelope"]
    accs = np.array([r["accuracy"] for r in env])
    flops = np.array([r["flops_gflop"] for r in env])
    # concave saturating shape: monotone increasing, decreasing increments
    assert np.all(np.diff(accs) >= -1e-12)
    gains = np.diff(accs) / np.diff(flops)
    assert np.all(np.diff(gains) <= 1e-9)
    # the paper's combinatorics remark
    assert ofa_mobilenet_v3().count_subnetworks() > 1e19
