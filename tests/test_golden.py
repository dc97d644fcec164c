"""Golden outputs: FR-OPT and APPROX schedules frozen bit for bit.

The fixture ``golden/solver_outputs.json`` holds, for every instance of
a seeded corpus, the FR-OPT and APPROX ``times`` matrices (each float as
``float.hex``, so nothing is rounded), plus RefineProfile's iteration
count and the number of polish rounds.  Any change to the solver's
arithmetic, however small, fails :func:`test_solver_outputs_match_golden`.

Regenerate only when a change is *meant* to alter schedules::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

from repro.algorithms.approx import ApproxScheduler
from repro.algorithms.fractional import solve_fractional
from repro.core import ProblemInstance
from repro.hardware import sample_uniform_cluster
from repro.workloads import TaskGenConfig, generate_tasks

from conftest import make_instance

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "solver_outputs.json")

# (name, generator, n, m, beta, seed); beta None = no budget, 0.0 = zero
# budget.  "workload" instances come from the task generator on a sampled
# cluster (as the benchmark's are); "tight" ones from ``make_instance``
# with tight deadlines, which makes the profile polish accept a round.
CORPUS = [
    ("small-n4-m2-b03", "workload", 4, 2, 0.3, 1),
    ("small-n6-m3-b05", "workload", 6, 3, 0.5, 2),
    ("small-n10-m2-b03", "workload", 10, 2, 0.3, 6),
    ("small-n11-m3-b05", "workload", 11, 3, 0.5, 25),
    ("small-n12-m2-b08", "workload", 12, 2, 0.8, 44),
    ("small-n9-m3-b08-polish", "tight", 9, 3, 0.8, 41),
    ("small-n12-m3-b08-polish", "tight", 12, 3, 0.8, 35),
    ("small-n7-m3-inf", "workload", 7, 3, None, 17),
    ("small-n5-m2-zero", "workload", 5, 2, 0.0, 18),
    ("large-n100-m5-b03", "workload", 100, 5, 0.3, 7),
    ("large-n130-m6-b05", "workload", 130, 6, 0.5, 8),
    ("large-n145-m7-b08", "workload", 145, 7, 0.8, 10),
    ("large-n160-m8-b08", "workload", 160, 8, 0.8, 9),
]


def _instance(kind: str, n: int, m: int, beta, seed: int) -> ProblemInstance:
    if kind == "tight":
        return make_instance(n=n, m=m, beta=beta, seed=seed, rho=0.3)
    cluster = sample_uniform_cluster(m, seed=seed)
    tasks = generate_tasks(TaskGenConfig(n=n, theta_range=(0.1, 1.0)), cluster, seed=seed + 100)
    if beta is None:
        return ProblemInstance(tasks, cluster, math.inf)
    return ProblemInstance.with_beta(tasks, cluster, beta)


def _encode(times: np.ndarray) -> list:
    return [" ".join("0" if x == 0.0 else float(x).hex() for x in row) for row in times]


def _decode(rows: list) -> np.ndarray:
    return np.array([[float.fromhex(x) for x in row.split()] for row in rows])


def _solve(case) -> dict:
    instance = _instance(*case[1:])
    fractional, meta = solve_fractional(instance)
    approx = ApproxScheduler().solve(instance)
    return {
        "fr_opt": fractional.times,
        "approx": approx.times,
        "refine_iterations": int(meta["refine_iterations"]),
        "polish_rounds": int(meta["polish_rounds"]),
    }


def _load() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_corpus():
    assert sorted(_load()) == sorted(name for name, *_ in CORPUS)


@pytest.mark.parametrize("case", CORPUS, ids=[c[0] for c in CORPUS])
def test_solver_outputs_match_golden(case):
    expected = _load()[case[0]]
    got = _solve(case)
    assert got["refine_iterations"] == expected["refine_iterations"]
    assert got["polish_rounds"] == expected["polish_rounds"]
    for key in ("fr_opt", "approx"):
        want = _decode(expected[key])
        assert got[key].shape == want.shape
        assert np.array_equal(got[key], want), f"{key} differs in {int((got[key] != want).sum())} entries"


def _regenerate() -> None:
    doc = {}
    for case in CORPUS:
        out = _solve(case)
        doc[case[0]] = {
            "refine_iterations": out["refine_iterations"],
            "polish_rounds": out["polish_rounds"],
            "fr_opt": _encode(out["fr_opt"]),
            "approx": _encode(out["approx"]),
        }
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate")
    _regenerate()
