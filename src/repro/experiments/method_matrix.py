"""The method matrix: every registered scheduler on a common grid.

A one-stop comparison: for each (method, β) cell, mean accuracy, energy
utilisation and solve runtime over shared instances.  Useful both as a
dashboard ("which method for which regime") and as a regression canary —
any scheduler change shows up here first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..algorithms.registry import make_scheduler
from ..utils.rng import SeedLike, spawn
from ..workloads.scenarios import budget_sweep_instance
from .records import ResultTable

__all__ = ["MethodMatrixConfig", "run_method_matrix"]

#: Methods excluded by default: the exact MIPs are too slow for a grid.
_DEFAULT_METHODS = (
    "fractional",
    "approx",
    "edf-3levels",
    "edf-nocompression",
    "greedy-energy",
    "random",
)


@dataclass(frozen=True)
class MethodMatrixConfig:
    """Grid parameters."""

    methods: Sequence[str] = _DEFAULT_METHODS
    betas: Sequence[float] = (0.2, 0.5, 1.0)
    n: int = 40
    m: int = 3
    repetitions: int = 3
    seed: SeedLike = 2024


def run_method_matrix(config: MethodMatrixConfig = MethodMatrixConfig()) -> ResultTable:
    """Evaluate every method on every β over shared instances."""
    table = ResultTable(
        title="Method matrix — accuracy / energy / runtime per (method, β)",
        columns=["method", "beta", "mean_accuracy", "budget_used_pct", "runtime_ms"],
    )
    # Shared instances per (β, repetition): every method sees the same ones.
    point_seeds = spawn(config.seed, len(config.betas))
    instances = {
        float(beta): [
            budget_sweep_instance(float(beta), n=config.n, m=config.m, seed=rng)
            for rng in point_seed.spawn(config.repetitions)
        ]
        for beta, point_seed in zip(config.betas, point_seeds)
    }
    for name in config.methods:
        scheduler = make_scheduler(name, seed=0) if name == "random" else make_scheduler(name)
        for beta in config.betas:
            accs, useds, runtimes = [], [], []
            for inst in instances[float(beta)]:
                start = time.perf_counter()
                sched = scheduler.solve(inst)
                runtimes.append(time.perf_counter() - start)
                accs.append(sched.mean_accuracy)
                useds.append(sched.total_energy / inst.budget if inst.budget else 0.0)
            table.add_row(
                scheduler.name,
                float(beta),
                float(np.mean(accs)),
                100.0 * float(np.mean(useds)),
                1000.0 * float(np.mean(runtimes)),
            )
    table.notes.append("all methods share the same instances per (β, repetition) cell")
    return table
