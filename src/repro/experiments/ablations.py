"""Ablation studies for the design choices DESIGN.md calls out.

Not in the paper, but they quantify why the pipeline is built the way it
is:

* :func:`run_refine_ablation` — what RefineProfile (Algorithm 3) buys
  over scheduling against the naive profile only, across task mixes;
* :func:`run_segments_ablation` — accuracy sensitivity to the number of
  piecewise-linear segments (the paper fixes K = 5);
* :func:`run_idle_power_ablation` — how much of the paper's "energy
  saved" survives when machines draw idle power (the model ignores it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..algorithms.approx import ApproxScheduler
from ..baselines.no_compression import EDFNoCompressionScheduler
from ..core.instance import ProblemInstance
from ..hardware.sampling import sample_uniform_cluster
from ..simulator.cluster_sim import ClusterSimulator
from ..simulator.power import PowerModel
from ..utils.rng import SeedLike, spawn
from ..workloads.generator import TaskGenConfig, generate_tasks
from ..workloads.scenarios import budget_sweep_instance, fig6_instance
from .records import ResultTable

__all__ = [
    "AblationConfig",
    "run_refine_ablation",
    "run_segments_ablation",
    "run_rho_sweep",
    "run_idle_power_ablation",
]


@dataclass(frozen=True)
class AblationConfig:
    """Shared ablation knobs."""

    n: int = 100
    repetitions: int = 5
    beta: float = 0.4
    seed: SeedLike = 2024


def run_refine_ablation(config: AblationConfig = AblationConfig()) -> ResultTable:
    """RefineProfile on/off across the two Fig. 6 task mixes."""
    table = ResultTable(
        title="Ablation — RefineProfile (Algorithm 3) on vs off",
        columns=[
            "scenario",
            "beta",
            "frac_acc",
            "frac_naive_profile_acc",
            "frac_gain_points",
            "approx_acc",
            "approx_naive_profile_acc",
            "approx_gain_points",
        ],
    )
    from ..algorithms.fractional import solve_fractional
    from ..algorithms.approx import round_fractional

    for scenario in ("uniform", "earliest"):
        for beta in (0.2, config.beta, 0.8):
            frac_on, frac_off, on, off = [], [], [], []
            for rng in spawn(config.seed, config.repetitions):
                instance = fig6_instance(float(beta), scenario, n=config.n, seed=rng)
                refined, _ = solve_fractional(instance, refine=True)
                naive, _ = solve_fractional(instance, refine=False)
                frac_on.append(refined.mean_accuracy)
                frac_off.append(naive.mean_accuracy)
                on.append(round_fractional(instance, refined).mean_accuracy)
                off.append(round_fractional(instance, naive).mean_accuracy)
            table.add_row(
                scenario,
                float(beta),
                float(np.mean(frac_on)),
                float(np.mean(frac_off)),
                100.0 * float(np.mean(frac_on) - np.mean(frac_off)),
                float(np.mean(on)),
                float(np.mean(off)),
                100.0 * float(np.mean(on) - np.mean(off)),
            )
    table.notes.append("the 'earliest' mix is where the naive profile is wrong — the paper's Fig. 6b story")
    table.notes.append(
        "refinement never hurts the fractional objective; the rounded schedule can "
        "occasionally dip because rounding is not monotone in its input"
    )
    return table


def run_segments_ablation(
    config: AblationConfig = AblationConfig(),
    segment_counts: Sequence[int] = (1, 2, 3, 5, 8, 12),
) -> ResultTable:
    """Accuracy of DSCT-EA-APPROX as the piecewise fit refines."""
    table = ResultTable(
        title="Ablation — number of piecewise-linear segments K",
        columns=["K", "approx_mean_acc"],
    )
    approx = ApproxScheduler()
    for k in segment_counts:
        accs = []
        for rng in spawn(config.seed, config.repetitions):
            rng_c, rng_t = rng.spawn(2)
            cluster = sample_uniform_cluster(2, rng_c)
            tasks = generate_tasks(
                TaskGenConfig(n=config.n, theta_range=(0.1, 1.0), rho=1.0, n_segments=int(k)),
                cluster,
                rng_t,
            )
            instance = ProblemInstance.with_beta(tasks, cluster, config.beta)
            accs.append(approx.solve(instance).mean_accuracy)
        table.add_row(int(k), float(np.mean(accs)))
    table.notes.append("K = 5 (the paper's choice) captures nearly all achievable accuracy")
    return table


def run_rho_sweep(
    config: AblationConfig = AblationConfig(),
    rhos: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0),
) -> ResultTable:
    """Accuracy vs deadline tolerance ρ (the dial no paper figure sweeps).

    Fig. 3 varies μ and Fig. 5 varies β; ρ is held fixed in both.  This
    sweep completes the picture: with the budget fixed, loosening
    deadlines converts deadline-limited instances into budget-limited
    ones, and the accuracy saturates once ρ stops binding.
    """
    table = ResultTable(
        title="Ablation — accuracy vs deadline tolerance ρ (β fixed)",
        columns=["rho", "ub_acc", "approx_acc", "nocomp_acc"],
    )
    from ..algorithms.fractional import FractionalScheduler
    from ..core.instance import ProblemInstance
    from ..workloads.generator import TaskGenConfig, generate_tasks

    ub = FractionalScheduler()
    approx = ApproxScheduler()
    nocomp = EDFNoCompressionScheduler()
    for rho in rhos:
        u, a, nc = [], [], []
        for rng in spawn(config.seed, config.repetitions):
            rng_c, rng_t = rng.spawn(2)
            cluster = sample_uniform_cluster(2, rng_c)
            tasks = generate_tasks(
                TaskGenConfig(n=config.n, theta_range=(0.1, 1.0), rho=float(rho)), cluster, rng_t
            )
            inst = ProblemInstance.with_beta(tasks, cluster, config.beta)
            u.append(ub.solve(inst).mean_accuracy)
            a.append(approx.solve(inst).mean_accuracy)
            nc.append(nocomp.solve(inst).mean_accuracy)
        table.add_row(float(rho), float(np.mean(u)), float(np.mean(a)), float(np.mean(nc)))
    table.notes.append("tight ρ: deadlines bind; loose ρ: the budget binds and accuracy saturates")
    return table


def run_idle_power_ablation(
    config: AblationConfig = AblationConfig(),
    idle_fractions: Sequence[float] = (0.0, 0.15, 0.3, 0.5),
) -> ResultTable:
    """Measured energy saving of APPROX vs NoCompression under idle power."""
    table = ResultTable(
        title="Ablation — energy saving under idle power (simulator-measured)",
        columns=["idle_fraction", "approx_energy_J", "nocomp_energy_J", "saving_pct"],
    )
    approx = ApproxScheduler()
    nocomp = EDFNoCompressionScheduler()
    for idle in idle_fractions:
        ap_e, nc_e = [], []
        for rng in spawn(config.seed, config.repetitions):
            seed = int(rng.integers(0, 2**63 - 1))
            ref = budget_sweep_instance(1.0, n=config.n, seed=seed)
            constrained = budget_sweep_instance(config.beta, n=config.n, seed=seed)
            pm_ref = PowerModel(ref.cluster, idle_fraction=float(idle), account_idle=idle > 0)
            pm_con = PowerModel(constrained.cluster, idle_fraction=float(idle), account_idle=idle > 0)
            nc_e.append(ClusterSimulator(ref, power_model=pm_ref).run(nocomp.solve(ref)).energy)
            ap_e.append(
                ClusterSimulator(constrained, power_model=pm_con).run(approx.solve(constrained)).energy
            )
        ap_mean, nc_mean = float(np.mean(ap_e)), float(np.mean(nc_e))
        table.add_row(float(idle), ap_mean, nc_mean, 100.0 * (1.0 - ap_mean / nc_mean))
    table.notes.append("idle power erodes but does not erase the compression saving")
    return table
