"""Workload substrate: task-set generators, paper scenarios, arrival processes."""

from .arrivals import MMPPArrivals, PoissonArrivals, Request, window_batches
from .generator import (
    PAPER_A_MAX,
    PAPER_A_MIN,
    TaskGenConfig,
    generate_instance,
    generate_tasks,
    tasks_from_thetas,
)
from .scenarios import (
    PAPER_THETA_MIN,
    budget_sweep_instance,
    earliest_high_efficiency_tasks,
    fig6_cluster,
    fig6_instance,
    heterogeneity_instance,
    runtime_instance,
    uniform_mix_tasks,
)
from .traces import DiurnalTraceConfig, generate_diurnal_trace, load_trace, save_trace

__all__ = [
    "TaskGenConfig",
    "generate_tasks",
    "generate_instance",
    "tasks_from_thetas",
    "PAPER_A_MIN",
    "PAPER_A_MAX",
    "PAPER_THETA_MIN",
    "heterogeneity_instance",
    "runtime_instance",
    "budget_sweep_instance",
    "fig6_cluster",
    "fig6_instance",
    "uniform_mix_tasks",
    "earliest_high_efficiency_tasks",
    "Request",
    "DiurnalTraceConfig",
    "generate_diurnal_trace",
    "save_trace",
    "load_trace",
    "PoissonArrivals",
    "MMPPArrivals",
    "window_batches",
]
