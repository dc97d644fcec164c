"""Experiment drivers — one per paper table/figure, plus extensions.

==================  ==============================================
paper artefact      driver
==================  ==============================================
Fig. 1              :func:`run_fig1`
Fig. 2              :func:`run_fig2`
Fig. 3              :func:`run_fig3`
Fig. 4a / 4b        :func:`run_fig4_tasks` / :func:`run_fig4_machines`
Table 1             :func:`run_table1`
Fig. 5              :func:`run_fig5`
§6 Energy Gain      :func:`run_energy_gain`
Fig. 6a / 6b        :func:`run_fig6`
==================  ==============================================

Extensions and ablations:

==========================  ==============================================
study                       driver
==========================  ==============================================
RefineProfile value         :func:`run_refine_ablation`
segment count K             :func:`run_segments_ablation`
deadline tolerance ρ        :func:`run_rho_sweep`
idle power                  :func:`run_idle_power_ablation`
discrete-level value        :func:`run_discrete_value`
method matrix               :func:`run_method_matrix`
failure robustness          :func:`run_outage_sweep` / :func:`run_slowdown_sweep`
θ misestimation             :func:`run_theta_sensitivity`
full report                 :func:`generate_report` / :func:`write_report`
==========================  ==============================================

Plumbing: :class:`ResultTable`, :func:`run_sweep`,
:func:`ascii_plot` / :func:`plot_table`.
"""

from .ablations import (
    AblationConfig,
    run_rho_sweep,
    run_idle_power_ablation,
    run_refine_ablation,
    run_segments_ablation,
)
from .discrete_value import DiscreteValueConfig, run_discrete_value
from .energy_gain import EnergyGainConfig, headline_at_loss, run_energy_gain
from .fig1_gpu_catalog import run_fig1
from .fig2_ofa_curve import run_fig2
from .fig3_optimality_gap import Fig3Config, run_fig3
from .fig4_runtime import Fig4Config, run_fig4_machines, run_fig4_tasks
from .fig5_energy_budget import Fig5Config, run_fig5
from .fig6_energy_profiles import Fig6Config, run_fig6
from .method_matrix import MethodMatrixConfig, run_method_matrix
from .plots import ascii_plot, plot_table
from .records import ResultTable
from .report import ReportConfig, generate_report, write_report
from .robustness import RobustnessConfig, run_outage_sweep, run_slowdown_sweep
from .runner import Aggregate, aggregate, evaluate_schedulers, repeat
from .sensitivity import SensitivityConfig, run_theta_sensitivity
from .sweep import grid_points, run_sweep
from .table1_fr_runtime import Table1Config, run_table1

__all__ = [
    "ResultTable",
    "ascii_plot",
    "plot_table",
    "Aggregate",
    "aggregate",
    "repeat",
    "evaluate_schedulers",
    "run_sweep",
    "grid_points",
    "RobustnessConfig",
    "run_outage_sweep",
    "run_slowdown_sweep",
    "SensitivityConfig",
    "run_theta_sensitivity",
    "ReportConfig",
    "generate_report",
    "write_report",
    "DiscreteValueConfig",
    "run_discrete_value",
    "MethodMatrixConfig",
    "run_method_matrix",
    "run_fig1",
    "run_fig2",
    "Fig3Config",
    "run_fig3",
    "Fig4Config",
    "run_fig4_tasks",
    "run_fig4_machines",
    "Table1Config",
    "run_table1",
    "Fig5Config",
    "run_fig5",
    "EnergyGainConfig",
    "run_energy_gain",
    "headline_at_loss",
    "Fig6Config",
    "run_fig6",
    "AblationConfig",
    "run_refine_ablation",
    "run_segments_ablation",
    "run_idle_power_ablation",
    "run_rho_sweep",
]
