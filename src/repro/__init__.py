"""repro — reproduction of "Scheduling Machine Learning Compressible
Inference Tasks with Limited Energy Budget" (ICPP 2024).

Public API highlights
---------------------

Data model (``repro.core``):
    :class:`~repro.core.accuracy.PiecewiseLinearAccuracy`,
    :class:`~repro.core.accuracy.ExponentialAccuracy`,
    :class:`~repro.core.task.Task` / :class:`~repro.core.task.TaskSet`,
    :class:`~repro.core.machine.Machine` / :class:`~repro.core.machine.Cluster`,
    :class:`~repro.core.instance.ProblemInstance`,
    :class:`~repro.core.schedule.Schedule`.

Algorithms (``repro.algorithms``):
    :class:`~repro.algorithms.fractional.FractionalScheduler` (DSCT-EA-FR-OPT
    / DSCT-EA-UB) and :class:`~repro.algorithms.approx.ApproxScheduler`
    (DSCT-EA-APPROX) — the paper's contribution.

Exact solvers (``repro.exact``):
    :class:`~repro.exact.mip.MIPScheduler` and
    :class:`~repro.exact.lp.LPFractionalScheduler` (HiGHS in the role of
    the paper's MOSEK).

Baselines (``repro.baselines``), workload generation
(``repro.workloads``), hardware catalog (``repro.hardware``), synthetic
OFA model zoo (``repro.models``), discrete-event simulator
(``repro.simulator``) and the experiment drivers behind every paper
table/figure (``repro.experiments``).

Observability (``repro.telemetry``):
    :class:`~repro.telemetry.registry.MetricsRegistry` (counters,
    gauges, histograms, phase spans),
    :func:`~repro.telemetry.context.collector` activation, and
    JSON-lines/Prometheus exporters — every solver and serving path
    is instrumented.
"""

from . import core, telemetry, utils
from .core import (
    Cluster,
    ExponentialAccuracy,
    Machine,
    PiecewiseLinearAccuracy,
    ProblemInstance,
    Schedule,
    Task,
    TaskSet,
    fit_piecewise,
)

__version__ = "1.0.0"

__all__ = [
    "core",
    "telemetry",
    "utils",
    "Cluster",
    "ExponentialAccuracy",
    "Machine",
    "PiecewiseLinearAccuracy",
    "ProblemInstance",
    "Schedule",
    "Task",
    "TaskSet",
    "fit_piecewise",
    "__version__",
]
