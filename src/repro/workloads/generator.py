"""Synthetic task-set generation matching the paper's Sec. 6 setup.

Tasks are built from exponential accuracy curves with task efficiency
θ_j (the slope of the first fitted segment), ``a_min = 1/1000``,
``a_max = 0.82``, fitted by 5-segment concave piecewise-linear
regression.  ``f_j^max`` follows from θ_j (the work where the curve
saturates at a_max).

Deadlines are drawn uniformly and rescaled so the instance hits a
requested *deadline tolerance* ρ = d_max · Σ_r s_r / Σ_j f_j^max
(DESIGN.md §3 documents this reconstruction of the paper's garbled
formula); the largest draw is pinned to d_max so ρ is met exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..core.accuracy import ExponentialAccuracy, fit_exponential_rows
from ..core.instance import ProblemInstance
from ..core.machine import Cluster
from ..core.task import TaskSet
from ..utils import units
from ..utils.errors import ValidationError
from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_positive, require

__all__ = ["TaskGenConfig", "generate_tasks", "tasks_from_thetas", "generate_instance"]

#: The paper's accuracy extremes: a random guess over ImageNet-1k's 1000
#: classes, and ofa-resnet's top accuracy.
PAPER_A_MIN = 0.001
PAPER_A_MAX = 0.82


@dataclass(frozen=True)
class TaskGenConfig:
    """Parameters of a synthetic task set.

    ``theta_range`` is in accuracy per TFLOP (the paper's θ unit: θ = 0.1
    means the first 10 TFLOP of work buy ≈1 accuracy point... per its
    scale); ``rho`` is the deadline tolerance the set should realise on a
    given cluster.
    """

    n: int = 100
    theta_range: Tuple[float, float] = (0.1, 0.1)
    rho: float = 1.0
    a_min: float = PAPER_A_MIN
    a_max: float = PAPER_A_MAX
    n_segments: int = 5
    deadline_floor: float = 0.05  # deadlines ≥ this fraction of d_max
    coverage: float = 0.99999

    def __post_init__(self) -> None:
        require(self.n >= 1, f"n must be >= 1, got {self.n}")
        lo, hi = self.theta_range
        require(0 < lo <= hi, f"theta_range must be positive and ordered, got {self.theta_range}")
        check_positive(self.rho, "rho")
        require(0 < self.deadline_floor <= 1.0, "deadline_floor must lie in (0, 1]")
        require(self.n_segments >= 1, "n_segments must be >= 1")


def tasks_from_thetas(
    thetas_per_tflop: Sequence[float],
    deadlines: Sequence[float],
    *,
    a_min: float = PAPER_A_MIN,
    a_max: float = PAPER_A_MAX,
    n_segments: int = 5,
    coverage: float = 0.99999,
) -> TaskSet:
    """Build a task set from explicit θ (per TFLOP) and deadline lists.

    Bit for bit the set of ``fit_piecewise(ExponentialAccuracy(θ_j))``
    tasks, built as one ``(n, K+1)`` matrix
    (:func:`~repro.core.accuracy.fit_exponential_rows`) and validated
    once by :meth:`TaskSet.from_arrays`.
    """
    per_tflop = np.array(thetas_per_tflop, dtype=float)
    deadlines = np.array(deadlines, dtype=float)
    if per_tflop.ndim != 1 or per_tflop.shape != deadlines.shape:
        raise ValidationError("thetas and deadlines must have equal length")
    require(per_tflop.size >= 1, "a task set needs at least one task")
    breakpoints, accuracies = fit_exponential_rows(
        per_tflop / units.TERA, n_segments, a_min=a_min, a_max=a_max, coverage=coverage
    )
    return TaskSet.from_arrays(deadlines, breakpoints, accuracies)


def generate_tasks(config: TaskGenConfig, cluster: Cluster, seed: SeedLike = None) -> TaskSet:
    """Sample a task set realising ``config`` on ``cluster``.

    θ_j ~ U(theta_range); deadlines ~ U(floor, 1)·d_max with the largest
    pinned at d_max, where d_max = ρ · Σ_j f_j^max / Σ_r s_r.
    """
    rng = ensure_rng(seed)
    lo, hi = config.theta_range
    thetas = rng.uniform(lo, hi, size=config.n) if hi > lo else np.full(config.n, lo)

    # f_max of each curve (before deadlines are known).
    f_max = np.array(
        [
            ExponentialAccuracy(
                th / units.TERA, a_min=config.a_min, a_max=config.a_max, coverage=config.coverage
            ).f_max
            for th in thetas
        ]
    )
    d_max = config.rho * float(f_max.sum()) / cluster.total_speed
    if config.n == 1:
        fractions = np.array([1.0])
    else:
        fractions = rng.uniform(config.deadline_floor, 1.0, size=config.n)
        fractions[int(rng.integers(config.n))] = 1.0  # pin ρ exactly
    deadlines = fractions * d_max
    return tasks_from_thetas(
        thetas,
        deadlines,
        a_min=config.a_min,
        a_max=config.a_max,
        n_segments=config.n_segments,
        coverage=config.coverage,
    )


def generate_instance(
    config: TaskGenConfig,
    cluster: Cluster,
    beta: float,
    seed: SeedLike = None,
) -> ProblemInstance:
    """Sample tasks and wrap them with a β-calibrated energy budget."""
    tasks = generate_tasks(config, cluster, seed)
    return ProblemInstance.with_beta(tasks, cluster, beta)
