"""Schedules and feasibility auditing.

A DSCT-EA solution is the matrix ``t_jr`` of processing times (Sec. 3).
:class:`Schedule` wraps that matrix together with its instance and
computes every derived quantity: per-task work ``f_j = Σ_r s_r t_jr``,
accuracies, energy, machine loads and the objective.  The matrix is
immutable, so the quantities the solvers and the serving path read
repeatedly (work, accuracies, loads, their totals) are computed once and
kept, read-only.

:func:`check_feasibility` audits all model constraints:

* non-negativity (1g),
* prefix deadlines ``Σ_{i≤j} t_ir ≤ d_j`` for every machine (1b),
* work caps ``f_j ≤ f_j^max`` (1c),
* the energy budget (1f),
* optionally single-machine assignment (1d)+(1e) for integral solutions.

Tasks are executed on each machine in EDF (index) order, so the start
time of task ``j`` on machine ``r`` is ``Σ_{i<j} t_ir``; the prefix
constraint is exactly "task j completes by d_j".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from ..utils.errors import ValidationError
from .instance import ProblemInstance

__all__ = ["Schedule", "Violation", "FeasibilityReport", "check_feasibility", "DEFAULT_TOLERANCE"]

#: Default relative tolerance for feasibility checks.  Audits scale it by
#: the magnitude of the audited quantity (deadline, f_max, budget).
DEFAULT_TOLERANCE = 1e-7


@dataclass(frozen=True)
class Violation:
    """One violated constraint, by how much, and where."""

    kind: str  # "negative_time" | "deadline" | "work_cap" | "budget" | "assignment"
    amount: float
    task: Optional[int] = None
    machine: Optional[int] = None

    def __str__(self) -> str:
        where = []
        if self.task is not None:
            where.append(f"task {self.task}")
        if self.machine is not None:
            where.append(f"machine {self.machine}")
        loc = f" ({', '.join(where)})" if where else ""
        return f"{self.kind}{loc}: excess {self.amount:.6g}"


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility audit."""

    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.feasible

    def summary(self) -> str:
        if self.feasible:
            return "feasible"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  - {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Schedule:
    """An assignment of processing times ``t_jr`` for one instance."""

    def __init__(self, instance: ProblemInstance, times: np.ndarray) -> None:
        times = np.asarray(times, dtype=float)
        expected = (instance.n_tasks, instance.n_machines)
        if times.shape != expected:
            raise ValidationError(f"times must have shape {expected}, got {times.shape}")
        self.instance = instance
        # Clamp float dust (tiny negative residues from the algorithms) to
        # zero, but keep genuine negatives so the feasibility audit can
        # report them.
        dust = (times < 0.0) & (times > -DEFAULT_TOLERANCE)
        self._times = np.where(dust, 0.0, times) if np.any(dust) else times.copy()
        self._times.setflags(write=False)

    @classmethod
    def empty(cls, instance: ProblemInstance) -> "Schedule":
        """The all-zero schedule (always budget/deadline feasible)."""
        return cls(instance, np.zeros((instance.n_tasks, instance.n_machines)))

    # -- raw data ---------------------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """The ``t_jr`` matrix (read-only, seconds)."""
        return self._times

    # -- derived per-task quantities ---------------------------------------------

    @cached_property
    def task_flops(self) -> np.ndarray:
        """``f_j = Σ_r s_r · t_jr`` (FLOP, read-only)."""
        return _read_only(self._times @ self.instance.cluster.speeds)

    @cached_property
    def task_accuracies(self) -> np.ndarray:
        """Accuracy reached by each task at its granted work (read-only)."""
        return _read_only(self.instance.tasks.accuracies(self.task_flops))

    @cached_property
    def total_accuracy(self) -> float:
        """``Σ_j a_j(f_j)`` — the quantity DSCT-EA maximises."""
        return float(self.task_accuracies.sum())

    @property
    def mean_accuracy(self) -> float:
        """Average task accuracy (what Fig. 3/5 plot)."""
        return self.total_accuracy / self.instance.n_tasks

    @property
    def accuracy_error(self) -> float:
        """``Σ_j (1 − a_j(f_j))`` — the paper's minimisation objective (1a)."""
        return self.instance.n_tasks - self.total_accuracy

    # -- derived per-machine quantities ---------------------------------------------

    @cached_property
    def machine_loads(self) -> np.ndarray:
        """Busy seconds per machine ``Σ_j t_jr`` (read-only)."""
        return _read_only(self._times.sum(axis=0))

    @property
    def machine_energy(self) -> np.ndarray:
        """Energy per machine (J): load × busy power."""
        return self.machine_loads * self.instance.cluster.powers

    @cached_property
    def total_energy(self) -> float:
        """Total energy (J) under the paper's busy-power model (1f)."""
        return float(self.machine_energy.sum())

    @property
    def start_times(self) -> np.ndarray:
        """Start of task j on machine r: ``Σ_{i<j} t_ir`` (n × m)."""
        cumulative = np.cumsum(self._times, axis=0)
        return cumulative - self._times

    @property
    def completion_times(self) -> np.ndarray:
        """Completion of task j on machine r: ``Σ_{i≤j} t_ir`` (n × m)."""
        return np.cumsum(self._times, axis=0)

    @property
    def task_completion(self) -> np.ndarray:
        """Completion time of each task: latest completion over machines.

        Machines a task does not use contribute its start time there,
        which never exceeds the true completion; the max is correct for
        fractional schedules too (the task runs on several machines in
        parallel, each within the prefix deadline).
        """
        comp = self.completion_times
        used = self._times > 0.0
        # Where unused, completion equals the prefix of earlier tasks and
        # may exceed the task's own finish only for *later* deadlines —
        # mask them out; a task using no machine completes at time 0.
        masked = np.where(used, comp, 0.0)
        return masked.max(axis=1)

    # -- assignment ------------------------------------------------------------

    @property
    def assigned_machine(self) -> np.ndarray:
        """For integral schedules: machine index per task (−1 if none).

        Raises :class:`ValidationError` if some task uses >1 machine.
        """
        used = self._times > 0.0
        counts = used.sum(axis=1)
        if np.any(counts > 1):
            bad = int(np.argmax(counts > 1))
            raise ValidationError(f"task {bad} runs on {int(counts[bad])} machines; schedule is fractional")
        out = np.full(self.instance.n_tasks, -1, dtype=int)
        rows, cols = np.nonzero(used)
        out[rows] = cols
        return out

    @property
    def is_integral(self) -> bool:
        """Whether every task uses at most one machine."""
        return bool(np.all((self._times > 0.0).sum(axis=1) <= 1))

    def feasibility(self, *, integral: bool = False, tolerance: float = DEFAULT_TOLERANCE) -> FeasibilityReport:
        """Audit this schedule; see :func:`check_feasibility`."""
        return check_feasibility(self, integral=integral, tolerance=tolerance)

    def __repr__(self) -> str:
        return (
            f"Schedule(n={self.instance.n_tasks}, m={self.instance.n_machines}, "
            f"mean_acc={self.mean_accuracy:.4f}, energy={self.total_energy:.4g} J)"
        )


def check_feasibility(
    schedule: Schedule,
    *,
    integral: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> FeasibilityReport:
    """Audit all DSCT-EA constraints on a schedule.

    ``tolerance`` is relative: each constraint admits slack
    ``tolerance × max(|bound|, 1)``, absorbing float round-off from the
    algorithms without masking real violations.
    """
    inst = schedule.instance
    t = schedule.times
    violations: List[Violation] = []

    # (1g) non-negativity — the constructor clamps dust, so detect real
    # negatives on the raw input by rebuilding from the stored matrix.
    neg = t < -tolerance
    for j, r in zip(*np.nonzero(neg)):
        violations.append(Violation("negative_time", float(-t[j, r]), task=int(j), machine=int(r)))

    # (1b) prefix deadlines per machine.
    completion = schedule.completion_times
    deadlines = inst.tasks.deadlines
    for r in range(inst.n_machines):
        excess = completion[:, r] - deadlines
        slack = tolerance * np.maximum(np.abs(deadlines), 1.0)
        bad = excess > slack
        for j in np.nonzero(bad)[0]:
            violations.append(Violation("deadline", float(excess[j]), task=int(j), machine=int(r)))

    # (1c) work caps.
    flops = schedule.task_flops
    caps = inst.tasks.f_max
    excess = flops - caps
    slack = tolerance * np.maximum(np.abs(caps), 1.0)
    for j in np.nonzero(excess > slack)[0]:
        violations.append(Violation("work_cap", float(excess[j]), task=int(j)))

    # (1f) energy budget.
    energy = schedule.total_energy
    if np.isfinite(inst.budget):
        budget_slack = tolerance * max(inst.budget, 1.0)
        if energy > inst.budget + budget_slack:
            violations.append(Violation("budget", float(energy - inst.budget)))

    # (1d)+(1e) single-machine assignment for integral solutions.
    if integral:
        counts = (t > 0.0).sum(axis=1)
        for j in np.nonzero(counts > 1)[0]:
            violations.append(Violation("assignment", float(counts[j] - 1), task=int(j)))

    return FeasibilityReport(tuple(violations))
