"""Core data model: accuracy functions, tasks, machines, instances, schedules."""

from .accuracy import (
    AccuracyFunction,
    ExponentialAccuracy,
    PiecewiseLinearAccuracy,
    fit_piecewise,
)
from .analysis import ScheduleAnalysis, describe, format_analysis
from .instance import ProblemInstance, beta_of_budget, budget_for_beta
from .machine import Cluster, Machine
from .profiles import EnergyProfile, naive_profile
from .schedule import FeasibilityReport, Schedule, Violation, check_feasibility
from .segments import SegmentTable, build_segment_list
from .serialization import (
    cluster_from_dict,
    cluster_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from .task import Task, TaskSet

__all__ = [
    "AccuracyFunction",
    "ScheduleAnalysis",
    "describe",
    "format_analysis",
    "ExponentialAccuracy",
    "PiecewiseLinearAccuracy",
    "fit_piecewise",
    "ProblemInstance",
    "budget_for_beta",
    "beta_of_budget",
    "Machine",
    "Cluster",
    "EnergyProfile",
    "naive_profile",
    "Schedule",
    "FeasibilityReport",
    "Violation",
    "check_feasibility",
    "cluster_to_dict",
    "cluster_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "SegmentTable",
    "build_segment_list",
    "Task",
    "TaskSet",
]
