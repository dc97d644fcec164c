"""Baseline schedulers the paper compares against, plus extra ablation floors."""

from .discrete_levels import PAPER_LEVELS, EDFDiscreteLevelsScheduler
from .edf import PlacementState, least_loaded_machine
from .greedy import GreedyEnergyScheduler
from .no_compression import EDFNoCompressionScheduler
from .random_assign import RandomAssignScheduler

__all__ = [
    "EDFNoCompressionScheduler",
    "EDFDiscreteLevelsScheduler",
    "PAPER_LEVELS",
    "GreedyEnergyScheduler",
    "RandomAssignScheduler",
    "PlacementState",
    "least_loaded_machine",
]
