"""Renewable energy budgets: the extension the paper names as future work (§7)."""

from .renewable import EpochOutcome, RenewablePlanner, RenewableReport, solar_curve

__all__ = [
    "solar_curve",
    "RenewablePlanner",
    "RenewableReport",
    "EpochOutcome",
]
