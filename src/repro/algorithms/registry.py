"""Scheduler registry: build any method by name.

Used by the CLI and by experiment configuration files, so method lists
can be expressed as strings (``"approx"``, ``"edf-nocompression"``, ...)
rather than imports.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..utils.errors import ValidationError
from .base import Scheduler

__all__ = ["register", "make_scheduler", "available_schedulers"]

_FACTORIES: Dict[str, Callable[..., Scheduler]] = {}


def register(name: str, factory: Callable[..., Scheduler]) -> None:
    """Register a scheduler factory under a (lowercase) name."""
    key = name.lower()
    if key in _FACTORIES:
        raise ValidationError(f"scheduler {name!r} already registered")
    _FACTORIES[key] = factory


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler; kwargs go to its constructor."""
    key = name.lower()
    if key not in _FACTORIES:
        raise ValidationError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(_FACTORIES))}"
        )
    return _FACTORIES[key](**kwargs)


def available_schedulers() -> List[str]:
    """Sorted names of all registered schedulers."""
    return sorted(_FACTORIES)


def _register_builtins() -> None:
    # Imported lazily to avoid import cycles at package-init time.
    from ..baselines.discrete_levels import EDFDiscreteLevelsScheduler
    from ..baselines.greedy import GreedyEnergyScheduler
    from ..baselines.no_compression import EDFNoCompressionScheduler
    from ..baselines.random_assign import RandomAssignScheduler
    from ..exact.discrete_mip import DiscreteLevelsMIPScheduler
    from ..exact.lp import LPFractionalScheduler
    from ..exact.mip import MIPScheduler
    from .approx import ApproxScheduler
    from .fractional import FractionalScheduler

    register("approx", ApproxScheduler)
    register("fractional", FractionalScheduler)
    register("ub", FractionalScheduler)  # the paper's DSCT-EA-UB alias
    register("lp", LPFractionalScheduler)
    register("mip", MIPScheduler)
    register("edf-nocompression", EDFNoCompressionScheduler)
    register("edf-3levels", EDFDiscreteLevelsScheduler)
    register("greedy-energy", GreedyEnergyScheduler)
    register("random", RandomAssignScheduler)

    register("discrete-mip", DiscreteLevelsMIPScheduler)

    from ..resilience.fallback import FallbackChain

    register("fallback", FallbackChain.default)


_register_builtins()
