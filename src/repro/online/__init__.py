"""Online serving: rolling-horizon planning over request streams."""

from .planner import RollingHorizonPlanner

__all__ = ["RollingHorizonPlanner"]
