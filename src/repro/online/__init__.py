"""Online serving: rolling-horizon planning over request streams."""

from .planner import RollingHorizonPlanner, ServingReport, WindowOutcome

__all__ = ["RollingHorizonPlanner", "ServingReport", "WindowOutcome"]
