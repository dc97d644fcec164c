"""Accuracy functions: the latency/accuracy trade-off of compressible tasks.

The paper models each inference task with a concave, non-decreasing
*accuracy function* ``a_j(f)`` mapping the number of floating-point
operations dedicated to the task to the classification accuracy achieved
(Sec. 3.1).  Two families are implemented:

* :class:`ExponentialAccuracy` — the smooth saturating curve observed for
  Once-For-All slimmable networks (Fig. 2):
  ``a(f) = a_max − (a_max − a_min)·exp(−θ·f / (a_max − a_min))``,
  parameterised by the *task efficiency* θ = a'(0), the slope at zero.
* :class:`PiecewiseLinearAccuracy` — the concave piecewise-linear
  functions the algorithms actually consume.  The experiments build them
  by fitting ``K = 5`` segments to an exponential curve
  (:func:`fit_piecewise`).

All work ``f`` is in FLOP (see :mod:`repro.utils.units`); accuracies are
fractions in ``[0, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..utils.errors import ValidationError
from ..utils.validation import check_fraction, check_positive, require

__all__ = [
    "AccuracyFunction",
    "PiecewiseLinearAccuracy",
    "ExponentialAccuracy",
    "fit_piecewise",
    "fit_exponential_rows",
    "validate_rows",
    "SLOPE_TOLERANCE",
]

#: Relative tolerance used when validating that slopes are non-increasing.
SLOPE_TOLERANCE = 1e-9


class AccuracyFunction:
    """Abstract interface shared by all accuracy models."""

    @property
    def a_min(self) -> float:
        """Accuracy with zero work (``a(0)``, a random guess)."""
        raise NotImplementedError

    @property
    def a_max(self) -> float:
        """Accuracy at full, uncompressed execution."""
        raise NotImplementedError

    @property
    def f_max(self) -> float:
        """Work (FLOP) required for full execution."""
        raise NotImplementedError

    def value(self, f: float) -> float:
        """Accuracy after ``f`` FLOP (clamped to ``[0, f_max]``)."""
        raise NotImplementedError

    def __call__(self, f: float) -> float:
        return self.value(f)


@dataclass(frozen=True)
class _Segment:
    """One linear piece of a piecewise-linear accuracy function.

    Mirrors the ``listSegments`` records of Algorithms 1–3: the slope, the
    position (0-based index ``k``), and the FLOP span of the piece.
    """

    position: int
    slope: float
    f_start: float
    f_end: float

    @property
    def total_flops(self) -> float:
        """FLOP needed to traverse the whole segment."""
        return self.f_end - self.f_start

    @property
    def accuracy_gain(self) -> float:
        """Accuracy gained by fully processing this segment."""
        return self.slope * self.total_flops


def _check_rows(ok: np.ndarray, message: str, values: np.ndarray, shown: np.ndarray) -> None:
    """Raise for the first row in which ``ok`` is false anywhere."""
    bad = ~ok if ok.ndim == 1 else ~ok.all(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValidationError(f"{message}, got {values[j][shown[j]].tolist()} (row {j})")


def validate_rows(breakpoints: np.ndarray, accuracies: np.ndarray, n_segments: np.ndarray) -> np.ndarray:
    """Validate padded rows of concave piecewise-linear accuracy functions.

    Row ``j`` of the ``(n, K+1)`` matrices holds the ``n_segments[j] + 1``
    points of one function; entries past them are padding and are not
    checked.  Every row must be what :class:`PiecewiseLinearAccuracy`
    accepts: a first breakpoint of 0, finite and strictly increasing
    breakpoints, accuracies in ``[0, 1]`` that never decrease, and slopes
    that never increase by more than :data:`SLOPE_TOLERANCE` times the
    row's largest slope.  Raises :class:`ValidationError` naming the first
    offending row; returns the ``(n, K)`` slopes, 0 past each row's last
    piece.
    """
    p, a = breakpoints, accuracies
    points = np.arange(p.shape[1])[None, :] <= n_segments[:, None]
    pieces = points[:, 1:]
    _check_rows(p[:, 0] == 0.0, "first breakpoint must be 0", p, points)
    _check_rows(np.isfinite(p) | ~points, "breakpoints must be finite", p, points)
    with np.errstate(invalid="ignore"):  # inf − inf in the padding only
        dp = p[:, 1:] - p[:, :-1]
        da = a[:, 1:] - a[:, :-1]
    _check_rows((dp > 0.0) | ~pieces, "breakpoints must be strictly increasing", p, points)
    _check_rows((a >= 0.0) & (a <= 1.0) | ~points, "accuracies must lie in [0, 1]", a, points)
    _check_rows((da >= 0.0) | ~pieces, "accuracies must be non-decreasing", a, points)
    slopes = np.zeros(dp.shape)
    slopes[pieces] = da[pieces] / dp[pieces]
    # Concavity, up to floating tolerance scaled by the row's largest
    # slope.  Real slopes are >= 0 and the padding is 0, so a row's last
    # piece followed by padding never reads as a rise.
    scale = np.maximum(np.abs(slopes).max(axis=1), 1e-300)
    rises = slopes[:, 1:] - slopes[:, :-1]
    _check_rows(rises <= SLOPE_TOLERANCE * scale[:, None], "accuracy function must be concave; slopes", slopes, pieces)
    return slopes


class PiecewiseLinearAccuracy(AccuracyFunction):
    """Concave, non-decreasing piecewise-linear accuracy function.

    Parameters
    ----------
    breakpoints:
        FLOP values ``p_0 < p_1 < ... < p_K`` with ``p_0 = 0`` and
        ``p_K = f_max`` (paper Eq. (2); note the paper indexes pieces
        ``1..K`` and breakpoints ``1..K+1``, we use 0-based arrays).
    accuracies:
        Accuracy at each breakpoint; ``accuracies[0] = a_min``,
        ``accuracies[-1] = a_max``.  Must be non-decreasing and concave
        (chord slopes non-increasing).
    """

    def __init__(self, breakpoints: Sequence[float], accuracies: Sequence[float]) -> None:
        p = np.asarray(breakpoints, dtype=float)
        a = np.asarray(accuracies, dtype=float)
        if p.ndim != 1 or a.ndim != 1 or p.size != a.size:
            raise ValidationError(
                f"breakpoints and accuracies must be equal-length 1-D sequences, "
                f"got shapes {p.shape} and {a.shape}"
            )
        require(p.size >= 2, "need at least two breakpoints (one segment)")
        slopes = validate_rows(p[None, :], a[None, :], np.array([p.size - 1]))
        self._p = p
        self._a = a
        self._slopes = slopes[0]

    @classmethod
    def _trusted(cls, p: np.ndarray, a: np.ndarray, slopes: np.ndarray) -> "PiecewiseLinearAccuracy":
        """Wrap one row that :func:`validate_rows` already accepted."""
        acc = cls.__new__(cls)
        acc._p, acc._a, acc._slopes = p, a, slopes
        return acc

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_slopes(
        cls,
        slopes: Sequence[float],
        widths: Sequence[float],
        a_min: float = 0.0,
    ) -> "PiecewiseLinearAccuracy":
        """Build from per-segment slopes and FLOP widths (a_min at f=0)."""
        s = np.asarray(slopes, dtype=float)
        w = np.asarray(widths, dtype=float)
        if s.shape != w.shape:
            raise ValidationError("slopes and widths must have equal length")
        for wi in w:
            check_positive(float(wi), "segment width")
        p = np.concatenate([[0.0], np.cumsum(w)])
        a = np.concatenate([[a_min], a_min + np.cumsum(s * w)])
        return cls(p, a)

    @classmethod
    def single_segment(cls, slope: float, f_max: float, a_min: float = 0.0) -> "PiecewiseLinearAccuracy":
        """Degenerate one-piece (purely linear) function; handy in tests."""
        return cls.from_slopes([slope], [f_max], a_min)

    # -- basic properties --------------------------------------------------

    @property
    def a_min(self) -> float:
        return float(self._a[0])

    @property
    def a_max(self) -> float:
        return float(self._a[-1])

    @property
    def f_max(self) -> float:
        return float(self._p[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        """Breakpoint FLOP values (read-only view)."""
        v = self._p.view()
        v.flags.writeable = False
        return v

    @property
    def breakpoint_accuracies(self) -> np.ndarray:
        """Accuracy at each breakpoint (read-only view)."""
        v = self._a.view()
        v.flags.writeable = False
        return v

    @property
    def slopes(self) -> np.ndarray:
        """Per-segment slopes, non-increasing (read-only view)."""
        v = self._slopes.view()
        v.flags.writeable = False
        return v

    @property
    def n_segments(self) -> int:
        """Number of linear pieces ``K``."""
        return int(self._slopes.size)

    @property
    def first_slope(self) -> float:
        """Slope of the first segment — the paper's task efficiency θ."""
        return float(self._slopes[0])

    @property
    def last_slope(self) -> float:
        """Slope of the final segment (the smallest marginal gain)."""
        return float(self._slopes[-1])

    # -- evaluation ---------------------------------------------------------

    def value(self, f: float) -> float:
        """Accuracy after ``f`` FLOP; clamps outside ``[0, f_max]``."""
        return float(np.interp(f, self._p, self._a))

    def value_array(self, f: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`."""
        return np.interp(np.asarray(f, dtype=float), self._p, self._a)

    def marginal_gain(self, f: float) -> float:
        """Right derivative ``a'+(f)``: gain rate of extra work at ``f``.

        Zero at/after ``f_max`` (extra work cannot help).
        """
        if f >= self.f_max:
            return 0.0
        f = max(f, 0.0)
        k = int(np.searchsorted(self._p, f, side="right") - 1)
        k = min(max(k, 0), self.n_segments - 1)
        return float(self._slopes[k])

    def marginal_loss(self, f: float) -> float:
        """Left derivative ``a'−(f)``: loss rate of removing work at ``f``.

        At ``f = 0`` returns the first slope (nothing can be removed, but
        the value keeps comparisons total, matching the paper's usage).
        """
        if f <= 0.0:
            return float(self._slopes[0])
        f = min(f, self.f_max)
        k = int(np.searchsorted(self._p, f, side="left") - 1)
        k = min(max(k, 0), self.n_segments - 1)
        return float(self._slopes[k])

    def segment_index(self, f: float) -> int:
        """Index of the segment containing ``f`` (right-continuous)."""
        if f >= self.f_max:
            return self.n_segments - 1
        f = max(f, 0.0)
        k = int(np.searchsorted(self._p, f, side="right") - 1)
        return min(max(k, 0), self.n_segments - 1)

    def inverse(self, accuracy: float) -> float:
        """Minimum FLOP needed to reach ``accuracy``.

        Raises :class:`ValidationError` when the target exceeds ``a_max``.
        Plateau segments (zero slope) return the left edge of the plateau.
        """
        if accuracy > self.a_max:
            raise ValidationError(f"accuracy {accuracy!r} exceeds a_max {self.a_max!r}")
        if accuracy <= self.a_min:
            return 0.0
        # np.interp on the (a, p) graph would mis-handle plateaus; walk
        # segments explicitly (K is tiny, typically 5).
        for k in range(self.n_segments):
            a_lo, a_hi = self._a[k], self._a[k + 1]
            if accuracy <= a_hi:
                if a_hi == a_lo:
                    return float(self._p[k])
                frac = (accuracy - a_lo) / (a_hi - a_lo)
                return float(self._p[k] + frac * (self._p[k + 1] - self._p[k]))
        return self.f_max

    def scale_flops(self, factor: float) -> "PiecewiseLinearAccuracy":
        """Stretch the work axis by ``factor`` (accuracies unchanged).

        Used to lift a per-image accuracy/FLOPs profile to a batch task:
        a batch of B images compressed uniformly reaches the per-image
        accuracy at B× the work, so breakpoints scale by B and slopes by
        1/B.
        """
        check_positive(factor, "factor")
        return PiecewiseLinearAccuracy(self._p * factor, self._a)

    def segments(self) -> list[_Segment]:
        """The pieces as :class:`_Segment` records (for Algorithms 1–3)."""
        return [
            _Segment(
                position=k,
                slope=float(self._slopes[k]),
                f_start=float(self._p[k]),
                f_end=float(self._p[k + 1]),
            )
            for k in range(self.n_segments)
        ]

    def __repr__(self) -> str:
        return (
            f"PiecewiseLinearAccuracy(K={self.n_segments}, a_min={self.a_min:.4g}, "
            f"a_max={self.a_max:.4g}, f_max={self.f_max:.4g})"
        )


class ExponentialAccuracy(AccuracyFunction):
    """Saturating exponential accuracy curve of a slimmable network.

    ``a(f) = a_max − Δ·exp(−θ f / Δ)`` with ``Δ = a_max − a_min``, so that
    ``a(0) = a_min`` and ``a'(0) = θ`` (the paper's task efficiency: the
    slope of the first fitted segment approaches θ as the fit refines).

    The curve only reaches ``a_max`` asymptotically; ``f_max`` is defined
    as the work covering a ``coverage`` fraction of Δ (default 0.99999,
    i.e. 99.999 %, a long flat tail; DESIGN §3 item 8 explains why),
    mirroring how a finite largest OFA subnetwork realises ~a_max.
    """

    def __init__(
        self,
        theta: float,
        a_min: float = 0.001,
        a_max: float = 0.82,
        coverage: float = 0.99999,
    ) -> None:
        check_positive(theta, "theta")
        check_fraction(a_min, "a_min")
        check_fraction(a_max, "a_max")
        require(a_max > a_min, f"a_max ({a_max}) must exceed a_min ({a_min})")
        require(0.0 < coverage < 1.0, f"coverage must lie in (0, 1), got {coverage}")
        self._theta = float(theta)
        self._a_min = float(a_min)
        self._a_max = float(a_max)
        self._coverage = float(coverage)
        delta = a_max - a_min
        # a(f_max) = a_max − Δ(1 − coverage)  ⇔  exp(−θ f_max/Δ) = 1 − coverage
        self._f_max = -delta * math.log1p(-coverage) / theta

    @property
    def theta(self) -> float:
        """Task efficiency θ = a'(0)."""
        return self._theta

    @property
    def a_min(self) -> float:
        return self._a_min

    @property
    def a_max(self) -> float:
        return self._a_max

    @property
    def f_max(self) -> float:
        return self._f_max

    @property
    def delta(self) -> float:
        """Accuracy span ``a_max − a_min``."""
        return self._a_max - self._a_min

    def value(self, f: float) -> float:
        """Accuracy after ``f`` FLOP (clamped to ``[0, f_max]``)."""
        f = min(max(f, 0.0), self._f_max)
        return self._a_max - self.delta * math.exp(-self._theta * f / self.delta)

    def value_array(self, f: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`."""
        f = np.clip(np.asarray(f, dtype=float), 0.0, self._f_max)
        return self._a_max - self.delta * np.exp(-self._theta * f / self.delta)

    def derivative(self, f: float) -> float:
        """``a'(f) = θ·exp(−θ f / Δ)``."""
        f = min(max(f, 0.0), self._f_max)
        return self._theta * math.exp(-self._theta * f / self.delta)

    def f_for_accuracy(self, accuracy: float) -> float:
        """Work needed to reach ``accuracy`` (inverse of :meth:`value`)."""
        if accuracy <= self._a_min:
            return 0.0
        top = self.value(self._f_max)
        if accuracy >= top:
            return self._f_max
        return -self.delta * math.log((self._a_max - accuracy) / self.delta) / self._theta

    def __repr__(self) -> str:
        return (
            f"ExponentialAccuracy(theta={self._theta:.4g}, a_min={self._a_min:.4g}, "
            f"a_max={self._a_max:.4g}, f_max={self._f_max:.4g})"
        )


def _chord_sag(u: float, x1: float, x2: float) -> float:
    """Max deviation of ``1 − e^{−x}`` above its chord on ``[x1, x2]``.

    ``u = e^{−x1}`` is passed in to avoid recomputation.  Closed form:
    with chord slope ``q = (e^{−x1} − e^{−x2}) / (x2 − x1)``, the maximum
    of curve − chord sits where the derivative matches ``q`` and equals
    ``u − q·(1 + ln(u/q))``.
    """
    w = x2 - x1
    if w <= 0.0:
        return 0.0
    v = math.exp(-x2)
    q = (u - v) / w
    if q <= 0.0:
        return u
    return max(u - q * (1.0 + math.log(u / q)), 0.0)


def _extend_segment(x1: float, x_end: float, sag: float) -> float:
    """Largest ``x2 ≤ x_end`` whose chord from ``x1`` sags at most ``sag``."""
    u = math.exp(-x1)
    if _chord_sag(u, x1, x_end) <= sag:
        return x_end
    lo, hi = x1, x_end
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _chord_sag(u, x1, mid) <= sag:
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=256)
def _minimax_breakpoints(x_total: float, n_segments: int) -> tuple[float, ...]:
    """Equal-sag breakpoints of ``1 − e^{−x}`` over ``[0, x_total]``.

    Bisects the per-segment sag level until exactly ``n_segments``
    greedy maximal segments cover the interval — the minimax-error
    concave interpolation.  Normalised, so one cache entry serves every
    task sharing the same coverage parameter regardless of θ.
    """

    def segments_needed(sag: float) -> tuple[int, list[float]]:
        points = [0.0]
        x = 0.0
        for _ in range(n_segments + 1):
            if x >= x_total * (1.0 - 1e-12):
                break
            x = _extend_segment(x, x_total, sag)
            points.append(x)
        return len(points) - 1, points

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        count, _pts = segments_needed(mid)
        if count <= n_segments:
            hi = mid
        else:
            lo = mid
    count, points = segments_needed(hi)
    points[-1] = x_total
    # Degenerate tiny curves may need fewer pieces; pad by splitting the
    # last segment so callers always get n_segments + 1 breakpoints.
    while len(points) < n_segments + 1:
        points.insert(-1, 0.5 * (points[-2] + points[-1]))
    return tuple(points)


def fit_piecewise(
    curve: ExponentialAccuracy,
    n_segments: int = 5,
    *,
    spacing: str = "minimax",
) -> PiecewiseLinearAccuracy:
    """Fit a concave ``n_segments``-piece linear function to ``curve``.

    This reproduces the experimental setup of Sec. 6: "we modeled the
    accuracy function of a task j as piecewise linear function, constructed
    by performing a linear regression with 5 segments over an exponential
    accuracy function of parameter θ_j".

    The fit interpolates the exponential at ``n_segments + 1`` breakpoints
    (chords of a concave function have non-increasing slopes, so the result
    is concave by construction — a least-squares fit with free ordinates
    can violate concavity, which would poison the schedulers).

    ``spacing`` selects breakpoint placement:

    * ``"minimax"`` (default) — equal-sag breakpoints minimising the
      worst-case interpolation error, the faithful stand-in for the
      paper's 5-segment regression.  The alternatives leave large sags
      somewhere: equal-accuracy steps make the last piece span most of
      the work axis, uniform steps waste pieces on the flat tail.
    * ``"geometric"`` — breakpoints at equal *accuracy* steps.
    * ``"uniform"`` — equally spaced in FLOP.
    """
    require(n_segments >= 1, f"n_segments must be >= 1, got {n_segments}")
    f_max = curve.f_max
    if spacing == "uniform":
        p = np.linspace(0.0, f_max, n_segments + 1)
    elif spacing == "geometric":
        top = curve.value(f_max)
        targets = np.linspace(curve.a_min, top, n_segments + 1)
        p = np.array([curve.f_for_accuracy(a) for a in targets])
        p[0], p[-1] = 0.0, f_max
        # Guard against duplicate breakpoints from float rounding.
        for i in range(1, p.size):
            if p[i] <= p[i - 1]:
                p[i] = p[i - 1] + f_max * 1e-12
    elif spacing == "minimax":
        # Normalised coordinates: x = θ f / Δ, so x_total = θ f_max / Δ.
        x_total = curve.theta * f_max / curve.delta
        xs = np.array(_minimax_breakpoints(x_total, n_segments))
        p = xs * curve.delta / curve.theta
        p[0], p[-1] = 0.0, f_max
    else:
        raise ValidationError(f"unknown spacing {spacing!r}")
    a = curve.value_array(p)
    # Clamp top to a_max exactly so a(f_max) == a_max for the fitted model:
    # the algorithms treat the fitted curve as the ground truth.
    a = a * (curve.a_max / a[-1]) if a[-1] > 0 else a
    a[0] = curve.a_min
    return PiecewiseLinearAccuracy(p, np.minimum(a, 1.0))


def fit_exponential_rows(
    theta: np.ndarray,
    n_segments: int = 5,
    *,
    a_min: float = 0.001,
    a_max: float = 0.82,
    coverage: float = 0.99999,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fit_piecewise` (minimax spacing) of many exponential curves.

    Curve ``j`` is ``ExponentialAccuracy(theta[j], a_min, a_max,
    coverage)``; returns its fitted breakpoints and accuracies as row
    ``j`` of two ``(n, n_segments + 1)`` matrices, equal bit for bit to
    the per-curve fit: the same floating-point operations in the same
    order, run once over the matrix.  The minimax breakpoints are
    computed once per distinct normalised span ``θ·f_max/Δ``, which
    rounds to a handful of values however many curves there are.
    """
    theta = np.asarray(theta, dtype=float)
    bad = ~(np.isfinite(theta) & (theta > 0.0))
    if bad.any():
        raise ValidationError(f"theta must be finite and > 0, got {float(theta[int(np.argmax(bad))])!r}")
    # Checks a_min, a_max and coverage as every curve's constructor would.
    ExponentialAccuracy(1.0, a_min=a_min, a_max=a_max, coverage=coverage)
    require(n_segments >= 1, f"n_segments must be >= 1, got {n_segments}")
    a_min, a_max = float(a_min), float(a_max)
    delta = a_max - a_min
    # ExponentialAccuracy.f_max, then fit_piecewise's normalised span.
    f_max = -delta * math.log1p(-coverage) / theta
    x_total = theta * f_max / delta
    distinct, which = np.unique(x_total, return_inverse=True)
    templates = np.array([_minimax_breakpoints(float(x), n_segments) for x in distinct])
    p = templates[which] * delta / theta[:, None]
    p[:, 0], p[:, -1] = 0.0, f_max
    # ExponentialAccuracy.value_array, then fit_piecewise's pinning.
    f = np.clip(p, 0.0, f_max[:, None])
    a = a_max - delta * np.exp(-theta[:, None] * f / delta)
    top = a[:, -1]
    a = np.where((top > 0)[:, None], a * (a_max / top)[:, None], a)
    a[:, 0] = a_min
    return p, np.minimum(a, 1.0)
