"""Accuracy functions: piecewise-linear, exponential, and the fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accuracy import (
    ExponentialAccuracy,
    PiecewiseLinearAccuracy,
    fit_exponential_rows,
    fit_piecewise,
)
from repro.utils.errors import ValidationError

from conftest import simple_pla


# --------------------------------------------------------------------------
# hypothesis strategies
# --------------------------------------------------------------------------

@st.composite
def concave_pla(draw, max_segments=6):
    """A random concave piecewise-linear accuracy function."""
    k = draw(st.integers(1, max_segments))
    # Strictly decreasing positive slopes scaled to keep a_max <= 1.
    raw = sorted(
        draw(
            st.lists(
                st.floats(0.01, 1.0, allow_nan=False), min_size=k, max_size=k, unique=True
            )
        ),
        reverse=True,
    )
    widths = draw(st.lists(st.floats(0.05, 3.0), min_size=k, max_size=k))
    a_min = draw(st.floats(0.0, 0.05))
    total = sum(s * w for s, w in zip(raw, widths))
    scale = (0.9 - a_min) / total  # headroom keeps values inside [0, 1]
    slopes = [s * scale for s in raw]
    return PiecewiseLinearAccuracy.from_slopes(slopes, widths, a_min)


@st.composite
def exponential_curve(draw):
    theta = draw(st.floats(1e-3, 10.0))
    a_min = draw(st.floats(0.0, 0.05))
    a_max = draw(st.floats(0.3, 1.0))
    return ExponentialAccuracy(theta, a_min=a_min, a_max=a_max)


# --------------------------------------------------------------------------
# PiecewiseLinearAccuracy construction & validation
# --------------------------------------------------------------------------

class TestConstruction:
    def test_basic(self):
        pla = simple_pla()
        assert pla.n_segments == 2
        assert pla.f_max == pytest.approx(3e12)
        assert pla.a_min == 0.0
        assert pla.a_max == pytest.approx(2e-13 * 1e12 + 1e-13 * 2e12)

    def test_rejects_nonzero_first_breakpoint(self):
        with pytest.raises(ValidationError, match="first breakpoint"):
            PiecewiseLinearAccuracy([1.0, 2.0], [0.0, 0.5])

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearAccuracy([0.0, 2.0, 1.0], [0.0, 0.3, 0.5])

    def test_rejects_decreasing_accuracy(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearAccuracy([0.0, 1.0, 2.0], [0.0, 0.5, 0.4])

    def test_rejects_convexity(self):
        # Slopes 0.1 then 0.4: increasing — not concave.
        with pytest.raises(ValidationError, match="concave"):
            PiecewiseLinearAccuracy([0.0, 1.0, 2.0], [0.0, 0.1, 0.5])

    def test_rejects_accuracy_above_one(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearAccuracy([0.0, 1.0], [0.0, 1.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearAccuracy([0.0, 1.0, 2.0], [0.0, 0.5])

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearAccuracy([0.0], [0.0])

    def test_from_slopes_rejects_zero_width(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearAccuracy.from_slopes([0.1], [0.0])

    def test_single_segment_constructor(self):
        pla = PiecewiseLinearAccuracy.single_segment(0.5, 1.0, a_min=0.1)
        assert pla.n_segments == 1
        assert pla.value(1.0) == pytest.approx(0.6)

    def test_allows_plateau_segment(self):
        pla = PiecewiseLinearAccuracy([0.0, 1.0, 2.0], [0.0, 0.5, 0.5])
        assert pla.value(2.0) == pytest.approx(0.5)


class TestEvaluation:
    def test_value_clamps(self):
        pla = simple_pla()
        assert pla.value(-1.0) == pla.a_min
        assert pla.value(pla.f_max * 2) == pla.a_max

    def test_value_linear_inside_segment(self):
        pla = PiecewiseLinearAccuracy.single_segment(0.5, 1.0)
        assert pla.value(0.5) == pytest.approx(0.25)

    def test_value_array_matches_scalar(self):
        pla = simple_pla()
        fs = np.linspace(-1e12, 4e12, 37)
        assert np.allclose(pla.value_array(fs), [pla.value(f) for f in fs])

    def test_marginal_gain_at_zero(self):
        pla = simple_pla()
        assert pla.marginal_gain(0.0) == pytest.approx(2e-13)

    def test_marginal_gain_at_breakpoint_uses_next_segment(self):
        pla = simple_pla()
        assert pla.marginal_gain(1e12) == pytest.approx(1e-13)

    def test_marginal_gain_zero_at_fmax(self):
        pla = simple_pla()
        assert pla.marginal_gain(pla.f_max) == 0.0

    def test_marginal_loss_at_breakpoint_uses_previous_segment(self):
        pla = simple_pla()
        assert pla.marginal_loss(1e12) == pytest.approx(2e-13)

    def test_marginal_loss_at_zero_is_first_slope(self):
        pla = simple_pla()
        assert pla.marginal_loss(0.0) == pytest.approx(2e-13)

    def test_segment_index(self):
        pla = simple_pla()
        assert pla.segment_index(0.0) == 0
        assert pla.segment_index(1e12) == 1  # right-continuous at breakpoints
        assert pla.segment_index(pla.f_max) == 1

    def test_first_last_slopes(self):
        pla = simple_pla()
        assert pla.first_slope == pytest.approx(2e-13)
        assert pla.last_slope == pytest.approx(1e-13)


class TestInverse:
    def test_inverse_roundtrip(self):
        pla = simple_pla()
        for a in np.linspace(pla.a_min, pla.a_max, 11):
            f = pla.inverse(a)
            assert pla.value(f) == pytest.approx(a, abs=1e-12)

    def test_inverse_above_amax_raises(self):
        pla = simple_pla()
        with pytest.raises(ValidationError):
            pla.inverse(pla.a_max + 0.1)

    def test_inverse_below_amin_is_zero(self):
        pla = simple_pla()
        assert pla.inverse(pla.a_min / 2 - 1e-12) == 0.0

    def test_inverse_on_plateau_returns_left_edge(self):
        pla = PiecewiseLinearAccuracy([0.0, 1.0, 2.0], [0.0, 0.5, 0.5])
        assert pla.inverse(0.5) == pytest.approx(1.0)


class TestScaleFlops:
    def test_scale_preserves_accuracy(self):
        pla = simple_pla()
        scaled = pla.scale_flops(10.0)
        assert scaled.f_max == pytest.approx(10 * pla.f_max)
        assert scaled.value(10 * 1.5e12) == pytest.approx(pla.value(1.5e12))

    def test_scale_divides_slopes(self):
        pla = simple_pla()
        scaled = pla.scale_flops(4.0)
        assert scaled.first_slope == pytest.approx(pla.first_slope / 4.0)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            simple_pla().scale_flops(0.0)


class TestSegments:
    def test_segments_cover_domain(self):
        pla = simple_pla()
        segs = pla.segments()
        assert segs[0].f_start == 0.0
        assert segs[-1].f_end == pytest.approx(pla.f_max)
        assert sum(s.total_flops for s in segs) == pytest.approx(pla.f_max)

    def test_segment_gains_sum_to_span(self):
        pla = simple_pla()
        total_gain = sum(s.accuracy_gain for s in pla.segments())
        assert total_gain == pytest.approx(pla.a_max - pla.a_min)


# --------------------------------------------------------------------------
# hypothesis properties
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(concave_pla(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_property_monotone_nondecreasing(pla, u, v):
    f1, f2 = sorted([u * pla.f_max, v * pla.f_max])
    assert pla.value(f1) <= pla.value(f2) + 1e-12


@settings(max_examples=60, deadline=None)
@given(concave_pla(), st.floats(0.0, 1.0))
def test_property_concave_marginals(pla, u):
    f = u * pla.f_max
    assert pla.marginal_gain(f) <= pla.marginal_loss(f) + 1e-15


@settings(max_examples=60, deadline=None)
@given(concave_pla(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_property_chord_below_curve(pla, u, lam):
    """Concavity: the midpoint value dominates the chord value."""
    f1 = u * pla.f_max
    f2 = pla.f_max - f1
    f1, f2 = min(f1, f2), max(f1, f2)
    mid = lam * f1 + (1 - lam) * f2
    chord = lam * pla.value(f1) + (1 - lam) * pla.value(f2)
    assert pla.value(mid) >= chord - 1e-9


@settings(max_examples=60, deadline=None)
@given(concave_pla(), st.floats(0.001, 0.999))
def test_property_inverse_is_minimal(pla, frac):
    target = pla.a_min + frac * (pla.a_max - pla.a_min)
    f = pla.inverse(target)
    assert pla.value(f) >= target - 1e-9
    if f > pla.f_max * 1e-9:
        assert pla.value(f * (1 - 1e-6)) <= target + 1e-9


@settings(max_examples=40, deadline=None)
@given(exponential_curve())
def test_property_exponential_basics(curve):
    assert curve.value(0.0) == pytest.approx(curve.a_min, abs=1e-12)
    assert curve.value(curve.f_max) <= curve.a_max
    assert curve.derivative(0.0) == pytest.approx(curve.theta)


@settings(max_examples=40, deadline=None)
@given(exponential_curve(), st.floats(0.01, 0.99))
def test_property_exponential_inverse(curve, frac):
    target = curve.a_min + frac * (curve.value(curve.f_max) - curve.a_min)
    f = curve.f_for_accuracy(target)
    assert curve.value(f) == pytest.approx(target, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(exponential_curve(), st.integers(1, 8), st.sampled_from(["minimax", "geometric", "uniform"]))
def test_property_fit_is_concave_interpolation(curve, k, spacing):
    pla = fit_piecewise(curve, k, spacing=spacing)
    assert pla.n_segments == k
    assert pla.f_max == pytest.approx(curve.f_max, rel=1e-9)
    assert pla.a_max == pytest.approx(curve.a_max, rel=1e-6)
    # Interpolation of a concave curve never exceeds it (modulo the tiny
    # top-anchoring rescale).
    fs = np.linspace(0, curve.f_max, 50)
    assert np.all(pla.value_array(fs) <= curve.value_array(fs) + 2e-3)


def test_fit_minimax_beats_geometric_on_long_tail():
    """The motivating case: long-tailed curve, 5 segments."""
    curve = ExponentialAccuracy(0.1, coverage=0.99999)
    fs = np.linspace(0, curve.f_max, 3000)
    errors = {}
    for spacing in ("minimax", "geometric"):
        pla = fit_piecewise(curve, 5, spacing=spacing)
        errors[spacing] = np.abs(pla.value_array(fs) - curve.value_array(fs)).max()
    assert errors["minimax"] < errors["geometric"] / 3


@pytest.mark.parametrize(
    "a_min, a_max, coverage, k",
    [(0.001, 0.82, 0.99999, 5), (0.0, 1.0, 0.999, 3), (0.2, 0.3, 0.9, 1), (0.05, 0.95, 0.999999, 9)],
)
def test_fit_exponential_rows_matches_fit_piecewise_bit_for_bit(a_min, a_max, coverage, k):
    theta = np.random.default_rng(k).uniform(0.01, 3.0, 40) * 1e-12
    theta[::4] = theta[1]  # repeated curves share a template
    p, a = fit_exponential_rows(theta, k, a_min=a_min, a_max=a_max, coverage=coverage)
    for j, t in enumerate(theta):
        pla = fit_piecewise(ExponentialAccuracy(t, a_min=a_min, a_max=a_max, coverage=coverage), k)
        assert p[j].tobytes() == pla.breakpoints.tobytes()
        assert a[j].tobytes() == pla.breakpoint_accuracies.tobytes()


@pytest.mark.parametrize("theta", [0.0, -1e-12, float("nan"), float("inf")])
def test_fit_exponential_rows_rejects_bad_theta(theta):
    with pytest.raises(ValidationError):
        ExponentialAccuracy(theta)
    with pytest.raises(ValidationError):
        fit_exponential_rows(np.array([1e-12, theta]))


def test_fit_unknown_spacing_raises():
    with pytest.raises(ValidationError):
        fit_piecewise(ExponentialAccuracy(0.1), 5, spacing="nope")


def test_exponential_rejects_bad_params():
    with pytest.raises(ValidationError):
        ExponentialAccuracy(-1.0)
    with pytest.raises(ValidationError):
        ExponentialAccuracy(1.0, a_min=0.9, a_max=0.5)
    with pytest.raises(ValidationError):
        ExponentialAccuracy(1.0, coverage=1.0)
