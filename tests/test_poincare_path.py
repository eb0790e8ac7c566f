"""Unit tests for polarization loops and solid angles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopqed.poincare_path import (
    ClosureError,
    PathSpec,
    concatenated_path,
    lasso_path,
    piecewise_path,
    rescaled_path,
    reversed_path,
    solid_angle,
)

TWO_PI = 2.0 * math.pi


def test_lasso_geometry():
    loop = lasso_path(math.pi, 8.0)
    # cap area 2*pi*(1 - cos theta0) = gamma inverts to theta0 = pi/3 here
    assert loop.knots[1][0] == pytest.approx(math.pi / 3)
    expected_knots = (
        (0.0, 0.0),
        (math.pi / 3, 0.0),
        (math.pi / 3, TWO_PI),
        (0.0, TWO_PI),
    )
    for got, want in zip(loop.knots, expected_knots):
        assert got == pytest.approx(want, abs=1e-12)
    assert loop.total_time == pytest.approx(8.0)
    assert loop.durations == pytest.approx((2.0, 4.0, 2.0))


def test_lasso_validation():
    with pytest.raises(ValueError):
        lasso_path(-0.1, 1.0)
    with pytest.raises(ValueError):
        lasso_path(2 * TWO_PI, 1.0)  # 4 pi exactly is out of range
    with pytest.raises(ValueError):
        lasso_path(math.pi, 0.0)


def test_lasso_gamma_edge_cases():
    # gamma = 0: degenerate loop pinned at the pole
    loop0 = lasso_path(0.0, 1.0)
    assert loop0.knots[1][0] == pytest.approx(0.0)
    assert solid_angle(loop0) == pytest.approx(0.0, abs=1e-12)
    # gamma = 2 pi: equator
    loop_eq = lasso_path(TWO_PI, 1.0)
    assert loop_eq.knots[1][0] == pytest.approx(math.pi / 2)


@pytest.mark.parametrize(
    "gamma", [0.3, math.pi / 2, math.pi, 1.5 * math.pi, TWO_PI, 2.5 * math.pi]
)
def test_solid_angle_quadrature_matches_cap_formula(gamma):
    loop = lasso_path(gamma, 5.0)
    assert abs(solid_angle(loop) - gamma) < 1e-10


def test_solid_angle_signed_under_reversal():
    loop = lasso_path(math.pi, 4.0)
    back = reversed_path(loop)
    assert solid_angle(back) == pytest.approx(-math.pi, abs=1e-10)
    assert back.total_time == pytest.approx(loop.total_time)
    assert back.knots == tuple(reversed(loop.knots))


def test_concatenation_doubles_solid_angle():
    loop = lasso_path(math.pi / 2, 3.0)
    double = concatenated_path(loop, loop)
    assert solid_angle(double) == pytest.approx(2 * solid_angle(loop), abs=1e-10)
    assert double.total_time == pytest.approx(6.0)


def test_concatenation_checks_junction():
    a = lasso_path(math.pi, 2.0)
    # a piecewise loop starting elsewhere cannot be appended
    b = piecewise_path(
        [(1.0, 0.0), (1.0, TWO_PI)],
        [2.0],
    )
    with pytest.raises(ClosureError):
        concatenated_path(a, b)


def test_piecewise_requires_closure():
    with pytest.raises(ClosureError):
        PathSpec(((0.0, 0.0), (1.0, 1.0)), (1.0,))
    # poles match regardless of azimuth
    spec = piecewise_path([(0.0, 0.0), (1.0, 0.5), (0.0, 4.0)], [1.0, 1.0])
    assert spec.total_time == pytest.approx(2.0)


def test_closure_is_judged_on_the_drive_weights():
    # the south pole's drive weights (0, e^{i phi}) differ at each azimuth:
    # returning there at phi = 1 leaves the Hamiltonian somewhere else
    south = math.pi
    with pytest.raises(ClosureError):
        piecewise_path(
            [(south, 0.0), (math.pi / 2, 0.0), (math.pi / 2, 1.0), (south, 1.0)],
            [1.0, 1.0, 1.0],
        )
    closed = piecewise_path(
        [(south, 0.0), (math.pi / 2, 0.0), (math.pi / 2, TWO_PI), (south, TWO_PI)],
        [1.0, 1.0, 1.0],
    )
    # a junction at the south pole needs the same azimuth modulo 2 pi too
    assert concatenated_path(closed, closed).total_time == pytest.approx(6.0)
    turned = PathSpec(tuple((th, ph + 1.0) for th, ph in closed.knots), closed.durations)
    with pytest.raises(ClosureError):
        concatenated_path(closed, turned)


def test_path_validation_errors():
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0)], [])  # too few knots
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0), (0.5, 0.0), (0.0, 0.0)], [1.0])  # count mismatch
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0), (4.0, 0.0), (0.0, 0.0)], [1.0, 1.0])  # theta range
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0), (0.5, 0.0), (0.0, 0.0)], [1.0, -1.0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: lasso_path(math.pi, math.nan),
        lambda: lasso_path(math.pi, math.inf),
        lambda: piecewise_path([(0.0, 0.0), (0.5, math.inf), (0.0, 0.0)], [1.0, 1.0]),
        lambda: piecewise_path([(0.0, 0.0), (0.5, -math.inf), (0.0, 0.0)], [1.0, 1.0]),
        lambda: piecewise_path([(0.0, 0.0), (math.nan, 1.0), (0.0, 0.0)], [1.0, 1.0]),
        lambda: piecewise_path([(0.0, 0.0), (0.5, 1.0), (0.0, 0.0)], [1.0, math.nan]),
        lambda: rescaled_path(lasso_path(math.pi, 1.0), math.inf),
    ],
    ids=[
        "lasso-nan-time", "lasso-inf-time", "inf-azimuth", "minus-inf-azimuth",
        "nan-theta", "nan-duration", "rescaled-to-inf",
    ],
)
def test_non_finite_angles_and_durations_are_refused(build):
    # refused where the loop is made, not in LAPACK inside a propagator
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_rescaled_path():
    loop = lasso_path(math.pi, 4.0)
    fast = rescaled_path(loop, 1.0)
    assert fast.total_time == pytest.approx(1.0)
    assert fast.knots == loop.knots
    assert np.allclose(np.array(fast.durations) * 4.0, loop.durations)
    with pytest.raises(ValueError):
        rescaled_path(loop, 0.0)


def test_path_max_rate_is_exact_per_leg():
    # descent pi/3 over 2 ms, sweep 2 pi over 4 ms, return pi/3 over 2 ms
    loop = lasso_path(math.pi, 8.0)
    assert loop.max_rate == TWO_PI / 4.0
    # the rate scales inversely with the loop time
    assert rescaled_path(loop, 80.0).max_rate == pytest.approx(TWO_PI / 40.0)
    # a leg moving in theta and phi at once: hypot(0.6, 0.8) = 1 over 0.5 ms
    tilted = piecewise_path([(0.0, 0.0), (0.6, 0.8), (0.0, 0.0)], [0.5, 2.0])
    assert tilted.max_rate == pytest.approx(2.0)


def test_solid_angle_is_exact_on_tilted_legs():
    # theta and phi both change along each leg; the leg integral of
    # (1 - cos theta) dphi is dphi (1 - (sin theta_b - sin theta_a) / dtheta)
    knots = [(0.0, 0.0), (0.9, 0.4), (1.4, 2.5), (0.6, 5.0), (0.0, TWO_PI)]
    spec = piecewise_path(knots, [0.2, 0.35, 0.15, 0.1])
    expected = 0.0
    for (th_a, ph_a), (th_b, ph_b) in zip(knots, knots[1:]):
        expected += (ph_b - ph_a) * (
            1.0 - (math.sin(th_b) - math.sin(th_a)) / (th_b - th_a)
        )
    assert solid_angle(spec) == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# solid-angle properties over random closed piecewise loops


@st.composite
def closed_paths(draw):
    """Closed loops: a start knot, 1-5 free knots, and the start again,
    re-branched by a whole number of azimuth turns."""
    theta = st.floats(0.0, math.pi)
    phi = st.floats(-TWO_PI, TWO_PI)
    start = (draw(theta), draw(phi))
    middle = draw(st.lists(st.tuples(theta, phi), min_size=1, max_size=5))
    winding = draw(st.integers(-1, 1))
    knots = [start, *middle, (start[0], start[1] + winding * TWO_PI)]
    durations = draw(
        st.lists(st.floats(0.01, 10.0), min_size=len(knots) - 1, max_size=len(knots) - 1)
    )
    return piecewise_path(knots, durations)


def _dense_trapezoid(spec, intervals_per_leg=2**19):
    # reference: composite trapezoid of (1 - cos theta) dphi along each
    # straight leg; its error is below 1e-10 for every leg drawn above
    s = np.linspace(0.0, 1.0, intervals_per_leg + 1)
    total = 0.0
    for (th_a, ph_a), (th_b, ph_b) in zip(spec.knots, spec.knots[1:]):
        f = 1.0 - np.cos(th_a + s * (th_b - th_a))
        total += (ph_b - ph_a) * (f.sum() - 0.5 * (f[0] + f[-1])) / intervals_per_leg
    return total


@settings(max_examples=60)
@given(closed_paths())
def test_solid_angle_reversal_negates(spec):
    assert solid_angle(reversed_path(spec)) == pytest.approx(-solid_angle(spec), abs=1e-12)


@settings(max_examples=60)
@given(closed_paths())
def test_solid_angle_self_concatenation_doubles(spec):
    double = concatenated_path(spec, spec)
    assert solid_angle(double) == pytest.approx(2.0 * solid_angle(spec), abs=1e-12)


@settings(max_examples=60)
@given(closed_paths(), st.floats(0.01, 100.0))
def test_solid_angle_ignores_timing(spec, new_total):
    assert solid_angle(rescaled_path(spec, new_total)) == solid_angle(spec)


@settings(max_examples=60)
@given(closed_paths())
def test_solid_angle_ignores_a_whole_turn_of_azimuth(spec):
    turned = PathSpec(tuple((th, ph + TWO_PI) for th, ph in spec.knots), spec.durations)
    assert solid_angle(turned) == pytest.approx(solid_angle(spec), abs=1e-12)


@settings(max_examples=25)
@given(closed_paths())
def test_solid_angle_matches_dense_trapezoid(spec):
    assert solid_angle(spec) == pytest.approx(_dense_trapezoid(spec), abs=1e-9)
