"""Unit tests for polarization loops, schedules, and solid angles."""

import math

import numpy as np
import pytest

from loopqed.poincare_path import (
    ClosureError,
    PathSpec,
    Schedule,
    concatenated_path,
    frozen_schedule,
    lasso_path,
    make_schedule,
    piecewise_path,
    rescaled_path,
    reversed_path,
    solid_angle,
)

TWO_PI = 2.0 * math.pi


def test_lasso_geometry():
    loop = lasso_path(math.pi, 8.0)
    # cap area 2*pi*(1 - cos theta0) = gamma inverts to theta0 = pi/3 here
    assert loop.theta0 == pytest.approx(math.pi / 3)
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
    assert loop0.theta0 == pytest.approx(0.0)
    assert solid_angle(loop0) == pytest.approx(0.0, abs=1e-12)
    # gamma = 2 pi: equator
    loop_eq = lasso_path(TWO_PI, 1.0)
    assert loop_eq.theta0 == pytest.approx(math.pi / 2)


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
        PathSpec("piecewise", ((0.0, 0.0), (1.0, 1.0)), (1.0,))
    # poles match regardless of azimuth
    spec = piecewise_path([(0.0, 0.0), (1.0, 0.5), (0.0, 4.0)], [1.0, 1.0])
    assert spec.total_time == pytest.approx(2.0)


def test_path_validation_errors():
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0)], [])  # too few knots
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0), (0.5, 0.0), (0.0, 0.0)], [1.0])  # count mismatch
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0), (4.0, 0.0), (0.0, 0.0)], [1.0, 1.0])  # theta range
    with pytest.raises(ValueError):
        piecewise_path([(0.0, 0.0), (0.5, 0.0), (0.0, 0.0)], [1.0, -1.0])


def test_rescaled_path():
    loop = lasso_path(math.pi, 4.0)
    fast = rescaled_path(loop, 1.0)
    assert fast.total_time == pytest.approx(1.0)
    assert fast.knots == loop.knots
    assert np.allclose(np.array(fast.durations) * 4.0, loop.durations)
    with pytest.raises(ValueError):
        rescaled_path(loop, 0.0)


def test_make_schedule_samples():
    loop = lasso_path(math.pi, 8.0)
    sched = make_schedule(loop, samples_per_leg=16)
    assert sched.times[0] == 0.0
    assert sched.duration == pytest.approx(8.0)
    assert np.all(np.diff(sched.times) > 0)
    theta, phi = sched.angles_at(0.0)
    assert (theta, phi) == (0.0, 0.0)
    theta_end, phi_end = sched.angles_at(8.0)
    assert theta_end == pytest.approx(0.0)
    assert phi_end == pytest.approx(TWO_PI)
    # middle of the azimuth sweep
    theta_mid, phi_mid = sched.angles_at(4.0)
    assert theta_mid == pytest.approx(math.pi / 3)
    assert phi_mid == pytest.approx(math.pi)


def test_schedule_max_rate_and_adiabaticity():
    loop = lasso_path(math.pi, 8.0)
    sched = make_schedule(loop, samples_per_leg=64, effective_coupling=100.0)
    # the azimuth sweep dominates: dphi/dt = 2*pi / 4.0
    assert sched.max_rate == pytest.approx(TWO_PI / 4.0)
    assert sched.metadata["adiabaticity_ratio"] == pytest.approx(TWO_PI / 400.0)
    # rate scales inversely with loop time
    slow = make_schedule(rescaled_path(loop, 80.0), samples_per_leg=64)
    assert slow.max_rate == pytest.approx(TWO_PI / 40.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 1.0, 1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        Schedule(np.array([0.5, 1.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        Schedule(np.array([0.0, 1.0]), np.zeros(3), np.zeros(2))


def test_frozen_schedule():
    sched = frozen_schedule(0.3, 1.2, 5.0)
    assert sched.max_rate == 0.0
    theta, phi = sched.angles_at(2.5)
    assert (theta, phi) == (0.3, 1.2)
    # zero-duration freeze is allowed (used for instantaneous references)
    point = frozen_schedule(0.1, 0.2, 0.0)
    assert point.duration == 0.0
    with pytest.raises(ValueError):
        frozen_schedule(0.1, 0.2, -1.0)


def test_solid_angle_accepts_schedules():
    loop = lasso_path(1.7, 3.0)
    sched = make_schedule(loop, samples_per_leg=512)
    assert solid_angle(sched) == pytest.approx(1.7, abs=1e-6)
