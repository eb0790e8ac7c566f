"""Closed polarization loops on the Poincare sphere and their time schedules.

A loop is a PathSpec: ordered sphere knots (theta, phi) joined by straight
legs in angle space, each leg with a positive duration.  The workhorse shape
is the "lasso": descend a meridian from the pole to a circle of constant
theta, sweep the azimuth through a full turn, and climb back to the pole.
Its enclosed (signed) solid angle has the closed form 2 pi (1 - cos theta0),
and its time splits 1:2:1 over the three legs (LASSO_LEG_FRACTIONS).

Schedules sample a PathSpec uniformly in time per leg and interpolate
linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PathSpec",
    "Schedule",
    "ClosureError",
    "lasso_path",
    "piecewise_path",
    "reversed_path",
    "concatenated_path",
    "rescaled_path",
    "solid_angle",
    "make_schedule",
    "frozen_schedule",
]

TWO_PI = 2.0 * math.pi
CLOSURE_TOL = 1e-12
# lasso time split between descent, azimuthal sweep and return
LASSO_LEG_FRACTIONS = (0.25, 0.5, 0.25)


class ClosureError(ValueError):
    """Raised when an operation requiring a closed loop receives an open one."""


def _sphere_xyz(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )


def _is_closed(knots: list[tuple[float, float]], tol: float = CLOSURE_TOL) -> bool:
    first = _sphere_xyz(*knots[0])
    last = _sphere_xyz(*knots[-1])
    return bool(np.linalg.norm(first - last) <= tol)


@dataclass(frozen=True)
class PathSpec:
    """Closed loop: sphere knots plus per-leg durations.

    knots are (theta, phi) pairs; phi is kept as an unreduced real number so
    windings survive (a full sweep ends at phi = 2 pi, the same sphere point
    as phi = 0).  Closure is judged on sphere points, so the poles match at
    any azimuth.  kind is "lasso" for loops built by lasso_path, otherwise
    "piecewise".
    """

    kind: str
    knots: tuple[tuple[float, float], ...]
    durations: tuple[float, ...]
    theta0: float | None = None

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("a path needs at least two knots")
        if len(self.durations) != len(self.knots) - 1:
            raise ValueError(
                f"{len(self.knots)} knots need {len(self.knots) - 1} leg durations, "
                f"got {len(self.durations)}"
            )
        for theta, _ in self.knots:
            if not -1e-12 <= theta <= math.pi + 1e-12:
                raise ValueError(f"theta = {theta} outside [0, pi]")
        if any(d <= 0 for d in self.durations):
            raise ValueError("all leg durations must be positive")
        if not _is_closed(list(self.knots)):
            raise ClosureError(
                "path is not closed: first and last knots are distinct sphere points"
            )

    @property
    def total_time(self) -> float:
        return float(sum(self.durations))


def lasso_path(gamma_target: float, total_time: float) -> PathSpec:
    """Lasso loop enclosing a prescribed solid angle.

    Parameters
    ----------
    gamma_target : float
        Desired signed solid angle in steradians, in [0, 4 pi).  The polar
        radius follows from inverting the spherical-cap area:
        theta0 = arccos(1 - gamma_target / (2 pi)).
    total_time : float
        Loop duration in ms, split over the descent, azimuthal sweep and
        return legs in the proportions LASSO_LEG_FRACTIONS.

    The azimuth at the pole is fixed to 0 by convention (it is undefined
    there); the sweep runs phi from 0 to 2 pi and the return leg keeps
    phi = 2 pi, which is the same meridian as phi = 0.
    """
    if not 0.0 <= gamma_target < 2.0 * TWO_PI:
        raise ValueError(
            f"gamma_target must lie in [0, 4 pi), got {gamma_target}"
        )
    if total_time <= 0:
        raise ValueError(f"total_time must be positive, got {total_time}")
    theta0 = math.acos(1.0 - gamma_target / TWO_PI)
    knots = ((0.0, 0.0), (theta0, 0.0), (theta0, TWO_PI), (0.0, TWO_PI))
    durations = tuple(f * total_time for f in LASSO_LEG_FRACTIONS)
    return PathSpec("lasso", knots, durations, theta0=theta0)


def piecewise_path(
    knots: list[tuple[float, float]], durations: list[float]
) -> PathSpec:
    """General closed loop through the given knots with per-leg durations."""
    return PathSpec("piecewise", tuple(knots), tuple(durations))


def reversed_path(spec: PathSpec) -> PathSpec:
    """The same loop traversed in the opposite direction.

    Knots and leg durations are reversed; the enclosed solid angle changes
    sign.  Lasso timing (LASSO_LEG_FRACTIONS is symmetric) makes the reversed
    drive exactly the complex conjugate of the forward one.
    """
    return PathSpec(
        "piecewise",
        tuple(reversed(spec.knots)),
        tuple(reversed(spec.durations)),
        theta0=spec.theta0,
    )


def concatenated_path(first: PathSpec, second: PathSpec) -> PathSpec:
    """Traverse first, then second.  Both must share the junction point.

    The second path's azimuths are re-branched by a whole number of turns
    so that the running azimuth stays continuous across the junction;
    cumulative winding (and hence signed solid angle) is preserved when a
    loop is concatenated with itself.
    """
    end = _sphere_xyz(*first.knots[-1])
    start = _sphere_xyz(*second.knots[0])
    if np.linalg.norm(end - start) > CLOSURE_TOL:
        raise ClosureError("loops do not share a junction point")
    shift = TWO_PI * round((first.knots[-1][1] - second.knots[0][1]) / TWO_PI)
    shifted = tuple((th, ph + shift) for th, ph in second.knots[1:])
    knots = first.knots + shifted
    return PathSpec("piecewise", knots, first.durations + second.durations)


def rescaled_path(spec: PathSpec, new_total_time: float) -> PathSpec:
    """Same geometry, durations scaled to a new total."""
    if new_total_time <= 0:
        raise ValueError(f"new_total_time must be positive, got {new_total_time}")
    scale = new_total_time / spec.total_time
    return PathSpec(
        spec.kind,
        spec.knots,
        tuple(d * scale for d in spec.durations),
        theta0=spec.theta0,
    )


@dataclass(frozen=True)
class Schedule:
    """Time-sampled loop: arrays (times, thetas, phis) with linear interpolation.

    times start at 0 and increase; metadata carries the maximum parameter
    sweep rate and, when an effective coupling was supplied, the
    adiabaticity ratio max rate / coupling.
    """

    times: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        th = np.asarray(self.thetas, dtype=float)
        ph = np.asarray(self.phis, dtype=float)
        if not (t.shape == th.shape == ph.shape) or t.ndim != 1 or t.size < 1:
            raise ValueError("times, thetas, phis must be equal-length 1-D arrays")
        if t[0] != 0.0:
            raise ValueError(f"schedule must start at t = 0, got {t[0]}")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("schedule times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "phis", ph)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def angles_at(self, t):
        """Linearly interpolated (theta, phi) at scalar or array times."""
        theta = np.interp(t, self.times, self.thetas)
        phi = np.interp(t, self.times, self.phis)
        return theta, phi

    @property
    def max_rate(self) -> float:
        """Peak finite-difference speed sqrt(dtheta^2 + dphi^2)/dt over samples."""
        if self.times.size < 2:
            return 0.0
        dt = np.diff(self.times)
        dth = np.diff(self.thetas)
        dph = np.diff(self.phis)
        return float(np.max(np.hypot(dth, dph) / dt))


def make_schedule(
    spec: PathSpec,
    samples_per_leg: int = 64,
    effective_coupling: float | None = None,
) -> Schedule:
    """Sample a PathSpec uniformly in time along each leg.

    Parameters
    ----------
    spec : PathSpec
    samples_per_leg : int
        At least 2; number of intervals per leg is samples_per_leg - 1.
    effective_coupling : float, optional
        When given (rad/ms), metadata includes adiabaticity_ratio =
        max sweep rate / effective_coupling; values well below 1 justify
        the adiabatic approximation.
    """
    if samples_per_leg < 2:
        raise ValueError(f"samples_per_leg must be >= 2, got {samples_per_leg}")
    fracs = np.linspace(0.0, 1.0, samples_per_leg)[1:]
    times = [np.array([0.0])]
    thetas = [np.array([spec.knots[0][0]], dtype=float)]
    phis = [np.array([spec.knots[0][1]], dtype=float)]
    t0 = 0.0
    for leg, dur in enumerate(spec.durations):
        (th_a, ph_a), (th_b, ph_b) = spec.knots[leg], spec.knots[leg + 1]
        times.append(t0 + fracs * dur)
        thetas.append(th_a + fracs * (th_b - th_a))
        phis.append(ph_a + fracs * (ph_b - ph_a))
        t0 += dur
    sched = Schedule(*(np.concatenate(part) for part in (times, thetas, phis)))
    meta = {"max_rate": sched.max_rate, "source_kind": spec.kind}
    if effective_coupling is not None and effective_coupling > 0:
        meta["adiabaticity_ratio"] = sched.max_rate / effective_coupling
    object.__setattr__(sched, "metadata", meta)
    return sched


def frozen_schedule(theta: float, phi: float, duration: float) -> Schedule:
    """Constant-polarization schedule of the given duration (duration >= 0)."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if duration == 0.0:
        times = np.array([0.0])
        return Schedule(times, np.array([theta]), np.array([phi]), {"max_rate": 0.0})
    times = np.array([0.0, duration])
    sched = Schedule(times, np.array([theta, theta]), np.array([phi, phi]))
    object.__setattr__(sched, "metadata", {"max_rate": 0.0})
    return sched


def _closed_samples(obj, samples_per_leg: int):
    """(thetas, phis) arrays tracing the loop, validated closed."""
    if isinstance(obj, PathSpec):
        sched = make_schedule(obj, samples_per_leg=samples_per_leg)
        return sched.thetas, sched.phis
    if isinstance(obj, Schedule):
        first = _sphere_xyz(float(obj.thetas[0]), float(obj.phis[0]))
        last = _sphere_xyz(float(obj.thetas[-1]), float(obj.phis[-1]))
        if np.linalg.norm(first - last) > 1e-9:
            raise ClosureError("schedule endpoints are distinct sphere points")
        return obj.thetas, obj.phis
    raise TypeError(f"expected PathSpec or Schedule, got {type(obj).__name__}")


def solid_angle(obj, samples_per_leg: int = 2049) -> float:
    """Signed solid angle enclosed by a closed loop.

    Evaluates the line integral of (1 - cos theta) d phi by composite
    trapezoid over the loop samples.  The sign follows the traversal
    direction: a lasso swept with increasing phi is positive, its reversal
    negative.  For lassos the quadrature is exact (meridian legs carry
    d phi = 0 and the sweep leg has constant theta), matching
    2 pi (1 - cos theta0) to rounding error.
    """
    thetas, phis = _closed_samples(obj, samples_per_leg)
    f = 1.0 - np.cos(thetas)
    dphi = np.diff(phis)
    return float(np.sum(0.5 * (f[:-1] + f[1:]) * dphi))
