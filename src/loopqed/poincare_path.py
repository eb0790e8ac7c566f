"""Closed polarization loops on the Poincare sphere and their time schedules.

A loop is a PathSpec: ordered sphere knots (theta, phi) joined by straight
legs in angle space, each leg with a positive duration.  The legs are the
one source of loop geometry: the enclosed solid angle and the peak sweep
rate are exact sums and maxima over them, with no sampling.  The workhorse
shape is the "lasso": descend a meridian from the pole to a circle of
constant theta0, sweep the azimuth through a full turn, and climb back to
the pole.  It encloses 2 pi (1 - cos theta0), and its time splits 1:2:1
over the three legs (LASSO_LEG_FRACTIONS).

Schedules sample a PathSpec uniformly in time per leg and interpolate
linearly; dynamics.evolve steps along them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import coupling_weights

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


def _same_drive(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Whether two knots give the Hamiltonian the same drive weights.

    The weights are (cos theta/2, sin theta/2 e^{i phi}) (coupling_weights),
    so the north pole matches at any azimuth and the south pole only at
    equal azimuth modulo 2 pi.
    """
    (plus_a, minus_a), (plus_b, minus_b) = coupling_weights(*a), coupling_weights(*b)
    return abs(plus_a - plus_b) + abs(minus_a - minus_b) <= CLOSURE_TOL


@dataclass(frozen=True)
class PathSpec:
    """Closed loop: sphere knots joined by straight legs, plus per-leg durations.

    knots are (theta, phi) pairs; phi is kept as an unreduced real number so
    windings survive (a full sweep ends at phi = 2 pi, the same sphere point
    as phi = 0).  Closure is judged on the drive weights, not on sphere
    points (see _same_drive): the north pole closes at any azimuth, the
    south pole only at equal azimuth modulo 2 pi.  Each leg runs linearly
    in (theta, phi) at constant speed, which makes solid_angle and max_rate
    exact closed forms over the legs.
    """

    knots: tuple[tuple[float, float], ...]
    durations: tuple[float, ...]

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
        if not _same_drive(self.knots[0], self.knots[-1]):
            raise ClosureError(
                "path is not closed: first and last knots give different drive weights"
            )

    @property
    def total_time(self) -> float:
        return float(sum(self.durations))

    @property
    def max_rate(self) -> float:
        """Peak sweep speed hypot(dtheta, dphi) / duration over the legs (rad/ms)."""
        return max(
            math.hypot(th_b - th_a, ph_b - ph_a) / dur
            for (th_a, ph_a), (th_b, ph_b), dur in zip(
                self.knots, self.knots[1:], self.durations
            )
        )


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
    return PathSpec(knots, durations)


def piecewise_path(
    knots: list[tuple[float, float]], durations: list[float]
) -> PathSpec:
    """General closed loop through the given knots with per-leg durations."""
    return PathSpec(tuple(knots), tuple(durations))


def reversed_path(spec: PathSpec) -> PathSpec:
    """The same loop traversed in the opposite direction.

    Knots and leg durations are reversed; the enclosed solid angle changes
    sign.  Lasso timing (LASSO_LEG_FRACTIONS is symmetric) makes the reversed
    drive exactly the complex conjugate of the forward one.
    """
    return PathSpec(tuple(reversed(spec.knots)), tuple(reversed(spec.durations)))


def concatenated_path(first: PathSpec, second: PathSpec) -> PathSpec:
    """Traverse first, then second, which must start in the drive first ends in.

    The second path's azimuths are re-branched by a whole number of turns
    so that the running azimuth stays continuous across the junction;
    cumulative winding (and hence signed solid angle) is preserved when a
    loop is concatenated with itself.
    """
    if not _same_drive(first.knots[-1], second.knots[0]):
        raise ClosureError("loops do not share a junction point")
    shift = TWO_PI * round((first.knots[-1][1] - second.knots[0][1]) / TWO_PI)
    shifted = tuple((th, ph + shift) for th, ph in second.knots[1:])
    knots = first.knots + shifted
    return PathSpec(knots, first.durations + second.durations)


def rescaled_path(spec: PathSpec, new_total_time: float) -> PathSpec:
    """Same geometry, durations scaled to a new total."""
    if new_total_time <= 0:
        raise ValueError(f"new_total_time must be positive, got {new_total_time}")
    scale = new_total_time / spec.total_time
    return PathSpec(spec.knots, tuple(d * scale for d in spec.durations))


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


def make_schedule(
    spec: PathSpec,
    samples_per_leg: int = 256,
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
        spec.max_rate / effective_coupling; values well below 1 justify
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
    meta = {"max_rate": spec.max_rate}
    if effective_coupling is not None and effective_coupling > 0:
        meta["adiabaticity_ratio"] = spec.max_rate / effective_coupling
    return Schedule(*(np.concatenate(part) for part in (times, thetas, phis)), meta)


def frozen_schedule(theta: float, phi: float, duration: float) -> Schedule:
    """Constant-polarization schedule of the given duration (duration >= 0)."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    size = 1 if duration == 0.0 else 2
    times = np.array([0.0, duration][:size])
    return Schedule(times, np.full(size, theta), np.full(size, phi), {"max_rate": 0.0})


def solid_angle(spec: PathSpec) -> float:
    """Signed solid angle enclosed by a closed loop, exact for straight legs.

    Integrates (1 - cos theta) d phi along each leg in closed form: a leg
    from (theta_a, phi_a) to (theta_b, phi_b) contributes
    dphi (1 - cos(mean theta) sinc(dtheta / 2)), with sinc(x) = sin(x)/x.
    The sign follows the traversal direction: a lasso swept with increasing
    phi is positive, its reversal negative.  Meridian legs carry dphi = 0,
    so a lasso gives 2 pi (1 - cos theta0) directly.
    """
    knots = np.asarray(spec.knots, dtype=float)
    theta, phi = knots[:, 0], knots[:, 1]
    mean_theta = 0.5 * (theta[:-1] + theta[1:])
    # np.sinc(x) = sin(pi x)/(pi x), so this is sin(dtheta/2)/(dtheta/2)
    sinc = np.sinc(np.diff(theta) / TWO_PI)
    return float(np.sum(np.diff(phi) * (1.0 - np.cos(mean_theta) * sinc)))
