"""Closed polarization loops on the Poincare sphere.

A loop is a PathSpec: ordered sphere knots (theta, phi) joined by straight
legs in angle space, each leg with a positive duration.  The legs are the
one source of loop geometry: the enclosed solid angle and the peak sweep
rate are exact sums and maxima over them, with no sampling.  The workhorse
shape is the "lasso": descend a meridian from the pole to a circle of
constant theta0, sweep the azimuth through a full turn, and climb back to
the pole.  It encloses 2 pi (1 - cos theta0), and its time splits 1:2:1
over the three legs (LASSO_LEG_FRACTIONS).  dynamics propagates along the
legs directly: a straight leg at constant speed needs no time samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, coupling_weights

__all__ = [
    "PathSpec",
    "ClosureError",
    "lasso_path",
    "piecewise_path",
    "reversed_path",
    "concatenated_path",
    "rescaled_path",
    "solid_angle",
    "make_schedule",
]

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
        values = [x for knot in self.knots for x in knot] + list(self.durations)
        if not all(map(math.isfinite, values)):
            raise ValueError("knot angles and leg durations must be finite")
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


def make_schedule(
    spec: PathSpec,
    samples_per_leg: int = 256,
    effective_coupling: float | None = None,
) -> PathSpec:
    """The loop itself, which dynamics.evolve steps leg by leg.

    Kept for callers written when loops were sampled in time; neither
    samples_per_leg nor effective_coupling changes anything.
    """
    return spec


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
