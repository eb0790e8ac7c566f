"""Dressed-branch transport phases, the ideal phase map and the analytic laws.

Conventions used throughout (and relied on by the tests):

* The total phase of a transport run is the overlap argument
  arg<initial|final>, and its magnitude is the cyclicity.
* The dynamical phase removed is -E0 T, which is what a twin run with the
  drive polarization frozen at its starting point gives an eigenstate.
  Geometric phase is the wrapped difference.  Transport runs step W^H psi
  through dynamics' drive-frame leg loop inside the doublet's excitation
  sector, which must be complete; there H(theta, phi) = W H(0, 0) W^H with
  W = exp(-i phi N-) exp(-i theta K), so the tracked level's gap is exact
  and constant along any loop, and the steps are exact on azimuth and
  meridian legs at any dt.  Such a lasso leg takes one step, or
  ceil(leg / dt) when dt is given, and a tilted leg ceil(leg / dt) steps.
  min_adiabatic_fidelity is read in closed form on lasso legs and sampled
  on tilted ones.
* A closed polarization loop that encloses signed solid angle gamma, swept
  with increasing azimuth, advances each bright-mode photon by +gamma/2,
  each dark-mode photon by -gamma/2, and the half-shared atomic excitation
  of a resonant doublet by +gamma/4.  The loop's traversal direction flips
  every sign.

The analytic doublet law (analytic_dressed_phase) assigns +-gamma/2
(n - m + 1/2) to the doublet built on basis states |2,n,m> and |1,n+1,m>.
Numerically this common-phase law is exact when the doublet is resonant,
i.e. when both members carry the same diagonal energy (the vacuum doublet
at equal coupling rates; higher doublets when omega_drive**2 =
g**2 (n + 1 + m)).  Away from resonance the two branches transport
different bright-photon contents and the law holds only as the branch
average; the numerical experiment is the arbiter, and run metadata carries
enough diagnostics to see this.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple

import numpy as np

from .hilbert import (
    SpaceConfig, StateVector, _Checked, basis_labels, require_complete, state_index,
)
from .model import TWO_PI, HamiltonianFactory, ModelParams, excitation_sector_indices
from .poincare_path import PathSpec, reversed_path
from .dynamics import FRAME_STEPS, _frame_legs, _resolve_steps, _routes, _step_size

__all__ = [
    "PhaseReading",
    "NonCyclicWarning",
    "DegeneracyError",
    "wrap_phase",
    "analytic_dressed_phase",
    "adiabatic_eigenstate_transport",
    "dressed_phase_pair",
    "ideal_phase_map",
]

CYCLICITY_FLOOR = 0.99
# the tracked level's gap must stay above this multiple of the peak sweep rate
GAP_FACTOR = 10.0
# adiabatic fidelity is sampled about this many times over a run's tilted legs
FIDELITY_SAMPLES = 256
# on lasso legs it is read in closed form on about this many points a loop:
# on the dressed-doublets workload's seed-0 rows 4 096 points come within
# 6.4e-8 of a 65 536-point minimum, and 256 within 3e-6
FIDELITY_GRID = 4096


class NonCyclicWarning(UserWarning):
    """Signals that a transport run's return overlap has small magnitude."""


class DegeneracyError(RuntimeError):
    """Raised when the tracked eigenvalue loses its safety gap along a loop."""


def wrap_phase(x):
    """Wrap an angle to the interval (-pi, pi].

    An array of angles gives an array, a scalar a float.
    """
    w = np.remainder(np.add(x, math.pi), TWO_PI) - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return float(w) if w.ndim == 0 else w


class PhaseReading(_Checked, namedtuple("PhaseReading", "total_phase dynamical_phase "
                                                  "geometric_phase cyclicity metadata")):
    """Decomposed phase of one cyclic run.

    geometric_phase always equals wrap_phase(total_phase - dynamical_phase);
    the constructor enforces it.  metadata defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, total_phase: float, dynamical_phase: float, geometric_phase: float,
                cyclicity: float, metadata: dict | None = None):
        expect = wrap_phase(total_phase - dynamical_phase)
        # written so that NaN fails too
        if not abs(wrap_phase(geometric_phase - expect)) <= 1e-9:
            raise ValueError(
                "geometric_phase must equal wrap(total - dynamical): "
                f"{geometric_phase} vs {expect}"
            )
        if not -1e-10 <= cyclicity <= 1.0 + 1e-10:
            raise ValueError(f"cyclicity {cyclicity} outside [0, 1]")
        return super().__new__(cls, total_phase, dynamical_phase, geometric_phase, cyclicity,
                               {} if metadata is None else metadata)


def analytic_dressed_phase(n: int, m: int, gamma: float, branch: str) -> float:
    """Closed-form geometric phase of a dressed doublet branch.

    The doublet is the one built on |2,n,m> and |1,n+1,m>; branch "upper"
    returns +gamma/2 (n - m + 1/2), branch "lower" the negative.  Exact
    linearity in gamma and oddness under branch swap hold by construction.
    """
    _check_labels(n, m, "photon labels")
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    sign = 1.0 if branch == "upper" else -1.0
    return sign * 0.5 * gamma * (n - m + 0.5)


def _check_labels(n, m, what: str) -> None:
    """Refuse photon labels that are not integers >= 0."""
    if not all(isinstance(x, (int, np.integer)) for x in (n, m)):
        raise ValueError(f"{what} must be integers, got ({n!r}, {m!r})")
    if n < 0 or m < 0:
        raise ValueError(f"{what} must be >= 0, got ({n}, {m})")


def _select_doublet_branch(
    h_pole: np.ndarray,
    sector: list[int],
    space: SpaceConfig,
    n: int,
    m: int,
    branch: str,
):
    """Eigenpairs of the sector's H(0, 0) and the column of the (n, m) doublet.

    At the north pole the drive couples |2,n,m> to |1,n+1,m> alone, so the
    doublet is an exact 2-state block of H(0, 0): its two eigenvectors are
    the two with all their weight on those states.
    """
    w, v = np.linalg.eigh(h_pole)
    loc2 = sector.index(state_index(space, 2, n, m))
    loc1 = sector.index(state_index(space, 1, n + 1, m))
    projection = np.abs(v[loc2, :]) ** 2 + np.abs(v[loc1, :]) ** 2
    candidates = np.argsort(projection)[::-1][:2]
    upper_col = candidates[np.argmax(w[candidates])]
    lower_col = candidates[np.argmin(w[candidates])]
    col = upper_col if branch == "upper" else lower_col
    return w, v, int(col)


def adiabatic_eigenstate_transport(
    space: SpaceConfig,
    params: ModelParams,
    loop: PathSpec,
    doublet: tuple[int, int],
    branch: str = "upper",
    dt: float | None = None,
) -> PhaseReading:
    """Carry one dressed doublet branch around a loop and read its phases.

    The run starts in the eigenstate of H at the loop's first knot that
    belongs to the (n, m) doublet (the one spanned by |2,n,m> and
    |1,n+1,m> at the north pole) on the requested branch, and decomposes
    the Pancharatnam phase of its return into dynamical and geometric
    parts.  It is stepped inside its excitation sector in the drive frame
    W = exp(-i phi N-) exp(-i theta K), where H(theta, phi) = W H(0, 0)
    W^H: chi = W^H psi starts at the branch's eigenvector u of H(0, 0)
    and goes through dynamics' leg loop: exact steps on azimuth and
    meridian legs, one a leg when dt is None and ceil(leg duration / dt)
    when dt is given, and ceil(leg duration / dt) sixth-order Magnus steps
    on tilted legs (dt defaults to the loop duration / 750 there).  On a
    closed loop W(start)^H W(end) is exp(-i dphi N-), dphi the azimuth the
    loop winds (a diagonal phase when it closes at the north pole, the
    identity otherwise), so the return overlap is
    <u| exp(-i dphi N-) chi(T)>.  The eigenvectors of H along the loop are
    W times those of H(0, 0), so min_adiabatic_fidelity, the state's worst
    largest overlap with an instantaneous eigenvector, is read against
    H(0, 0)'s: on a lasso leg in closed form on about FIDELITY_GRID points
    a loop, from the eigenpairs of the leg's last step and the state at its
    end (_exact_leg_fidelity), with no further eigendecomposition, and on
    tilted legs from the state after about FIDELITY_SAMPLES of their
    steps, evenly spread, and at each one's end.

    The doublet's sector k = n + 1 + m must be complete (k <= min(nmax_plus,
    nmax_minus)).  There H at every point of the sphere is unitarily
    equivalent to H(0, 0), so the spectrum is the same all along the loop:
    e0 and min_gap, the tracked level's distance to the nearest other
    level of the sector, are exact from the one eigendecomposition of
    H(0, 0), for any loop.  The dynamical phase removed is the reference
    arm's -E0 T (the frozen-drive twin of an eigenstate reduces to its
    eigenvalue).

    Raises TruncationError when the space cuts the doublet's sector,
    DegeneracyError when min_gap is not above GAP_FACTOR times the loop's
    peak sweep rate, and IntegrationError when the propagated state turns
    non-finite or loses its norm.
    """
    n, m = doublet
    _check_labels(n, m, "doublet labels")
    k = n + 1 + m
    require_complete(space, k)
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")

    sector = excitation_sector_indices(space, k)
    # the sector is the stepper's one block: a stack of S = 1
    factory = HamiltonianFactory(space, params, [sector])
    # H(0, 0), the factory's first drive-frame piece
    w0, v0, col = _select_doublet_branch(factory._frame_pieces[0][0], sector, space, n, m, branch)
    e0 = float(w0[col])
    # the tracked level is excluded by its column, so an exactly degenerate
    # twin counts as a zero gap
    others = np.delete(w0, col)
    min_gap = float(np.min(np.abs(others - e0))) if others.size else math.inf
    if min_gap <= GAP_FACTOR * loop.max_rate:
        raise DegeneracyError(
            f"tracked level gap {min_gap:.4g} rad/ms is not above "
            f"{GAP_FACTOR:.0f}x the peak sweep rate {loop.max_rate:.4g} rad/ms"
        )

    h = _step_size(loop, dt, FRAME_STEPS)
    routes = _routes(loop)
    # with no dt a lasso leg takes one exact step; a given dt steps every leg
    leg_steps = [
        _resolve_steps(dur, h) if dt is not None or route == "stepped" else 1
        for route, dur in zip(routes, loop.durations)
    ]
    stepped = sum(steps for route, steps in zip(routes, leg_steps) if route == "stepped")
    stride = max(1, stepped // FIDELITY_SAMPLES)
    # a lasso leg is sampled at its end only, where the closed form covers it
    strides = [stride if route == "stepped" else steps for route, steps in zip(routes, leg_steps)]
    min_fidelity = 1.0

    def track(chi, drift, leg, w, v):
        # maximal-overlap continuation: the instantaneous eigenvector the
        # state follows is the one it overlaps most; its weight is the
        # adiabatic fidelity (phase-smoothness gauge is implicit in taking
        # magnitudes only)
        nonlocal min_fidelity
        if routes[leg] == "stepped":
            fidelity = np.max(np.abs(v0.conj().T @ chi[0, :, 0]))
        else:
            intervals = math.ceil(FIDELITY_GRID * loop.durations[leg] / loop.total_time)
            fidelity = np.min(_exact_leg_fidelity(
                v0, col, w[0], v[0], chi[0, :, 0], loop.durations[leg], intervals
            ))
        min_fidelity = min(min_fidelity, float(fidelity))

    u = v0[:, col]
    chi = _frame_legs(u[None, :, None], factory, loop, leg_steps, strides, track)
    winding = loop.knots[-1][1] - loop.knots[0][1]
    chi_end = np.exp(-1j * winding * factory.minus_photons[0]) * chi[0, :, 0]
    ov = complex(np.vdot(u, chi_end))
    cyclicity = abs(ov)
    total = float(np.angle(ov))
    dynamical = -e0 * loop.total_time
    if cyclicity < CYCLICITY_FLOOR:
        warnings.warn(
            f"transport run cyclicity {cyclicity:.6f} below floor "
            f"{CYCLICITY_FLOOR:.2f}",
            NonCyclicWarning,
            stacklevel=2,
        )
    metadata = {
        "doublet": (n, m),
        "branch": branch,
        "eigenvalue": e0,
        "min_gap": min_gap,
        "min_adiabatic_fidelity": min_fidelity,
        "dynamical_phase_reference": dynamical,
        "duration": loop.total_time,
    }
    return PhaseReading(
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=wrap_phase(total - dynamical),
        cyclicity=cyclicity,
        metadata=metadata,
    )


def _exact_leg_fidelity(v0, col, w, v, chi_end, duration, intervals):
    """Adiabatic fidelity at the times s = j duration / intervals (j = 0 to
    intervals) of a leg whose generator G = v diag(w) v^H does not move.

    The state there is chi(s) = v exp(-i w s) v^H chi(0), with chi(0) =
    v exp(i w duration) v^H chi_end taken back from its value at the leg's
    end; its amplitudes on v advance by one factor exp(-i w ds) a grid
    interval, a running product whose rounding grows by about one ulp an
    interval.  The fidelity is the largest overlap max_j |V0^H chi(s)|_j
    with an eigenvector of H(0, 0).  Where the tracked eigenvector (column
    col of V0) holds more than half the weight, no other overlap is larger,
    so the others are computed only where it does not.
    """
    amps = np.empty((intervals + 1, w.size), dtype=complex)
    amps[0] = np.exp(1j * duration * w) * (v.conj().T @ chi_end)
    amps[1:] = np.exp(-1j * (duration / intervals) * w)
    np.cumprod(amps, axis=0, out=amps)
    to_v0 = v0.conj().T @ v
    fidelity = np.abs(amps @ to_v0[col])
    low = fidelity * fidelity <= 0.5
    if low.any():
        fidelity[low] = np.max(np.abs(amps[low] @ to_v0.T), axis=1)
    return fidelity


def dressed_phase_pair(
    space: SpaceConfig,
    params: ModelParams,
    loop: PathSpec,
    doublet: tuple[int, int],
    dt: float | None = None,
) -> dict[str, PhaseReading]:
    """Equal-and-opposite dressed-phase pair for one doublet.

    The "upper" reading transports the upper branch around the loop as
    given; the "lower" reading transports the lower branch around the
    reversed loop.  For a resonant doublet the two geometric phases are
    exact negatives of each other at any sweep speed, converging to
    +-gamma/2 (n - m + 1/2) adiabatically.
    """
    return {
        branch: _branch_reading(space, params, loop, doublet, branch, dt)
        for branch in ("upper", "lower")
    }


def _branch_reading(
    space: SpaceConfig,
    params: ModelParams,
    loop: PathSpec,
    doublet: tuple[int, int],
    branch: str,
    dt: float | None,
) -> PhaseReading:
    """One reading of dressed_phase_pair: the lower branch runs the reversed loop."""
    path = loop if branch == "upper" else reversed_path(loop)
    return adiabatic_eigenstate_transport(space, params, path, doublet, branch, dt)


def ideal_phase_map(state: StateVector, gamma: float) -> StateVector:
    """Apply the idealized per-basis-state loop phases for solid angle gamma.

    This is the "dynamical effects eliminated, perfectly adiabatic" limit in
    which a loop of signed solid angle gamma multiplies each basis state by
    a pure phase:

    * |2,n,m>          ->  exp(+i gamma/2 (n - m + 1/2)) |2,n,m>
    * |1,n,m>, n >= 1  ->  exp(+i gamma/2 (n - m - 1/2)) |1,n,m>
    * |1,0,m>          ->  exp(-i gamma m / 2) |1,0,m>   (uncoupled states)

    The overall ground state |1,0,0> is untouched.  These assignments make
    a symmetric atomic superposition with any photon distribution in mode
    "+" reproduce the closed-form detection fringes exactly.  A batch of
    states is mapped row by row with the same diagonal.
    """
    level, n, m = basis_labels(state.space)
    phase = 0.5 * gamma * np.where(
        level == 1, n - m + 0.5, np.where(n >= 1, n - m - 0.5, -m)
    )
    amps = state.amplitudes * (np.cos(phase) + 1j * np.sin(phase))
    return StateVector(amps, state.space, normalized=state.normalized)
