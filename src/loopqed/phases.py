"""Phase extraction from propagated states and the analytic phase laws.

Conventions used throughout (and relied on by the tests):

* Total phase between two states is the overlap argument arg<initial|final>
  together with its magnitude (the cyclicity).
* Dynamical phase is removed by a reference arm: a twin run with the drive
  polarization frozen at its starting point, which for an eigenstate
  reduces to -E0 T.  Geometric phase is the wrapped difference.  Transport
  runs step with dynamics' stepper inside the doublet's excitation sector
  and also record the energy integral -int <H> dt in their metadata.
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
from dataclasses import dataclass, field

import numpy as np

from .hilbert import SpaceConfig, StateVector, state_index
from .model import HamiltonianFactory, ModelParams, excitation_sector_indices
from .poincare_path import PathSpec, Schedule, frozen_schedule, make_schedule, reversed_path
from .dynamics import _propagate, _resolve_steps, evolve

__all__ = [
    "OverlapReading",
    "PhaseReading",
    "NonCyclicWarning",
    "DegeneracyError",
    "wrap_phase",
    "pancharatnam_phase",
    "dynamical_phase_reference",
    "analytic_dressed_phase",
    "adiabatic_eigenstate_transport",
    "dressed_phase_pair",
    "ideal_phase_map",
]

TWO_PI = 2.0 * math.pi
DEFAULT_CYCLICITY_FLOOR = 0.99
# the tracked level's gap must stay above this multiple of the sweep rate
GAP_FACTOR = 10.0
# adiabatic fidelity is sampled about this many times per transport run
FIDELITY_SAMPLES = 256


class NonCyclicWarning(UserWarning):
    """Signals that an overlap used as a phase reference has small magnitude."""


class DegeneracyError(RuntimeError):
    """Raised when the tracked eigenvalue loses its safety gap along a loop."""


def wrap_phase(x: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    w = (x + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        w = math.pi
    return w


@dataclass(frozen=True)
class OverlapReading:
    """Overlap argument and magnitude between two states."""

    phase: float
    cyclicity: float
    warning: str | None = None


@dataclass(frozen=True)
class PhaseReading:
    """Decomposed phase of one cyclic run.

    geometric_phase always equals wrap_phase(total_phase - dynamical_phase);
    the constructor enforces it.
    """

    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    cyclicity: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expect = wrap_phase(self.total_phase - self.dynamical_phase)
        if abs(wrap_phase(self.geometric_phase - expect)) > 1e-9:
            raise ValueError(
                "geometric_phase must equal wrap(total - dynamical): "
                f"{self.geometric_phase} vs {expect}"
            )
        if not -1e-10 <= self.cyclicity <= 1.0 + 1e-10:
            raise ValueError(f"cyclicity {self.cyclicity} outside [0, 1]")


def pancharatnam_phase(
    initial: StateVector,
    final: StateVector,
    cyclicity_floor: float = DEFAULT_CYCLICITY_FLOOR,
) -> OverlapReading:
    """Overlap phase arg<initial|final> with its magnitude.

    A cyclicity below the floor attaches a warning message to the reading
    (the phase is still returned; the caller decides what is acceptable).
    """
    ov = complex(np.vdot(initial.amplitudes, final.amplitudes))
    cyc = abs(ov)
    warning = None
    if cyc < cyclicity_floor:
        warning = (
            f"overlap magnitude {cyc:.6f} below cyclicity floor "
            f"{cyclicity_floor:.2f}; the run is not cyclic"
        )
    phase = float(np.angle(ov)) if cyc > 0 else 0.0
    return OverlapReading(phase=phase, cyclicity=cyc, warning=warning)


def dynamical_phase_reference(
    initial: StateVector,
    schedule: Schedule,
    params: ModelParams,
    dt: float | None = None,
    cyclicity_floor: float = DEFAULT_CYCLICITY_FLOOR,
) -> float:
    """Reference-arm dynamical phase of a run.

    Evolves the same initial state for the same duration with the
    polarization frozen at the schedule's starting angles and returns
    arg<psi(0)|psi_ref(T)>.  Subtracting this from a loop run's total phase
    leaves the loop's geometric phase.
    """
    ref_sched = frozen_schedule(
        float(schedule.thetas[0]), float(schedule.phis[0]), schedule.duration
    )
    traj = evolve(initial, ref_sched, params, dt=dt)
    reading = pancharatnam_phase(
        initial, traj.final_state, cyclicity_floor=cyclicity_floor
    )
    if reading.warning is not None:
        warnings.warn(
            f"reference arm: {reading.warning}", NonCyclicWarning, stacklevel=2
        )
    return reading.phase


def analytic_dressed_phase(n: int, m: int, gamma: float, branch: str) -> float:
    """Closed-form geometric phase of a dressed doublet branch.

    The doublet is the one built on |2,n,m> and |1,n+1,m>; branch "upper"
    returns +gamma/2 (n - m + 1/2), branch "lower" the negative.  Exact
    linearity in gamma and oddness under branch swap hold by construction.
    """
    if n < 0 or m < 0:
        raise ValueError(f"photon labels must be >= 0, got ({n}, {m})")
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    sign = 1.0 if branch == "upper" else -1.0
    return sign * 0.5 * gamma * (n - m + 0.5)


def _select_doublet_branch(
    h_sector: np.ndarray,
    sector: list[int],
    space: SpaceConfig,
    n: int,
    m: int,
    branch: str,
):
    """Eigenpair of the sector Hamiltonian belonging to the (n, m) doublet."""
    w, v = np.linalg.eigh(h_sector)
    loc2 = sector.index(state_index(space, 2, n, m))
    loc1 = sector.index(state_index(space, 1, n + 1, m))
    projection = np.abs(v[loc2, :]) ** 2 + np.abs(v[loc1, :]) ** 2
    candidates = np.argsort(projection)[::-1][:2]
    upper_col = candidates[np.argmax(w[candidates])]
    lower_col = candidates[np.argmin(w[candidates])]
    col = upper_col if branch == "upper" else lower_col
    return w, v[:, col].copy(), int(col)


def _gap_precheck(
    factory: HamiltonianFactory, schedule: Schedule, tracked_eigenvalue: float
) -> float:
    """Verify the tracked level keeps a gap above GAP_FACTOR times the sweep rate.

    Scans the schedule's own samples with the sector factory.  Returns the
    smallest gap found; raises DegeneracyError naming the time of closest
    approach.
    """
    times = schedule.times
    min_gap = math.inf
    worst_margin = math.inf
    worst_time = 0.0
    for k in range(times.size):
        w = np.linalg.eigvalsh(
            factory.dense(float(schedule.thetas[k]), float(schedule.phis[k]))
        )
        tracked = w[np.argmin(np.abs(w - tracked_eigenvalue))]
        others = w[np.abs(w - tracked) > 1e-12]
        gap = float(np.min(np.abs(others - tracked))) if others.size else math.inf
        rate = _local_rate(schedule, k)
        margin = gap - GAP_FACTOR * rate
        if margin < worst_margin:
            worst_margin = margin
            worst_time = float(times[k])
        min_gap = min(min_gap, gap)
        if margin <= 0:
            raise DegeneracyError(
                f"tracked level gap {gap:.4g} rad/ms falls below {GAP_FACTOR:.0f}x "
                f"the sweep rate {rate:.4g} rad/ms at t = {worst_time:.6g} ms"
            )
    return min_gap


def _local_rate(schedule: Schedule, k: int) -> float:
    lo = max(0, k - 1)
    hi = min(schedule.times.size - 1, k + 1)
    if hi == lo:
        return 0.0
    dth = schedule.thetas[hi] - schedule.thetas[lo]
    dph = schedule.phis[hi] - schedule.phis[lo]
    dt = schedule.times[hi] - schedule.times[lo]
    return float(math.hypot(dth, dph) / dt)


def adiabatic_eigenstate_transport(
    space: SpaceConfig,
    params: ModelParams,
    schedule: Schedule,
    doublet: tuple[int, int],
    branch: str = "upper",
    dt: float | None = None,
) -> PhaseReading:
    """Carry one dressed doublet branch around a loop and read its phases.

    The run starts in the instantaneous eigenstate of H at the schedule's
    first sample that belongs to the (n, m) doublet (the one spanned by
    |2,n,m> and |1,n+1,m>) on the requested branch, propagates it with
    dynamics' midpoint-frozen exact steps restricted to its excitation
    sector, and decomposes the Pancharatnam phase into dynamical and
    geometric parts.

    The dynamical phase removed is the reference arm's -E0 T (the
    frozen-drive twin of an eigenstate reduces to its eigenvalue); the
    energy integral -int <H> dt is recorded in metadata beside it.

    Raises DegeneracyError when the tracked eigenvalue's spectral gap drops
    to GAP_FACTOR times the local sweep rate anywhere along the path, and
    IntegrationError when the propagated state turns non-finite or loses
    its norm.
    """
    n, m = doublet
    if n < 0 or m < 0:
        raise ValueError(f"doublet labels must be >= 0, got {doublet}")
    if n + 1 > space.nmax_plus or m > space.nmax_minus:
        raise ValueError(
            f"doublet ({n}, {m}) needs nmax_plus >= {n + 1} and nmax_minus >= {m}"
        )
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")

    sector = excitation_sector_indices(space, n + 1 + m)
    factory = HamiltonianFactory(space, params, sector)
    h0 = factory.dense(float(schedule.thetas[0]), float(schedule.phis[0]))
    w0, v0, col = _select_doublet_branch(h0, sector, space, n, m, branch)
    e0 = float(w0[col])
    min_gap = _gap_precheck(factory, schedule, e0)

    duration = schedule.duration
    steps = _resolve_steps(duration, schedule, dt)
    min_fidelity = 1.0

    def track(t_now, v, psi):
        # maximal-overlap continuation: the instantaneous eigenvector the
        # state follows is the one it overlaps most; its weight is the
        # adiabatic fidelity (phase-smoothness gauge is implicit in taking
        # magnitudes only)
        nonlocal min_fidelity
        overlaps = v[0].conj().T @ psi[0]
        min_fidelity = min(min_fidelity, float(np.max(np.abs(overlaps))))

    # the sector is the stepper's one block: a stack of S = 1
    psi, stats = _propagate(
        v0[None], lambda theta, phi: factory.dense(theta, phi)[None], schedule,
        0.0, duration, steps, max(1, steps // FIDELITY_SAMPLES), track,
    )
    psi = psi[0]

    ov = complex(np.vdot(v0, psi))
    cyclicity = abs(ov)
    total = float(np.angle(ov))
    dynamical = -e0 * duration
    if cyclicity < DEFAULT_CYCLICITY_FLOOR:
        warnings.warn(
            f"transport run cyclicity {cyclicity:.6f} below floor "
            f"{DEFAULT_CYCLICITY_FLOOR:.2f}",
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
        "dynamical_phase_energy_integral": -stats["energy_integral"],
        "duration": duration,
    }
    return PhaseReading(
        total_phase=total,
        dynamical_phase=dynamical,
        geometric_phase=wrap_phase(total - dynamical),
        cyclicity=cyclicity,
        metadata=metadata,
    )


def dressed_phase_pair(
    space: SpaceConfig,
    params: ModelParams,
    loop: PathSpec,
    doublet: tuple[int, int],
    samples_per_leg: int = 256,
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
        branch: _branch_reading(space, params, loop, doublet, branch, samples_per_leg, dt)
        for branch in ("upper", "lower")
    }


def _branch_reading(
    space: SpaceConfig,
    params: ModelParams,
    loop: PathSpec,
    doublet: tuple[int, int],
    branch: str,
    samples_per_leg: int,
    dt: float | None,
) -> PhaseReading:
    """One reading of dressed_phase_pair: the lower branch runs the reversed loop."""
    path = loop if branch == "upper" else reversed_path(loop)
    schedule = make_schedule(
        path, samples_per_leg=samples_per_leg, effective_coupling=params.lam
    )
    return adiabatic_eigenstate_transport(space, params, schedule, doublet, branch, dt)


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
    "+" reproduce the closed-form detection fringes exactly.
    """
    space = state.space
    amps = state.amplitudes.copy()
    for level in (1, 2):
        for n in range(space.nmax_plus + 1):
            for m in range(space.nmax_minus + 1):
                idx = state_index(space, level, n, m)
                if level == 2:
                    phase = 0.5 * gamma * (n - m + 0.5)
                elif n >= 1:
                    phase = 0.5 * gamma * (n - m - 0.5)
                else:
                    phase = -0.5 * gamma * m
                amps[idx] *= complex(math.cos(phase), math.sin(phase))
    return StateVector(amps, space, normalized=state.normalized)
