"""Norm-preserving propagation of the model under a polarization schedule.

Each step freezes the Hamiltonian at the step's midpoint angles and applies
its exact unitary exponential, computed by dense eigendecomposition (the
spaces here are at most a few hundred dimensional).  Every step is exactly
unitary, so phase extraction downstream is never polluted by integrator norm
error; accuracy in time ordering is governed by the step size and checked by
the self-convergence test below.

H conserves total excitation, so the stepper works on a stack of sector
blocks: the state is an (S, d) array with one row per excitation sector,
and each step diagonalizes the (S, d, d) stack of H's blocks on those
sectors with one batched eigendecomposition.  Rows of smaller sectors are
padded to the largest width d with states whose rows and columns of H are
exactly zero and whose amplitudes start at zero.  evolve steps only the
sectors its initial state occupies, so the others stay exactly zero; the
dressed-branch transport steps its single sector.  A constant schedule
takes a single eigendecomposition and advances from one sample to the next
with one exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .hilbert import SpaceConfig, StateVector
from .model import HamiltonianFactory, ModelParams, excitation_operator
from .poincare_path import Schedule

__all__ = [
    "Trajectory",
    "IntegrationError",
    "DEFAULT_STEPS",
    "evolve",
    "convergence_check",
    "ConvergenceReport",
    "brute_force_evolve",
]

DEFAULT_STEPS = 20000
NORM_DRIFT_LIMIT = 1e-8


class IntegrationError(RuntimeError):
    """Raised when propagation produces non-finite or norm-broken states."""


@dataclass
class Trajectory:
    """Sampled history of one propagation run.

    times are absolute schedule times (ms); amplitudes[k] is the state at
    times[k].  step_stats records the step size used, the number of steps,
    the worst sampled norm drift, and the accumulated energy integral
    (sum of instantaneous <H> times dt, rad).
    """

    times: np.ndarray
    amplitudes: np.ndarray
    space: SpaceConfig
    params: ModelParams
    schedule: Schedule
    step_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.times.ndim != 1 or self.amplitudes.shape != (
            self.times.size,
            self.space.dim,
        ):
            raise ValueError("trajectory arrays have inconsistent shapes")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def final_state(self) -> StateVector:
        return StateVector(self.amplitudes[-1].copy(), self.space, normalized=True)


def _resolve_steps(duration: float, schedule: Schedule, dt: float | None) -> int:
    if duration == 0.0:
        return 0
    if dt is None:
        # default resolves the full schedule at DEFAULT_STEPS steps
        dt = schedule.duration / DEFAULT_STEPS if schedule.duration > 0 else duration
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return max(1, int(math.ceil(duration / dt - 1e-12)))


def evolve(
    initial: StateVector,
    schedule: Schedule,
    params: ModelParams,
    dt: float | None = None,
    sample_stride: int | None = None,
    t_start: float = 0.0,
    t_end: float | None = None,
) -> Trajectory:
    """Propagate a state along (part of) a schedule.

    Only the excitation sectors in which the initial state has amplitude
    are stepped; the recorded amplitudes of every other sector are exactly
    zero.

    Parameters
    ----------
    initial : StateVector
        State at t_start.
    schedule : Schedule
        Polarization angles versus time; evaluated by linear interpolation.
    params : ModelParams
    dt : float, optional
        Target step in ms.  Default: schedule duration / 20000.  The actual
        step divides the propagation window evenly and is never larger than
        the target.
    sample_stride : int, optional
        Record every sample_stride-th step (the initial and final states are
        always recorded).  Default keeps roughly 512 samples.
    t_start, t_end : float
        Window of the schedule to propagate over; defaults to the whole.

    Returns
    -------
    Trajectory

    Raises
    ------
    IntegrationError
        If amplitudes become non-finite or the norm drifts beyond 1e-8;
        the message reports the offending step and time.
    """
    if t_end is None:
        t_end = schedule.duration
    if t_end < t_start:
        raise ValueError(f"t_end {t_end} precedes t_start {t_start}")
    steps = _resolve_steps(t_end - t_start, schedule, dt)
    if sample_stride is None:
        sample_stride = max(1, steps // 512)
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")

    space = initial.space
    n_exc = excitation_operator(space).entries.diagonal().real
    occupied = np.unique(n_exc[initial.amplitudes != 0])
    blocks = [np.flatnonzero(n_exc == k) for k in occupied]
    width = max((b.size for b in blocks), default=0)
    # one row of flat indices per occupied sector, padded with space.dim,
    # the factory's zero state; amplitudes get a zero slot at that index.
    # An all-zero state gives a (0, 0) stack, which the norm guard rejects.
    rows = np.array(
        [np.pad(b, (0, width - b.size), constant_values=space.dim) for b in blocks],
        dtype=int,
    ).reshape(len(blocks), width)
    factory = HamiltonianFactory(space, params, rows)

    rec_times = [t_start]
    rec_amps = [initial.amplitudes.astype(complex)]

    def record(t_now, v, psi):
        full = np.zeros(space.dim + 1, dtype=complex)
        full[rows] = psi
        rec_times.append(t_now)
        rec_amps.append(full[:-1])

    _, stats = _propagate(
        np.append(initial.amplitudes, 0.0)[rows], factory.dense, schedule,
        t_start, t_end, steps, sample_stride, record,
    )
    return Trajectory(
        np.array(rec_times), np.array(rec_amps), space, params, schedule, stats
    )


def _propagate(psi, dense, schedule, t_start, t_end, steps, stride, on_sample):
    """Step psi from t_start to t_end; the package's one stepping loop.

    psi is an (S, d) stack of sector amplitudes and dense(theta, phi)
    returns the matching (S, d, d) stack of Hamiltonian blocks.  Each of
    the `steps` equal steps applies the exact exponential V exp(-i w h) V^H
    of the blocks frozen at the step's midpoint angles, from one batched
    eigendecomposition of the whole stack per step.  A constant schedule
    takes a single eigendecomposition in all and advances from one sample
    to the next with one exponential exp(-i w n h) for the n steps in
    between; the step count, the sample times, the checks and the energy
    integral (n h <H> per advance, summed over the blocks) are the same as
    stepping.  After every stride-th step and after the last, the
    amplitudes are checked and on_sample(t, v, psi) receives the time, the
    (S, d, d) eigenvectors and the state.  Returns the final amplitudes and
    the step_stats dict of Trajectory.

    Raises IntegrationError on non-finite amplitudes or a norm drift beyond
    NORM_DRIFT_LIMIT, naming the step and time.
    """
    h = (t_end - t_start) / steps if steps else 0.0
    th_mid, ph_mid = schedule.angles_at(t_start + (np.arange(steps) + 0.5) * h)
    constant = schedule.max_rate == 0.0
    if constant:
        ends = [*range(stride, steps, stride), steps] if steps else []
    else:
        ends = range(1, steps + 1)
    max_drift = abs(np.linalg.norm(psi) - 1.0)
    energy_integral = 0.0
    done = 0
    for end in ends:
        n = end - done
        if done == 0 or not constant:
            w, v = np.linalg.eigh(dense(float(th_mid[done]), float(ph_mid[done])))
        # c = V^H psi per block, written as the row psi^T conj(V)
        c = (psi[:, None, :] @ v.conj())[:, 0]
        energy_integral += n * h * float(np.vdot(c, w * c).real)
        psi = (v @ (np.exp(w * (-1j * n * h)) * c)[:, :, None])[:, :, 0]
        done = end
        if end % stride == 0 or end == steps:
            t_now = t_start + end * h
            if not np.all(np.isfinite(psi)):
                raise IntegrationError(
                    f"non-finite amplitudes at step {end} (t = {t_now:.6g} ms)"
                )
            drift = abs(np.linalg.norm(psi) - 1.0)
            max_drift = max(max_drift, drift)
            if drift > NORM_DRIFT_LIMIT:
                raise IntegrationError(
                    f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT} at step "
                    f"{end} (t = {t_now:.6g} ms)"
                )
            on_sample(t_now, v, psi)
    stats = {
        "dt": h,
        "steps": steps,
        "max_norm_drift": max_drift,
        "energy_integral": energy_integral,
    }
    return psi, stats


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence result: final-state discrepancy at dt versus dt/2."""

    dt: float
    discrepancy: float
    threshold: float = NORM_DRIFT_LIMIT

    @property
    def passed(self) -> bool:
        return self.discrepancy < self.threshold


def convergence_check(
    initial: StateVector,
    schedule: Schedule,
    params: ModelParams,
    dt: float | None = None,
) -> ConvergenceReport:
    """Run at dt and dt/2 and report the final-state difference norm."""
    if dt is None:
        dt = schedule.duration / DEFAULT_STEPS if schedule.duration > 0 else 1.0
    coarse = evolve(initial, schedule, params, dt=dt)
    fine = evolve(initial, schedule, params, dt=dt / 2.0)
    diff = float(np.linalg.norm(coarse.amplitudes[-1] - fine.amplitudes[-1]))
    return ConvergenceReport(dt=dt, discrepancy=diff)


def brute_force_evolve(
    initial: StateVector,
    schedule: Schedule,
    params: ModelParams,
    dt: float | None = None,
) -> StateVector:
    """Independent reference propagator: scipy expm per midpoint-frozen step.

    Shares no stepping code with evolve (no eigendecomposition, no constant
    fast path), so agreement between the two is a genuine cross-check.
    Intended for small spaces only.
    """
    duration = schedule.duration
    steps = _resolve_steps(duration, schedule, dt)
    factory = HamiltonianFactory(initial.space, params)
    psi = initial.amplitudes.astype(complex).copy()
    if steps == 0:
        return StateVector(psi, initial.space, normalized=True)
    h = duration / steps
    for k in range(steps):
        t_mid = (k + 0.5) * h
        th, ph = schedule.angles_at(t_mid)
        u = expm(-1j * h * factory.dense(float(th), float(ph)))
        psi = u @ psi
    return StateVector(psi, initial.space, normalized=False)
