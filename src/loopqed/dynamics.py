"""Norm-preserving propagation of the model along polarization loops.

H conserves total excitation, so propagation works on a stack of sector
blocks: the state is an (S, d, B) array with one row per excitation sector
and one column per state of a batch, and each Hamiltonian is the (S, d, d)
stack of H's blocks on those sectors, diagonalized with one batched
eigendecomposition that serves every state of the batch.  Rows of smaller
sectors are padded to the largest width d with states whose rows and
columns of H are exactly zero and whose amplitudes start at zero.  Only
the sectors some initial state occupies are propagated, so the others stay
exactly zero; the dressed-branch transport steps its single sector, a
(1, d, 1) stack.

evolve_loop propagates along the legs of a PathSpec, in complete sectors
only (hilbert.require_complete).  There each lasso leg has a time-independent
generator in a rotating frame, so it is exact: an azimuth leg (constant
theta) is covariant under the diagonal frame exp(-i phi N-), and a
meridian leg (constant phi) under the mode rotation exp(-i theta K_phi)
(HamiltonianFactory.mode_rotation).  Such a leg costs one
eigendecomposition of its generator.  A tilted leg is stepped with the
midpoint stepper below, and the step size sets only those legs' accuracy.

The midpoint stepper freezes the Hamiltonian at each step's midpoint
angles and applies its exact unitary exponential, so every step is exactly
unitary and phase extraction downstream is never polluted by integrator
norm error.  The time-ordering error falls as dt**2, which the exact legs
of evolve_loop pin down.  evolve steps a sampled Schedule, taking the
midpoints from its interpolation; a stepped leg of evolve_loop and the
dressed-branch transport step straight legs, whose midpoints lie at equal
fractions of the leg.  The stepper works a block of steps at a time,
whose arrays take at most BLOCK_BYTES: it builds the block's Hamiltonians
in one call and its step unitaries in one batched product, so the work
left per step is that step's eigendecomposition and one product with the
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import SpaceConfig, StateVector, basis_labels, require_complete
from .model import HamiltonianFactory, ModelParams
from .poincare_path import PathSpec, Schedule

__all__ = [
    "Trajectory",
    "LoopRun",
    "IntegrationError",
    "DEFAULT_STEPS",
    "evolve",
    "evolve_loop",
    "brute_force_evolve",
]

DEFAULT_STEPS = 20000
NORM_DRIFT_LIMIT = 1e-8
# bytes of the (n, S, d, d) arrays the midpoint stepper holds for a block of
# n steps: the Hamiltonians (then the step unitaries in their place), their
# eigenvectors and the two factors of the unitaries' product.  A long
# stepped leg in a large box never holds the arrays of all its steps.
BLOCK_BYTES = 1 << 20


class IntegrationError(RuntimeError):
    """Raised when propagation produces non-finite or norm-broken states."""


@dataclass
class Trajectory:
    """Sampled history of one propagation run.

    times are schedule times (ms) from 0; amplitudes[k] is the state at
    times[k].  step_stats records the step size used, the number of steps
    and the worst sampled norm drift.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    space: SpaceConfig
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


@dataclass(frozen=True)
class LoopRun:
    """Final state of evolve_loop and how its legs were propagated.

    stats holds exact_legs and stepped_legs (leg counts), steps (midpoint
    steps taken on the stepped legs) and max_norm_drift (the worst norm
    error of the initial state and of the state after each leg).
    """

    final_state: StateVector
    stats: dict


def _resolve_steps(duration: float, total: float, dt: float | None) -> int:
    if duration == 0.0:
        return 0
    if dt is None:
        # default resolves the whole run of length total at DEFAULT_STEPS steps
        dt = total / DEFAULT_STEPS if total > 0 else duration
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return max(1, int(math.ceil(duration / dt - 1e-12)))


def evolve(
    initial: StateVector,
    schedule: Schedule,
    params: ModelParams,
    dt: float | None = None,
    sample_stride: int | None = None,
) -> Trajectory:
    """Propagate a state along a schedule with the midpoint stepper.

    Only the excitation sectors in which the initial state has amplitude
    are stepped; the recorded amplitudes of every other sector are exactly
    zero.

    Parameters
    ----------
    initial : StateVector
        State at t = 0.
    schedule : Schedule
        Polarization angles versus time; evaluated by linear interpolation
        at each step's midpoint.
    params : ModelParams
    dt : float, optional
        Target step in ms.  Default: schedule duration / 20000.  The actual
        step divides the schedule evenly and is never larger than the
        target.
    sample_stride : int, optional
        Record every sample_stride-th step (the initial and final states are
        always recorded).  Default keeps roughly 512 samples.

    Returns
    -------
    Trajectory

    Raises
    ------
    IntegrationError
        If amplitudes become non-finite or the norm drifts beyond 1e-8;
        the message reports the offending step and time.
    """
    duration = schedule.duration
    steps = _resolve_steps(duration, duration, dt)
    if sample_stride is None:
        sample_stride = max(1, steps // 512)
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")

    space = initial.space
    _, rows = _sector_rows(initial)
    factory = HamiltonianFactory(space, params, rows)

    rec_times = [0.0]
    rec_amps = [initial.amplitudes.astype(complex)]

    def record(t_now, v, psi):
        rec_times.append(t_now)
        rec_amps.append(_scatter(psi, rows, space)[0])

    h = duration / steps if steps else 0.0
    _, stats = _step(
        _gather(initial, rows), factory.dense,
        schedule.angles_at((np.arange(steps) + 0.5) * h), h, sample_stride, record,
    )
    stats["max_norm_drift"] = float(stats["max_norm_drift"][0])
    return Trajectory(np.array(rec_times), np.array(rec_amps), space, stats)


def _sector_rows(initial: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Occupied excitation sectors of a state or batch and their padded index rows.

    Returns the sorted sector numbers some state occupies and an (S, d)
    array holding one row of flat indices per occupied sector, padded with
    space.dim, the factory's zero state; amplitudes get a zero slot at that
    index.  An all-zero state gives a (0, 0) stack, which the norm guard
    rejects.
    """
    space = initial.space
    n_exc = basis_labels(space).sum(axis=0)
    held = np.any(initial.amplitudes.reshape(-1, space.dim) != 0, axis=0)
    # np.bincount, not np.unique, which imports numpy.ma on first use
    occupied = np.flatnonzero(np.bincount(n_exc[held]))
    blocks = [np.flatnonzero(n_exc == k) for k in occupied]
    width = max((b.size for b in blocks), default=0)
    rows = np.array(
        [np.pad(b, (0, width - b.size), constant_values=space.dim) for b in blocks],
        dtype=int,
    ).reshape(len(blocks), width)
    return occupied, rows


def _gather(initial: StateVector, rows: np.ndarray) -> np.ndarray:
    """The (S, d, B) stack of a state's amplitudes on the sector rows (B = 1
    for a single state)."""
    amps = initial.amplitudes.reshape(-1, initial.space.dim)
    padded = np.concatenate([amps, np.zeros((amps.shape[0], 1))], axis=1)
    return padded[:, rows].transpose(1, 2, 0)


def _scatter(psi: np.ndarray, rows: np.ndarray, space: SpaceConfig) -> np.ndarray:
    """The (B, dim) amplitudes of an (S, d, B) stack; inverse of _gather."""
    full = np.zeros((psi.shape[-1], space.dim + 1), dtype=complex)
    full[:, rows] = psi.transpose(2, 0, 1)
    return full[:, :-1]


def _exp_apply(generator, duration, psi):
    """exp(-i G duration) psi per block, from one eigendecomposition of G."""
    w, v = np.linalg.eigh(generator)
    return _rotate(v, np.exp(w * (-1j * duration)), psi)


def _rotate(v, phases, psi):
    """V diag(phases) V^H psi per block of an (S, d, B) stack.

    V^H psi is taken as (psi^T conj(V))^T, so a batch of one goes through
    the same vector-matrix products as a lone state.
    """
    c = (psi.swapaxes(-1, -2) @ v.conj()).swapaxes(-1, -2)
    return v @ (phases[..., None] * c)


def evolve_loop(
    initial: StateVector,
    loop: PathSpec,
    params: ModelParams,
    dt: float | None = None,
) -> LoopRun:
    """Propagate a state, or a batch of states, once around a loop, leg by leg.

    A batch (amplitudes of shape (B, dim)) is propagated as one (S, d, B)
    stack over the sectors any of its states occupies, so each leg costs
    the same eigendecompositions for the whole batch as for one state, and
    each state ends where it would alone.  Every occupied sector must be
    complete: write the state in hilbert.complete_box first, as
    ramsey.run_batch does.  Each straight leg runs at constant
    (theta', phi') and takes the route its shape sets:

    * azimuth (constant theta): one eigendecomposition of
      H(theta, phi_a) - phi' N-, then the diagonal frame exp(-i dphi N-);
    * meridian (constant phi): one eigendecomposition of
      H(theta_a, phi) - theta' K_phi with K_phi = exp(-i phi N-) K
      exp(i phi N-), then the frame exp(-i dtheta K_phi); K's own
      eigendecomposition is made once per call;
    * tilted (both angles change): the midpoint stepper,
      ceil(leg duration / dt) steps.

    A zero-rate leg is an azimuth leg, so a frozen drive costs one
    exponential.

    Parameters
    ----------
    initial : StateVector
        State, or batch of states, at the loop's first knot.
    loop : PathSpec
    params : ModelParams
    dt : float, optional
        Target step (ms) on stepped legs.  Default: loop duration / 20000.

    Returns
    -------
    LoopRun
        Its final_state has the shape of initial, and its max_norm_drift
        is a float for one state and a (B,) array for a batch.

    Raises
    ------
    TruncationError
        If the space cuts an occupied sector; the message names the sector
        and the box that holds it whole.
    IntegrationError
        If any state's amplitudes become non-finite or its norm drifts
        beyond 1e-8 after any leg; the message names the leg, and for a
        batch the state.
    """
    if dt is not None and dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    space = initial.space
    occupied, rows = _sector_rows(initial)
    require_complete(space, occupied)
    factory = HamiltonianFactory(space, params, rows)
    m = factory.minus_photons
    psi = _gather(initial, rows)
    max_drift = _norm_drift(psi)
    k_mat = None
    stats = {"exact_legs": 0, "stepped_legs": 0, "steps": 0}
    t_leg = 0.0
    legs = zip(loop.knots, loop.knots[1:], loop.durations)
    for leg, ((th_a, ph_a), (th_b, ph_b), dur) in enumerate(legs, 1):
        d_th, d_ph = th_b - th_a, ph_b - ph_a
        if d_th == 0.0:
            route = "azimuth"
            n_minus = m[..., :, None] * np.eye(m.shape[-1])
            generator = factory.dense(th_a, ph_a) - (d_ph / dur) * n_minus
            psi = np.exp(-1j * d_ph * m)[..., None] * _exp_apply(generator, dur, psi)
        elif d_ph == 0.0:
            route = "meridian"
            if k_mat is None:
                k_mat = factory.mode_rotation()
                k_w, k_v = np.linalg.eigh(k_mat)
            # frame at azimuth phi: K_phi = R K R^H with R = exp(-i phi N-)
            rot = np.exp(-1j * ph_a * m)[..., None]
            k_phi = rot * k_mat * rot.conj().swapaxes(-1, -2)
            generator = factory.dense(th_a, ph_a) - (d_th / dur) * k_phi
            psi = _exp_apply(generator, dur, psi)
            psi = rot * _rotate(k_v, np.exp(-1j * d_th * k_w), rot.conj() * psi)
        else:
            route = "stepped"
            steps = _resolve_steps(dur, loop.total_time, dt)
            psi = _step_leg(
                psi, factory.dense, loop, leg - 1, steps, steps, lambda *_: None
            )
            stats["steps"] += steps
        stats["stepped_legs" if route == "stepped" else "exact_legs"] += 1
        t_leg += dur
        where = f"after leg {leg} ({route}, t = {t_leg:.6g} ms)"
        max_drift = np.maximum(max_drift, _check_state(psi, where))
    final = _scatter(psi, rows, space)
    batched = initial.amplitudes.ndim == 2
    stats["max_norm_drift"] = max_drift if batched else float(max_drift[0])
    return LoopRun(
        StateVector(final if batched else final[0], space, normalized=True), stats
    )


def _norm_drift(psi) -> np.ndarray:
    """|norm - 1| of each state of an (S, d, B) stack, a (B,) array."""
    return np.abs(np.sqrt(np.sum(np.abs(psi) ** 2, axis=(0, 1))) - 1.0)


def _check_state(psi, where: str) -> np.ndarray:
    """Per-state norm drift of an (S, d, B) stack; raises IntegrationError
    if any state is broken there, naming it when the batch has more than one."""
    batched = psi.shape[-1] > 1
    finite = np.all(np.isfinite(psi), axis=(0, 1))
    if not finite.all():
        which = f" in batch state {np.argmin(finite)}" if batched else ""
        raise IntegrationError(f"non-finite amplitudes{which} {where}")
    drift = _norm_drift(psi)
    worst = int(np.argmax(drift))
    if drift[worst] > NORM_DRIFT_LIMIT:
        which = f" in batch state {worst}" if batched else ""
        raise IntegrationError(
            f"norm drift {drift[worst]:.3e} exceeds {NORM_DRIFT_LIMIT}{which} {where}"
        )
    return drift


def _step(psi, dense, mid_angles, h, stride, on_sample):
    """Midpoint-step psi; the package's one stepping loop.

    psi is an (S, d, B) stack of sector amplitudes, and dense(theta, phi)
    returns the matching (S, d, d) stack of Hamiltonian blocks, or the
    (n, S, d, d) stacks of n points given arrays of angles.  mid_angles is
    the pair of arrays (theta, phi) at the midpoints of equal steps of h
    ms.  Each step applies the exact exponential V exp(-i w h) V^H of the
    blocks frozen at its midpoint, from one batched eigendecomposition of
    its stack.  The steps run in blocks whose arrays take at most
    BLOCK_BYTES: each block's Hamiltonians are built in one dense() call
    and its step unitaries in one batched product, so a step costs its
    eigendecomposition and one product with psi.  After every stride-th
    step and after the last, the amplitudes are checked and
    on_sample(t, v, psi) receives the time from the first step's start,
    the step's (S, d, d) eigenvectors and the state.  Returns the final
    amplitudes and the step_stats dict of Trajectory, whose max_norm_drift
    is per state, a (B,) array.

    Raises IntegrationError on non-finite amplitudes or a norm drift beyond
    NORM_DRIFT_LIMIT, naming the step and time.
    """
    th_mid, ph_mid = mid_angles
    steps = len(th_mid)
    step_bytes = 4 * 16 * psi.shape[0] * psi.shape[1] ** 2  # a step's four (S, d, d)
    block = max(1, BLOCK_BYTES // max(step_bytes, 1))
    max_drift = _norm_drift(psi)
    for start in range(0, steps, block):
        hams = dense(th_mid[start:start + block], ph_mid[start:start + block])
        w, v = np.empty(hams.shape[:-1]), np.empty_like(hams)
        for k, ham in enumerate(hams):
            # one eigh call per step, the count benchmark/tests pins
            w[k], v[k] = np.linalg.eigh(ham)
        # the step unitaries overwrite the block's Hamiltonians
        units = np.matmul(
            v * np.exp(w * (-1j * h))[..., None, :], v.conj().swapaxes(-1, -2), out=hams
        )
        for end, unit in enumerate(units, start + 1):
            psi = unit @ psi
            if end % stride == 0 or end == steps:
                t_now = end * h
                where = f"at step {end} (t = {t_now:.6g} ms)"
                max_drift = np.maximum(max_drift, _check_state(psi, where))
                on_sample(t_now, v[end - start - 1], psi)
    return psi, {"dt": h, "steps": steps, "max_norm_drift": max_drift}


def _step_leg(psi, dense, loop, leg, steps, stride, on_sample):
    """Midpoint-step psi along leg `leg` (from 0) of a loop, in `steps` equal steps.

    A leg is straight in (theta, phi), so the step midpoints lie at equal
    fractions of it; stride and on_sample are _step's.  Returns the final
    amplitudes, and re-raises an IntegrationError with the leg named.
    """
    fracs = (np.arange(steps) + 0.5) / steps
    mid_angles = tuple(a + fracs * (b - a) for a, b in zip(*loop.knots[leg:leg + 2]))
    h = loop.durations[leg] / steps
    try:
        return _step(psi, dense, mid_angles, h, stride, on_sample)[0]
    except IntegrationError as exc:
        t_leg = sum(loop.durations[:leg])
        raise IntegrationError(
            f"leg {leg + 1} (stepped, from t = {t_leg:.6g} ms): {exc}"
        ) from exc


def brute_force_evolve(
    initial: StateVector,
    schedule: Schedule,
    params: ModelParams,
    dt: float | None = None,
) -> StateVector:
    """Independent reference propagator: scipy expm per midpoint-frozen step.

    Shares no stepping code with evolve (no eigendecomposition), so
    agreement between the two is a genuine cross-check.  Intended for small
    spaces only.
    """
    from scipy.linalg import expm

    duration = schedule.duration
    steps = _resolve_steps(duration, duration, dt)
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
