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

evolve_loop and the dressed-branch transport work in complete sectors only
(hilbert.require_complete), where H(theta, phi) = W H(0, 0) W^H with the
drive frame W = exp(-i phi N-) exp(-i theta K).  Both step chi = W^H psi
through one leg loop, _frame_legs, under HamiltonianFactory.drive_frame's
generator, which does not move along azimuth and meridian legs: there a
step is exact, and only tilted legs carry a step error.  evolve, and its
reference brute_force_evolve, step H itself in the lab frame.

The stepper applies, step by step, the exact unitary exponential of a
Hermitian generator frozen over the step, so every step is exactly unitary
and phase extraction downstream is never polluted by integrator norm
error.  It has two generator builders: the midpoint rule (error falling as
dt**2; evolve's steps and the frame's exact legs) and the sixth-order
Magnus step from the generators at the step's three Gauss points (error
falling as dt**6; the frame's tilted legs).  It steps one straight leg at
a time, in ceil(leg duration / dt) equal steps whose points lie at fixed
fractions of the leg, so no step straddles a knot, and it works a block of
steps at a time, whose arrays take at most BLOCK_BYTES, so the work left
per step is its eigendecomposition and one product with the state, and
memory does not grow with the step count.  A dt that is not positive and
finite is refused, and so is one that makes more steps than an int64
counts (StepCountError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import SpaceConfig, StateVector, basis_labels, require_complete
from .model import HamiltonianFactory, ModelParams
from .poincare_path import PathSpec

__all__ = [
    "Trajectory",
    "LoopRun",
    "IntegrationError",
    "StepCountError",
    "DEFAULT_STEPS",
    "evolve",
    "evolve_loop",
    "brute_force_evolve",
]

# default steps of a run of evolve and brute_force_evolve (dt = duration / this)
DEFAULT_STEPS = 20000
# default drive-frame steps of a run of evolve_loop and of the transport: the
# fewest, in multiples of 250, at which no tilted transport row of the check
# set is less accurate than 4 500 lab-frame steps were (other legs are exact)
FRAME_STEPS = 750
NORM_DRIFT_LIMIT = 1e-8
# evolve checks the norm every max(1, steps // NORM_CHECKS) steps of a leg
NORM_CHECKS = 512
# bytes of the (n, S, d, d) arrays the stepper holds at once for a block of
# n steps: four while it exponentiates (the generators, then the step
# unitaries in their place, their eigenvectors and the two factors of the
# unitaries' product), and six while the Magnus builder runs (the blocks at
# the three Gauss points and three products of them).  A long stepped leg in
# a large box never holds the arrays of all its steps.
BLOCK_BYTES = 1 << 20


class IntegrationError(RuntimeError):
    """Raised when propagation produces non-finite or norm-broken states."""


class StepCountError(ValueError):
    """Raised when a step size makes more steps than an int64 counts."""


@dataclass
class Trajectory:
    """States of one evolve run at t = 0 and at the end of each leg.

    times are loop times (ms), [0, cumsum(durations)]; amplitudes[k] is the
    state at times[k].  step_stats records the number of steps and the
    worst norm drift of the checked states.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    space: SpaceConfig
    step_stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LoopRun:
    """Final state of one loop's run and how its legs were propagated.

    evolve_loop returns one, _evolve_loops one per loop.  final_state
    carries the initial state's normalized flag.  stats holds exact_legs
    (azimuth and meridian legs, one step each) and stepped_legs (tilted
    legs), steps (the Magnus steps of the tilted legs) and max_norm_drift
    (the worst norm error of the initial state and of each leg's end).
    """

    final_state: StateVector
    stats: dict


def _step_size(loop: PathSpec, dt: float | None, default_steps: int) -> float:
    """Target step (ms) of a run: dt, or the loop duration / default_steps."""
    if dt is None:
        return loop.total_time / default_steps
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return dt


def _resolve_steps(duration: float, dt: float) -> int:
    """Steps of a leg of the given duration: ceil(duration / dt), at least 1."""
    count = duration / dt - 1e-12
    # floats below 2**63 are at most 2**63 - 1024, so their ceiling fits
    if not count < 2.0**63:
        raise StepCountError(
            f"dt = {dt!r} ms makes {count:.3e} steps of a {duration:.6g} ms leg, "
            "more than an int64 counts"
        )
    return max(1, int(math.ceil(count)))


def evolve(
    initial: StateVector,
    loop: PathSpec,
    params: ModelParams,
    dt: float | None = None,
) -> Trajectory:
    """Propagate a state around a loop with the midpoint stepper.

    Every leg is stepped, in ceil(leg duration / dt) equal steps.  Only the
    excitation sectors in which the initial state has amplitude are
    stepped; the amplitudes of every other sector stay exactly zero.  The
    norm is checked every max(1, steps // NORM_CHECKS) steps of each leg,
    steps counting the whole loop, and at each leg's end.

    Parameters
    ----------
    initial : StateVector
        State at t = 0.
    loop : PathSpec
    params : ModelParams
    dt : float, optional
        Target step in ms.  Default: loop duration / 20000.  Each leg's
        step divides the leg evenly and is never larger than the target.

    Returns
    -------
    Trajectory
        The state at t = 0 and at the end of each leg.

    Raises
    ------
    IntegrationError
        If amplitudes become non-finite or the norm drifts beyond 1e-8;
        the message reports the offending leg, step and time.
    """
    h = _step_size(loop, dt, DEFAULT_STEPS)
    leg_steps = [_resolve_steps(dur, h) for dur in loop.durations]
    stride = max(1, sum(leg_steps) // NORM_CHECKS)
    space = initial.space
    _, rows = _sector_rows(initial)
    factory = HamiltonianFactory(space, params, rows)
    psi = _gather(initial, rows)
    drifts = [_norm_drift(psi)[0]]
    amps = [initial.amplitudes.astype(complex)]

    def record_drift(checked, drift, *_):
        drifts.append(drift[0])

    for leg, steps in enumerate(leg_steps):
        psi = _step_leg(psi, factory.dense, loop, leg, steps, stride, record_drift)
        amps.append(_scatter(psi, rows, space)[0])
    stats = {"steps": sum(leg_steps), "max_norm_drift": float(max(drifts))}
    return Trajectory(np.cumsum((0.0, *loop.durations)), np.array(amps), space, stats)


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
    stack over the sectors any of its states occupies, so each step's
    eigendecomposition serves the whole batch, and each state ends where
    it would alone.  Every occupied sector must be complete: write the
    state in hilbert.complete_box first, as ramsey._run_arrays does.  The
    stack is mapped into the drive frame once (chi = W^H psi, W at the
    first knot), goes through _frame_legs, which takes one exact step on
    an azimuth leg (constant theta, so a zero-rate leg too) or a meridian
    leg (constant phi) and ceil(leg duration / dt) sixth-order Magnus
    steps on a tilted leg, and is mapped back with W at the last knot; K
    is decomposed, for exp(-i theta K), only if one of those knots lies
    off the north pole.  This is the one-loop call of _evolve_loops.

    Parameters
    ----------
    initial : StateVector
        State, or batch of states, at the loop's first knot.
    loop : PathSpec
    params : ModelParams
    dt : float, optional
        Target step (ms) on tilted legs.  Default: loop duration / 750.

    Returns
    -------
    LoopRun
        Its final_state has the shape of initial and carries its
        normalized flag, and its max_norm_drift is a float for one state
        and a (B,) array for a batch.

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
    return _evolve_loops(initial, [loop], params, dt)[0]


def _evolve_loops(initial: StateVector, loops, params: ModelParams, dt) -> list[LoopRun]:
    """evolve_loop's run of each of several loops from one state or batch.

    Once every loop's steps are counted, the sector rows, their check, the
    factory, the gathered stack and, if a loop starts or ends off the north
    pole, the one eigendecomposition of K are built once for all loops.
    Each run equals, bit for bit, evolve_loop's for its loop alone.
    """
    plans = []
    for loop in loops:
        h, routes = _step_size(loop, dt, FRAME_STEPS), _routes(loop)
        plans.append((loop, routes, [_resolve_steps(dur, h) if route == "stepped" else 1
                                     for route, dur in zip(routes, loop.durations)]))
    space = initial.space
    occupied, rows = _sector_rows(initial)
    require_complete(space, occupied)
    factory = HamiltonianFactory(space, params, rows)
    psi = _gather(initial, rows)
    m = factory.minus_photons[..., None]
    if any(loop.knots[0][0] or loop.knots[-1][0] for loop in loops):
        k_w, k_v = np.linalg.eigh(factory.mode_rotation())
    batched = initial.amplitudes.ndim == 2
    runs = []
    for loop, routes, leg_steps in plans:
        (th_0, ph_0), (th_t, ph_t) = loop.knots[0], loop.knots[-1]
        chi = np.exp(1j * ph_0 * m) * psi
        if th_0 or th_t:
            chi = _rotate(k_v, np.exp(1j * th_0 * k_w), chi)
        drifts = [_norm_drift(psi)]
        # the state is checked at each leg's end
        chi = _frame_legs(chi, factory, loop, leg_steps, leg_steps,
                          lambda _, drift, *__: drifts.append(drift))
        if th_0 or th_t:
            chi = _rotate(k_v, np.exp(-1j * th_t * k_w), chi)
        final = _scatter(np.exp(-1j * ph_t * m) * chi, rows, space)
        stepped = [steps for route, steps in zip(routes, leg_steps) if route == "stepped"]
        drift = np.max(drifts, axis=0)
        stats = {"exact_legs": len(routes) - len(stepped), "stepped_legs": len(stepped),
                 "steps": sum(stepped), "max_norm_drift": drift if batched else float(drift[0])}
        state = StateVector(final if batched else final[0], space, initial.normalized)
        runs.append(LoopRun(state, stats))
    return runs


def _routes(loop: PathSpec) -> list[str]:
    """Each leg's route: "azimuth" (constant theta, so a zero-rate leg too),
    "meridian" (constant phi) or "stepped" (both angles change)."""
    return [
        "azimuth" if th_a == th_b else "meridian" if ph_a == ph_b else "stepped"
        for (th_a, ph_a), (th_b, ph_b) in zip(loop.knots, loop.knots[1:])
    ]


def _frame_legs(chi, factory, loop, leg_steps, strides, on_sample):
    """Step chi = W^H psi around a loop in the drive frame, leg k in
    leg_steps[k] steps of _step_leg (with strides[k] and on_sample), under
    factory.drive_frame's generator at the leg's constant rates: midpoint
    steps, exact, on azimuth and meridian legs, and sixth-order Magnus
    steps on tilted legs.  Returns the final chi."""
    for leg, route in enumerate(_routes(loop)):
        (th_a, ph_a), (th_b, ph_b) = loop.knots[leg:leg + 2]
        rates = ((th_b - th_a) / loop.durations[leg], (ph_b - ph_a) / loop.durations[leg])
        order = 6 if route == "stepped" else 2
        chi = _step_leg(
            chi, lambda theta, phi: factory.drive_frame(theta, *rates), loop, leg,
            leg_steps[leg], strides[leg], on_sample, order, route,
        )
    return chi


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


def _step_leg(psi, dense, loop, leg, steps, stride, on_sample, order=2, route="stepped"):
    """Step psi along leg `leg` (from 0) of a loop, in `steps` equal steps;
    the package's one stepping loop.

    psi is an (S, d, B) stack of sector amplitudes, and dense(theta, phi)
    returns the matching (S, d, d) stack of Hermitian generators at a point
    of the leg (H, or the drive-frame generator), or the (n, S, d, d)
    stacks of n points given arrays of angles.  Each step applies
    V exp(-i w h) V^H from one batched eigendecomposition of the step
    generator that order picks:

    * order 2, the midpoint rule: the blocks at the step's midpoint;
    * order 6, the sixth-order Magnus step (Blanes, Casas, Oteo and Ros,
      Phys. Rep. 470, 151 (2009)): M = i Omega / h, with Omega built by
      _magnus6 from the blocks at the step's three Gauss points, fractions
      (k + 1/2 + c) / steps of the leg for c = -sqrt(15)/10, 0, sqrt(15)/10.

    The steps run in blocks whose arrays take at most BLOCK_BYTES, each
    block's generators from one dense() call per point of a step and its
    unitaries from one batched product.  After every stride-th step and
    after the last, the amplitudes are checked and on_sample(psi, drift,
    leg, w, v) receives the state, its (B,) norm drift, the leg and the
    (S, d) eigenvalues and (S, d, d) eigenvectors of the step just taken.
    Returns the final amplitudes.

    Raises IntegrationError on non-finite amplitudes or a norm drift beyond
    NORM_DRIFT_LIMIT, as "leg k (route, from t = ...): ... at step j (t =
    ...)", or "... after leg k (route, t = ...)" at the end of an exact
    leg (route azimuth or meridian).
    """
    (th_a, ph_a), (th_b, ph_b) = loop.knots[leg:leg + 2]
    h = loop.durations[leg] / steps
    t_start, t_end = sum(loop.durations[:leg]), sum(loop.durations[:leg + 1])

    def hamiltonians(fracs):
        return dense(th_a + fracs * (th_b - th_a), ph_a + fracs * (ph_b - ph_a))

    # the most (S, d, d) arrays a step holds at once (BLOCK_BYTES)
    arrays = 4 if order == 2 else 6
    step_bytes = arrays * 16 * psi.shape[0] * psi.shape[1] ** 2
    block = max(1, BLOCK_BYTES // max(step_bytes, 1))
    # the outer Gauss points lie this fraction of a step from its midpoint
    offset = math.sqrt(15.0) / 10.0
    for start in range(0, steps, block):
        mids = np.arange(start, min(start + block, steps)) + 0.5
        if order == 2:
            hams = hamiltonians(mids / steps)
        else:
            hams = _magnus6(
                hamiltonians((mids - offset) / steps),
                hamiltonians(mids / steps),
                hamiltonians((mids + offset) / steps),
                h,
            )
        w, v = np.empty(hams.shape[:-1]), np.empty_like(hams)
        for k, ham in enumerate(hams):
            # one eigh call per step, the count benchmark/tests pins
            w[k], v[k] = np.linalg.eigh(ham)
        # the step unitaries overwrite the block's generators
        units = np.matmul(
            v * np.exp(w * (-1j * h))[..., None, :], v.conj().swapaxes(-1, -2), out=hams
        )
        for k, unit in enumerate(units):
            psi = unit @ psi
            end = start + k + 1
            if end % stride and end < steps:
                continue
            if end == steps and route != "stepped":
                # the end of an exact leg is reported as the leg's, not a step's
                drift = _check_state(psi, f"after leg {leg + 1} ({route}, t = {t_end:.6g} ms)")
            else:
                try:
                    drift = _check_state(psi, f"at step {end} (t = {end * h:.6g} ms)")
                except IntegrationError as exc:
                    raise IntegrationError(
                        f"leg {leg + 1} ({route}, from t = {t_start:.6g} ms): {exc}"
                    ) from exc
            on_sample(psi, drift, leg, w[k], v[k])
    return psi


def _magnus6(h1, h2, h3, h):
    """Sixth-order Magnus generators of steps of length h, built in h2.

    From the blocks H1, H2, H3 at each step's three Gauss points and
    A_i = -i h H_i: alpha1 = A2, alpha2 = (sqrt(15)/3)(A3 - A1), alpha3 =
    (10/3)(A3 - 2 A2 + A1), C1 = [alpha1, alpha2], C2 = -(1/60)[alpha1,
    2 alpha3 + C1] and Omega = alpha1 + alpha3/12 + (1/240)[-20 alpha1 -
    alpha3 + C1, alpha2 + C2] per stack.  Returns M = i Omega / h, which is
    Hermitian, and exp(-i M h) = exp(Omega) matches the step's time-ordered
    propagator to O(h**7).  The three inputs are overwritten, and at most
    three more arrays of their shape are held at once.
    """
    # alpha1, alpha2 and alpha3 in place of H2, H3 and H1
    h1 += h3
    h3 *= 2.0
    h3 -= h1
    h1 -= h2
    h1 -= h2
    a1, a2, a3 = h2, h3, h1
    a1 *= -1j * h
    a2 *= -1j * h * math.sqrt(15.0) / 3.0
    a3 *= -1j * h * 10.0 / 3.0
    c1 = a1 @ a2
    x = a2 @ a1
    c1 -= x
    # x = 2 alpha3 + C1; alpha2 + C2 is built in place of alpha2
    np.multiply(a3, 2.0, out=x)
    x += c1
    y = a1 @ x
    y *= -1.0 / 60.0
    a2 += y
    np.matmul(x, a1, out=y)
    y *= 1.0 / 60.0
    a2 += y
    # x = -20 alpha1 - alpha3 + C1, then its commutator with alpha2 + C2 in c1
    np.multiply(a1, -20.0, out=x)
    x -= a3
    x += c1
    np.matmul(x, a2, out=c1)
    np.matmul(a2, x, out=y)
    c1 -= y
    c1 *= 1.0 / 240.0
    a3 *= 1.0 / 12.0
    a1 += a3
    a1 += c1
    a1 *= 1j / h
    return a1


def brute_force_evolve(
    initial: StateVector,
    loop: PathSpec,
    params: ModelParams,
    dt: float | None = None,
) -> StateVector:
    """Independent reference propagator: scipy expm per midpoint-frozen step.

    Steps each leg as evolve does, in ceil(leg duration / dt) equal steps,
    but shares no stepping code with it (no eigendecomposition), so
    agreement between the two is a genuine cross-check.  Intended for small
    spaces only.
    """
    from scipy.linalg import expm

    factory = HamiltonianFactory(initial.space, params)
    psi = initial.amplitudes.astype(complex).copy()
    legs = zip(loop.knots, loop.knots[1:], loop.durations)
    h = _step_size(loop, dt, DEFAULT_STEPS)
    for (th_a, ph_a), (th_b, ph_b), dur in legs:
        steps = _resolve_steps(dur, h)
        for k in range(steps):
            f = (k + 0.5) / steps
            th, ph = th_a + f * (th_b - th_a), ph_a + f * (ph_b - ph_a)
            psi = expm(-1j * (dur / steps) * factory.dense(th, ph)) @ psi
    return StateVector(psi, initial.space, normalized=False)
