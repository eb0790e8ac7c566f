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
stepper's midpoint rule below, and the step size sets only those legs'
accuracy.

The stepper applies, step by step, the exact unitary exponential of a
Hermitian generator frozen over the step, so every step is exactly unitary
and phase extraction downstream is never polluted by integrator norm
error.  It has two generator builders.  The midpoint rule takes the
Hamiltonian at the step's midpoint angles; its time-ordering error falls
as dt**2, which the exact legs of evolve_loop pin down, and evolve and the
stepped legs of evolve_loop use it.  The sixth-order Magnus step takes
the generator at the step's three Gauss points and nested commutators of
them; its error falls as dt**6.  The dressed-branch transport uses it on
the drive-frame generator (HamiltonianFactory.drive_frame), which does not
move along azimuth and meridian legs, so there it is exact.  The
stepper steps one straight leg at a time, in ceil(leg duration / dt) equal
steps whose points lie at fixed fractions of the leg, so no step straddles
a knot.  It works a block of steps at a time, whose arrays take at most
BLOCK_BYTES: it makes the block's points, builds its generators in one
call per point of a step and its step unitaries in one batched product, so
the work left per step is that step's eigendecomposition and one product
with the state, and memory does not grow with the step count.  A step size
that makes more steps than an int64 counts is refused (StepCountError).
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

DEFAULT_STEPS = 20000
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
    """Final state of evolve_loop and how its legs were propagated.

    stats holds exact_legs and stepped_legs (leg counts), steps (midpoint
    steps taken on the stepped legs) and max_norm_drift (the worst norm
    error of the initial state and of the state after each leg).
    """

    final_state: StateVector
    stats: dict


def _resolve_steps(
    duration: float, total: float, dt: float | None, default_steps: int = DEFAULT_STEPS
) -> int:
    """Steps of a leg of the given duration: ceil(duration / dt), at least 1."""
    if dt is None:
        # default resolves the whole run of length total at default_steps steps
        dt = total / default_steps
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
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
    leg_steps = [_resolve_steps(dur, loop.total_time, dt) for dur in loop.durations]
    stride = max(1, sum(leg_steps) // NORM_CHECKS)
    space = initial.space
    _, rows = _sector_rows(initial)
    factory = HamiltonianFactory(space, params, rows)
    psi = _gather(initial, rows)
    drifts = [_norm_drift(psi)[0]]
    amps = [initial.amplitudes.astype(complex)]

    def record_drift(checked, drift):
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


def _step_leg(psi, dense, loop, leg, steps, stride, on_sample, order=2):
    """Step psi along leg `leg` (from 0) of a loop, in `steps` equal steps;
    the package's one stepping loop.

    psi is an (S, d, B) stack of sector amplitudes, and dense(theta, phi)
    returns the matching (S, d, d) stack of Hermitian blocks that generate
    the motion at that point of the leg (the lab-frame Hamiltonian, or the
    dressed-branch transport's drive-frame generator), or the (n, S, d, d)
    stacks of n points given arrays of angles.  A leg is straight in
    (theta, phi), so points of a step lie at fixed fractions of it.  Each
    step applies the exact exponential V exp(-i w h) V^H of a Hermitian
    step generator, from one batched eigendecomposition of its stack.  The
    step generator comes from one of two builders, which order picks:

    * order 2, the midpoint rule: the blocks at the step's midpoint;
    * order 6, the sixth-order Magnus step (Blanes, Casas, Oteo and Ros,
      Phys. Rep. 470, 151 (2009)): M = i Omega / h, with Omega built by
      _magnus6 from the blocks at the step's three Gauss points, fractions
      (k + 1/2 + c) / steps of the leg for c = -sqrt(15)/10, 0, sqrt(15)/10.
      Where the blocks do not move along the leg, M is them and the step
      is exact.

    The steps run in blocks whose arrays take at most BLOCK_BYTES: each
    block's points are made together, its generators come from one
    dense() call per point of a step and its step unitaries from one
    batched product, so a step costs its eigendecomposition and one product
    with psi, and no array grows with the step count.  After every
    stride-th step and after the last, the amplitudes are checked and
    on_sample(psi, drift) receives the state and its per-state norm drift,
    a (B,) array.  Returns the final amplitudes.

    Raises IntegrationError on non-finite amplitudes or a norm drift beyond
    NORM_DRIFT_LIMIT, naming the leg, the step and the time.
    """
    (th_a, ph_a), (th_b, ph_b) = loop.knots[leg:leg + 2]
    h = loop.durations[leg] / steps

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
        for end, unit in enumerate(units, start + 1):
            psi = unit @ psi
            if end % stride == 0 or end == steps:
                try:
                    drift = _check_state(psi, f"at step {end} (t = {end * h:.6g} ms)")
                except IntegrationError as exc:
                    t_leg = sum(loop.durations[:leg])
                    raise IntegrationError(
                        f"leg {leg + 1} (stepped, from t = {t_leg:.6g} ms): {exc}"
                    ) from exc
                on_sample(psi, drift)
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
    for (th_a, ph_a), (th_b, ph_b), dur in legs:
        steps = _resolve_steps(dur, loop.total_time, dt)
        for k in range(steps):
            f = (k + 0.5) / steps
            th, ph = th_a + f * (th_b - th_a), ph_a + f * (ph_b - ph_a)
            psi = expm(-1j * (dur / steps) * factory.dense(th, ph)) @ psi
    return StateVector(psi, initial.space, normalized=False)
