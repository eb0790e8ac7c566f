"""Unit tests for time-dependent propagation against analytic references."""

import math
import re

import numpy as np
import pytest

from loopqed.dynamics import (
    BLOCK_BYTES,
    IntegrationError,
    brute_force_evolve,
    evolve,
    evolve_loop,
)
from loopqed.hilbert import (
    StateVector,
    TruncationError,
    complete_box,
    embed_state,
    fock_state,
    make_space,
    state_index,
)
from loopqed.model import (
    HamiltonianFactory,
    ModelParams,
    default_params,
    excitation_sector_indices,
)
from loopqed.phases import adiabatic_eigenstate_transport
from loopqed.poincare_path import (
    PathSpec,
    frozen_schedule,
    lasso_path,
    make_schedule,
    piecewise_path,
    rescaled_path,
)
from loopqed.ramsey import CavityInput, prepare

TWO_PI = 2.0 * math.pi


def test_vacuum_rabi_oracle():
    # At the pole with default parameters both diagonal shifts equal lam, so
    # the driven pair {|2,0,0>, |1,1,0>} evolves as a 2x2 block with
    # amplitude <2,0,0|psi(t)> = e^{-i lam t} cos(lam t).  Analytic oracle,
    # no propagator code involved.
    space = make_space(1, 1)
    params = default_params()
    lam = params.lam
    t_end = 0.025
    sched = frozen_schedule(0.0, 0.0, t_end)
    traj = evolve(fock_state(space, 2, 0, 0), sched, params, dt=t_end / 4000)
    amp = traj.amplitudes[-1][state_index(space, 2, 0, 0)]
    expected = np.exp(-1j * lam * t_end) * math.cos(lam * t_end)
    assert amp == pytest.approx(expected, abs=1e-9)
    # partner amplitude: -i e^{-i lam t} sin(lam t)
    partner = traj.amplitudes[-1][state_index(space, 1, 1, 0)]
    expected_partner = -1j * np.exp(-1j * lam * t_end) * math.sin(lam * t_end)
    assert partner == pytest.approx(expected_partner, abs=1e-9)


def test_full_flip_returns_population():
    space = make_space(1, 1)
    params = default_params()
    sched = frozen_schedule(0.0, 0.0, params.flip_period)
    traj = evolve(fock_state(space, 2, 0, 0), sched, params)
    p2 = abs(traj.amplitudes[-1][state_index(space, 2, 0, 0)]) ** 2
    assert p2 == pytest.approx(1.0, abs=1e-10)


def test_norm_conserved_over_loop():
    space = make_space(2, 2)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 1.2), samples_per_leg=128)
    traj = evolve(fock_state(space, 2, 0, 0), sched, params)
    norms = np.linalg.norm(traj.amplitudes, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-8
    assert traj.step_stats["max_norm_drift"] < 1e-8


def test_trajectory_sampling_and_shape():
    space = make_space(1, 0)
    params = default_params()
    sched = frozen_schedule(0.0, 0.0, 0.1)
    traj = evolve(fock_state(space, 1, 0, 0), sched, params, dt=1e-4, sample_stride=100)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)
    assert traj.amplitudes.shape == (traj.times.size, space.dim)
    np.testing.assert_allclose(np.linalg.norm(traj.amplitudes, axis=1), 1.0, atol=1e-10)


def test_zero_duration_is_identity():
    space = make_space(1, 0)
    params = default_params()
    st = fock_state(space, 2, 1, 0)
    traj = evolve(st, frozen_schedule(0.4, 0.1, 0.0), params)
    np.testing.assert_allclose(traj.amplitudes[-1], st.amplitudes)


def test_dt_validation():
    space = make_space(1, 0)
    params = default_params()
    with pytest.raises(ValueError):
        evolve(fock_state(space, 1, 0, 0), frozen_schedule(0, 0, 1.0), params, dt=-1.0)


def _three_sector_state(space):
    # |1,0,0> + |2,0,0> + |1,1,1>: excitation sectors 0, 1 and 2
    amps = sum(
        fock_state(space, *label).amplitudes
        for label in ((1, 0, 0), (2, 0, 0), (1, 1, 1))
    )
    return StateVector(amps / math.sqrt(3.0), space)


@pytest.mark.parametrize(
    "make_state",
    [lambda space: fock_state(space, 2, 0, 0), _three_sector_state],
    ids=["one-sector", "three-sectors"],
)
def test_brute_force_agreement(make_state):
    # midpoint eigendecomposition stepper vs scipy expm reference on a
    # moving schedule; dimensions kept <= 16
    space = make_space(1, 1)  # dim 8
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 0.3), samples_per_leg=64)
    st = make_state(space)
    dt = 0.3 / 3000
    fast = evolve(st, sched, params, dt=dt).amplitudes[-1]
    slow = brute_force_evolve(st, sched, params, dt=dt).amplitudes
    assert float(np.linalg.norm(fast - slow)) < 1e-9


@pytest.mark.parametrize(
    "make_state, sectors",
    [
        # sector 0 (one state) is padded to the three states of sector 1
        (lambda space: prepare(space, CavityInput()), (0, 1)),
        # the whole six-state sector 3 is one block of the stack
        (lambda space: fock_state(space, 1, 3, 0), (3,)),
    ],
    ids=["vacuum-prepare", "fock-1-3-0"],
)
def test_evolve_steps_only_the_occupied_sectors(monkeypatch, make_state, sectors):
    space = make_space(4, 2)  # dim 30
    params = default_params()
    st = make_state(space)
    blocks = [excitation_sector_indices(space, k) for k in sectors]
    occupied = [i for b in blocks for i in b]
    empty = np.setdiff1d(np.arange(space.dim), occupied)
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    sched = make_schedule(lasso_path(math.pi, 0.3), samples_per_leg=64)
    traj = evolve(st, sched, params, dt=0.3 / 600, sample_stride=7)
    width = max(len(b) for b in blocks)
    assert len(shapes) == traj.step_stats["steps"] == 600
    assert set(shapes) == {(len(blocks), width, width)}
    assert traj.amplitudes.shape == (traj.times.size, space.dim)
    assert np.all(traj.amplitudes[:, empty] == 0.0)


def test_frozen_schedule_advances_sample_to_sample():
    # every midpoint of a constant schedule is the same point, so stepping
    # composes the exact propagator, with the stepper's step count and
    # sample times
    space = make_space(1, 1)
    params = default_params()
    theta, phi, T = 0.7, 0.3, 0.12
    st = _three_sector_state(space)
    traj = evolve(
        st, frozen_schedule(theta, phi, T), params, dt=T / 1000, sample_stride=7
    )
    assert traj.step_stats["steps"] == 1000
    ends = np.r_[0, np.arange(7, 1000, 7), 1000]
    np.testing.assert_array_equal(traj.times, ends * (T / 1000))

    h_full = HamiltonianFactory(space, params).dense(theta, phi)
    w, v = np.linalg.eigh(h_full)
    exact = v @ (np.exp(-1j * w * T) * (v.conj().T @ st.amplitudes))
    np.testing.assert_allclose(traj.amplitudes[-1], exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "sched",
    [frozen_schedule(0.7, 0.3, 0.12), make_schedule(lasso_path(math.pi, 0.12))],
    ids=["frozen", "lasso"],
)
def test_norm_guard_trips_at_the_first_sample(sched):
    space = make_space(1, 1)
    st = StateVector(1.1 * fock_state(space, 2, 0, 0).amplitudes, space, normalized=False)
    with pytest.raises(IntegrationError, match="at step 7 "):
        evolve(st, sched, default_params(), dt=0.12 / 100, sample_stride=7)


def test_all_zero_state_trips_the_norm_guard():
    # no sector is occupied, so evolve steps an empty stack; the norm guard
    # must still reject the state as it does any other broken norm
    space = make_space(1, 1)
    st = StateVector(np.zeros(space.dim), space, normalized=False)
    sched = make_schedule(lasso_path(math.pi, 0.12))
    with pytest.raises(IntegrationError, match="at step 7 "):
        evolve(st, sched, default_params(), dt=0.12 / 100, sample_stride=7)


def _halving_discrepancy(initial, schedule, params, dt):
    """Final-state difference norm between evolve runs at dt and dt/2."""
    coarse = evolve(initial, schedule, params, dt=dt).amplitudes[-1]
    fine = evolve(initial, schedule, params, dt=dt / 2.0).amplitudes[-1]
    return float(np.linalg.norm(coarse - fine))


def test_halving_dt_is_exact_when_frozen():
    # piecewise-constant Hamiltonian: eigendecomposition steps are exact at
    # any dt, so halving dt changes nothing
    space = make_space(1, 1)
    params = default_params()
    sched = frozen_schedule(0.7, 0.3, 0.12)
    d = _halving_discrepancy(fock_state(space, 2, 0, 0), sched, params, dt=0.03)
    assert d < 1e-12


def test_halving_dt_agrees_on_fine_grid():
    space = make_space(1, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 0.3), samples_per_leg=64)
    d = _halving_discrepancy(fock_state(space, 2, 0, 0), sched, params, dt=0.3 / 80000)
    assert d < 1e-8


def test_convergence_is_second_order():
    # halving dt divides the self-discrepancy by ~4
    space = make_space(1, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 1.2), samples_per_leg=64)
    st = fock_state(space, 2, 0, 0)
    d1 = _halving_discrepancy(st, sched, params, dt=1.2 / 10000)
    d2 = _halving_discrepancy(st, sched, params, dt=1.2 / 20000)
    assert d1 / d2 == pytest.approx(4.0, rel=0.1)


def test_halving_dt_exposes_fast_coarse_run():
    # a fast loop stepped coarsely must fail self-convergence, not hide it
    space = make_space(1, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 0.12), samples_per_leg=64)
    d = _halving_discrepancy(fock_state(space, 2, 0, 0), sched, params, dt=0.12 / 50)
    assert d > 1e-8


# ---------------------------------------------------------------------------
# leg-by-leg loop propagation


@pytest.mark.parametrize(
    "knots",
    [
        lasso_path(math.pi, 1.2).knots,
        # a part turn: the azimuth frame exp(-i dphi N-) is not the
        # identity, and the return meridian takes the rotated K_phi
        [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)],
    ],
    ids=["lasso", "part-turn"],
)
def test_stepper_converges_to_the_exact_loop_at_second_order(knots):
    # sectors 0-2 of a (2, 2) box are complete, so evolve_loop propagates
    # all three legs exactly; against it, the midpoint stepper's error
    # falls by 4 each time dt halves
    space = make_space(2, 2)
    params = default_params()
    loop = piecewise_path(knots, [0.3, 0.6, 0.3])
    st = _three_sector_state(space)
    run = evolve_loop(st, loop, params)
    assert (run.stats["exact_legs"], run.stats["steps"]) == (3, 0)
    sched = make_schedule(loop)
    errors = [
        float(np.linalg.norm(
            evolve(st, sched, params, dt=dt).amplitudes[-1] - run.final_state.amplitudes
        ))
        for dt in (1.2e-3, 0.6e-3)
    ]
    assert errors[0] < 2e-4
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)


@pytest.mark.parametrize(
    "make_state, sectors",
    [
        # sectors 0 and 1 are complete in the (4, 2) box
        (lambda space: prepare(space, CavityInput()), (0, 1)),
        # sector 3 is cut by nmax_minus = 2, and whole in the box (3, 3)
        (lambda space: fock_state(space, 1, 3, 0), (3,)),
    ],
    ids=["vacuum-prepare", "fock-1-3-0"],
)
def test_evolve_loop_routes_each_leg(monkeypatch, make_state, sectors):
    st = make_state(make_space(4, 2))
    loop = lasso_path(math.pi, 0.3)
    if max(sectors) > 2:
        with pytest.raises(TruncationError, match=re.escape(
            "excitation sector 3 is cut by the cutoffs (4, 2); the box (3, 3)"
        )):
            evolve_loop(st, loop, default_params())
        st = embed_state(st, complete_box(st))
    space = st.space
    occupied = [i for k in sectors for i in excitation_sector_indices(space, k)]
    empty = np.setdiff1d(np.arange(space.dim), occupied)
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run = evolve_loop(st, loop, default_params(), dt=0.3 / 600)
    stats = run.stats
    # every lasso leg is exact: one eigendecomposition per leg and one for
    # the meridian frame K
    assert (stats["exact_legs"], stats["stepped_legs"], stats["steps"]) == (3, 0, 0)
    assert stats["max_norm_drift"] < 1e-12
    assert len(shapes) == 4
    # amplitudes of unoccupied sectors stay exactly zero
    assert np.all(run.final_state.amplitudes[empty] == 0.0)


def test_evolve_loop_steps_tilted_legs_like_evolve():
    # a loop of tilted legs is stepped leg by leg; with each leg a whole
    # number of steps long the steps and midpoints are those of evolve
    space = make_space(2, 2)
    params = default_params()
    loop = piecewise_path([(0.0, 0.0), (1.0, 0.5), (0.5, 2.0), (0.0, 0.0)], [0.1] * 3)
    st = _three_sector_state(space)
    run = evolve_loop(st, loop, params, dt=0.3 / 600)
    assert (run.stats["stepped_legs"], run.stats["steps"]) == (3, 600)
    traj = evolve(st, make_schedule(loop), params, dt=0.3 / 600)
    np.testing.assert_allclose(
        run.final_state.amplitudes, traj.amplitudes[-1], rtol=0, atol=1e-11
    )


def test_stepped_legs_build_bounded_blocks(monkeypatch):
    # a tilted loop in the (9, 9) box steps a (10, 19, 19) stack: evolve_loop
    # strides over whole legs, yet each dense() call builds a block whose
    # four working arrays fit in BLOCK_BYTES, and the blocks give the state
    # that stepping one sector and one point at a time gives
    space = make_space(9, 9)
    params = default_params()
    rng = np.random.default_rng(3)
    sectors = [excitation_sector_indices(space, k) for k in range(10)]
    amps = np.zeros(space.dim, dtype=complex)
    for idx in sectors:
        amps[idx] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
    st = StateVector(amps / np.linalg.norm(amps), space)
    loop = piecewise_path([(0.2, 0.0), (1.0, 0.6), (0.6, 2.0), (0.2, 0.0)], [0.04] * 3)
    steps = 102  # a leg
    blocks = []
    dense = HamiltonianFactory.dense

    def recording_dense(self, theta, phi):
        h = dense(self, theta, phi)
        if h.ndim == 4:
            blocks.append(h)
        return h

    monkeypatch.setattr(HamiltonianFactory, "dense", recording_dense)
    run = evolve_loop(st, loop, params, dt=0.04 / steps)
    monkeypatch.undo()
    per_block = BLOCK_BYTES // (4 * 16 * 10 * 19 * 19)
    assert 1 < per_block < steps and steps % per_block
    assert [h.shape[0] for h in blocks] == 3 * (
        [per_block] * (steps // per_block) + [steps % per_block]
    )
    assert 4 * max(h.nbytes for h in blocks) <= BLOCK_BYTES
    expected = np.zeros(space.dim, dtype=complex)
    fracs = (np.arange(steps) + 0.5) / steps
    for idx in sectors:
        factory = HamiltonianFactory(space, params, idx)
        psi = st.amplitudes[idx]
        for (th_a, ph_a), (th_b, ph_b), dur in zip(loop.knots, loop.knots[1:], loop.durations):
            for f in fracs:
                h = factory.dense(th_a + f * (th_b - th_a), ph_a + f * (ph_b - ph_a))
                w, v = np.linalg.eigh(h)
                psi = v @ (np.exp(-1j * w * dur / steps) * (v.conj().T @ psi))
        expected[idx] = psi
    np.testing.assert_allclose(run.final_state.amplitudes, expected, rtol=0, atol=1e-12)


def test_frozen_loop_is_one_exponential():
    space = make_space(2, 2)
    params = default_params()
    theta, phi, T = 0.7, 0.3, 0.12
    st = _three_sector_state(space)
    run = evolve_loop(st, PathSpec(((theta, phi), (theta, phi)), (T,)), params)
    assert run.stats == {
        "exact_legs": 1, "stepped_legs": 0, "steps": 0,
        "max_norm_drift": run.stats["max_norm_drift"],
    }
    w, v = np.linalg.eigh(HamiltonianFactory(space, params).dense(theta, phi))
    exact = v @ (np.exp(-1j * w * T) * (v.conj().T @ st.amplitudes))
    np.testing.assert_allclose(run.final_state.amplitudes, exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "loop, message",
    [
        (lasso_path(math.pi, 0.12), "after leg 1 (meridian, t = 0.03 ms)"),
        (piecewise_path([(0.0, 0.0), (1.0, 0.5), (0.0, 0.0)], [0.06, 0.06]),
         "leg 1 (stepped, from t = 0 ms): norm drift"),
    ],
    ids=["exact", "stepped"],
)
def test_evolve_loop_guard_names_the_leg(loop, message):
    space = make_space(1, 1)
    st = StateVector(1.1 * fock_state(space, 2, 0, 0).amplitudes, space, normalized=False)
    with pytest.raises(IntegrationError, match=re.escape(message)):
        evolve_loop(st, loop, default_params())


def test_evolve_loop_batch_matches_each_state():
    # one stack for the batch, one eigendecomposition a leg: each state ends
    # where it ends alone in the same box, with the same leg counts, and its
    # norm drift is its own.  The states' highest sectors are 1, 2, 2, 3
    # and 3, all whole in the (3, 3) box
    space = make_space(3, 3)
    params = default_params()
    states = [
        fock_state(space, 2, 0, 0), _three_sector_state(space), fock_state(space, 1, 2, 0),
        fock_state(space, 1, 2, 1), fock_state(space, 2, 0, 2),
    ]
    batch = StateVector(np.array([st.amplitudes for st in states]), space)
    for loop, legs in (
        (lasso_path(math.pi, 0.3), (3, 0)),
        (piecewise_path([(0.0, 0.0), (1.0, 0.5), (0.0, 0.0)], [0.06, 0.06]), (0, 2)),
    ):
        run = evolve_loop(batch, loop, params, dt=0.12 / 400)
        assert run.final_state.amplitudes.shape == (len(states), space.dim)
        assert run.stats["max_norm_drift"].shape == (len(states),)
        assert (run.stats["exact_legs"], run.stats["stepped_legs"]) == legs
        for k, st in enumerate(states):
            alone = evolve_loop(st, loop, params, dt=0.12 / 400)
            np.testing.assert_allclose(
                run.final_state.amplitudes[k], alone.final_state.amplitudes,
                rtol=0, atol=1e-12,
            )
            assert {key: v for key, v in run.stats.items() if key != "max_norm_drift"} == {
                key: v for key, v in alone.stats.items() if key != "max_norm_drift"
            }
            assert run.stats["max_norm_drift"][k] <= 1e-12


def test_evolve_loop_refuses_a_batch_with_a_cut_sector():
    # |2,0,0> alone is exact in the (2, 2) box, but batched with |1,2,1>,
    # whose sector 3 the box cuts, the batch is refused before any work,
    # with the message the dressed transport gives for the same sector
    space = make_space(2, 2)
    batch = StateVector(
        np.array([fock_state(space, 2, 0, 0).amplitudes, fock_state(space, 1, 2, 1).amplitudes]),
        space,
    )
    message = "excitation sector 3 is cut by the cutoffs (2, 2); the box (3, 3)"
    with pytest.raises(TruncationError, match=re.escape(message)) as err:
        evolve_loop(batch, lasso_path(math.pi, 0.3), default_params())
    with pytest.raises(TruncationError) as transport_err:
        adiabatic_eigenstate_transport(space, default_params(), lasso_path(math.pi, 6.0), (1, 1))
    assert str(transport_err.value) == str(err.value)


def test_evolve_loop_guard_names_the_batch_state():
    space = make_space(1, 1)
    good = fock_state(space, 2, 0, 0).amplitudes
    batch = StateVector(np.array([good, 1.1 * good]), space, normalized=False)
    with pytest.raises(IntegrationError, match=re.escape("in batch state 1 after leg 1")):
        evolve_loop(batch, lasso_path(math.pi, 0.12), default_params())


def test_evolve_loop_rejects_bad_dt():
    space = make_space(1, 0)
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_loop(fock_state(space, 1, 0, 0), lasso_path(1.0, 0.1), default_params(), dt=0.0)


def test_rescaling_invariance_is_machine_exact():
    # scaling all couplings by c and the duration by 1/c is the identical
    # dimensionless problem; final amplitudes agree to machine precision
    c = 3.7
    space = make_space(1, 1)
    base = default_params()
    scaled = ModelParams(
        g=c * base.g, omega_drive=c * base.omega_drive, delta=c * base.delta
    )
    loop = lasso_path(math.pi, 0.48)
    st = fock_state(space, 2, 0, 0)
    steps_dt = 0.48 / 6000
    traj_base = evolve(
        st, make_schedule(loop, samples_per_leg=64), base, dt=steps_dt
    )
    loop_fast = rescaled_path(loop, 0.48 / c)
    traj_scaled = evolve(
        st, make_schedule(loop_fast, samples_per_leg=64), scaled, dt=steps_dt / c
    )
    np.testing.assert_allclose(
        traj_scaled.amplitudes[-1], traj_base.amplitudes[-1], atol=1e-10
    )
