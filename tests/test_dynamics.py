"""Unit tests for time-dependent propagation against analytic references."""

import math

import numpy as np
import pytest

from loopqed.dynamics import (
    IntegrationError,
    brute_force_evolve,
    convergence_check,
    evolve,
)
from loopqed.hilbert import StateVector, fock_state, make_space, state_index
from loopqed.model import (
    HamiltonianFactory,
    ModelParams,
    default_params,
    excitation_sector_indices,
)
from loopqed.poincare_path import (
    frozen_schedule,
    lasso_path,
    make_schedule,
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


def test_evolution_composes():
    # evolving 0 -> T equals evolving 0 -> T/2 then T/2 -> T with the same dt
    space = make_space(2, 1)
    params = default_params()
    sched = make_schedule(lasso_path(1.0, 0.8), samples_per_leg=64)
    st = fock_state(space, 2, 0, 0)
    dt = 0.8 / 8000
    full = evolve(st, sched, params, dt=dt)
    first = evolve(st, sched, params, dt=dt, t_end=0.4)
    second = evolve(
        first.final_state, sched, params, dt=dt, t_start=0.4, t_end=0.8
    )
    np.testing.assert_allclose(
        second.amplitudes[-1], full.amplitudes[-1], atol=1e-9
    )


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
    # a constant schedule jumps between samples with exp(-i w n h); the
    # result is the exact propagator, with the step count, sample times
    # and energy integral of stepping one step at a time
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
    energy = float(np.vdot(st.amplitudes, h_full @ st.amplitudes).real)
    assert traj.step_stats["energy_integral"] == pytest.approx(T * energy, abs=1e-12)


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


def test_convergence_check_frozen_is_exact():
    # piecewise-constant Hamiltonian: eigendecomposition steps are exact at
    # any dt, so halving dt changes nothing
    space = make_space(1, 1)
    params = default_params()
    sched = frozen_schedule(0.7, 0.3, 0.12)
    report = convergence_check(fock_state(space, 2, 0, 0), sched, params, dt=0.03)
    assert report.discrepancy < 1e-12


def test_convergence_check_passes_on_fine_grid():
    space = make_space(1, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 0.3), samples_per_leg=64)
    report = convergence_check(
        fock_state(space, 2, 0, 0), sched, params, dt=0.3 / 80000
    )
    assert report.passed
    assert report.discrepancy < 1e-8


def test_convergence_is_second_order():
    # halving dt divides the self-discrepancy by ~4
    space = make_space(1, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 1.2), samples_per_leg=64)
    st = fock_state(space, 2, 0, 0)
    d1 = convergence_check(st, sched, params, dt=1.2 / 10000).discrepancy
    d2 = convergence_check(st, sched, params, dt=1.2 / 20000).discrepancy
    assert d1 / d2 == pytest.approx(4.0, rel=0.1)


def test_convergence_check_flags_fast_coarse_run():
    # a fast loop stepped coarsely must fail self-convergence, not hide it
    space = make_space(1, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 0.12), samples_per_leg=64)
    report = convergence_check(fock_state(space, 2, 0, 0), sched, params, dt=0.12 / 50)
    assert not report.passed


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


def test_energy_integral_matches_constant_case():
    # for a frozen schedule from an eigenstate, the energy integral is E*T
    space = make_space(1, 1)
    params = default_params()
    # |1,0,1> is dark at theta=0 with energy lam (default parameters)
    st = fock_state(space, 1, 0, 1)
    T = 0.05
    traj = evolve(st, frozen_schedule(0.0, 0.0, T), params)
    assert traj.step_stats["energy_integral"] == pytest.approx(
        params.lam * T, rel=1e-9
    )
