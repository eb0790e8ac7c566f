"""Unit tests for model parameters, coupling weights, and the Hamiltonian."""

import math

import numpy as np
import pytest

from loopqed.hilbert import (
    annihilation,
    atomic_projector,
    atomic_raise,
    fock_state,
    make_space,
    state_index,
)
from loopqed.model import (
    HamiltonianFactory,
    ModelParams,
    coupling_weights,
    default_params,
    excitation_operator,
    excitation_sector_indices,
)

TWO_PI = 2.0 * math.pi


def test_default_parameter_values():
    p = default_params()
    assert p.g == pytest.approx(TWO_PI * 50.0)
    assert p.omega_drive == pytest.approx(TWO_PI * 50.0)
    assert p.delta == pytest.approx(3.0 * TWO_PI * 50.0)
    # lam = g*Omega/delta; at the defaults that is 2*pi*50/3 rad/ms
    assert p.lam == pytest.approx(TWO_PI * 50.0 / 3.0)
    # one full population-return cycle: 2*pi/lam = 0.06 ms exactly
    assert p.flip_period == pytest.approx(0.06)
    assert p.shift_upper == pytest.approx(p.lam)
    assert p.shift_lower_per_photon == pytest.approx(p.lam)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=1.0, omega_drive=1.0, delta=0.0)
    with pytest.raises(ValueError):
        ModelParams(g=1.0, omega_drive=1.0, delta=-5.0)
    with pytest.raises(ValueError):
        ModelParams(g=-1.0, omega_drive=1.0, delta=1.0)


def test_coupling_weights_poles_and_equator():
    u_plus, u_minus = coupling_weights(0.0, 0.0)
    assert u_plus == pytest.approx(1.0)
    assert u_minus == pytest.approx(0.0)
    u_plus, u_minus = coupling_weights(math.pi, 1.3)
    assert abs(u_plus) == pytest.approx(0.0, abs=1e-15)
    assert abs(u_minus) == pytest.approx(1.0)
    u_plus, u_minus = coupling_weights(math.pi / 2, 0.0)
    assert u_plus == pytest.approx(1 / math.sqrt(2))
    assert u_minus == pytest.approx(1 / math.sqrt(2))


def test_coupling_weights_normalized_and_single_valued():
    rng = np.random.default_rng(7)
    for theta, phi in zip(rng.uniform(0, math.pi, 25), rng.uniform(0, 20, 25)):
        u_plus, u_minus = coupling_weights(theta, phi)
        assert abs(u_plus) ** 2 + abs(u_minus) ** 2 == pytest.approx(1.0)
        # a full azimuth turn returns the same weights exactly: the gauge is
        # single-valued on the sphere, so closed loops close the Hamiltonian
        v_plus, v_minus = coupling_weights(theta, phi + TWO_PI)
        assert v_plus == pytest.approx(u_plus, abs=1e-12)
        assert v_minus == pytest.approx(u_minus, abs=1e-12)


def test_hamiltonian_matrix_elements():
    space = make_space(2, 2)
    params = default_params()
    theta, phi = 0.9, 2.1
    h = HamiltonianFactory(space, params).dense(theta, phi)
    u_plus, u_minus = coupling_weights(theta, phi)
    lam = params.lam
    # coupling block: <2,n-1,m| H |1,n,m> = lam * sqrt(n) * u_plus
    r = state_index(space, 2, 0, 0)
    assert h[r, state_index(space, 1, 1, 0)] == pytest.approx(lam * u_plus)
    assert h[r, state_index(space, 1, 0, 1)] == pytest.approx(lam * u_minus)
    r2 = state_index(space, 2, 1, 1)
    assert h[r2, state_index(space, 1, 2, 1)] == pytest.approx(
        lam * math.sqrt(2) * u_plus
    )
    # diagonal: upper level carries the drive light shift, lower level the
    # per-photon cavity shift
    assert h[r, r] == pytest.approx(params.shift_upper)
    i1 = state_index(space, 1, 2, 1)
    assert h[i1, i1] == pytest.approx(3 * params.shift_lower_per_photon)


def test_hamiltonian_hermitian_on_grid():
    space = make_space(3, 3)
    params = default_params()
    factory = HamiltonianFactory(space, params)
    worst = 0.0
    for theta in np.linspace(0, math.pi, 7):
        for phi in np.linspace(0, TWO_PI, 7):
            h = factory.dense(theta, phi)
            worst = max(worst, float(np.max(np.abs(h - h.conj().T))))
    assert worst < 1e-12


def test_hamiltonian_commutes_with_excitation_number():
    space = make_space(3, 3)
    params = default_params()
    n_exc = excitation_operator(space).dense()
    factory = HamiltonianFactory(space, params)
    rng = np.random.default_rng(3)
    for theta, phi in zip(rng.uniform(0, math.pi, 5), rng.uniform(0, TWO_PI, 5)):
        h = factory.dense(theta, phi)
        comm = h @ n_exc - n_exc @ h
        assert float(np.max(np.abs(comm))) < 1e-12


def test_factory_matches_builder():
    # H assembled term by term from the hilbert operators, as the model
    # docstring writes it, against the factory's precomputed pieces
    space = make_space(2, 1)
    params = default_params()
    factory = HamiltonianFactory(space, params)
    p1 = atomic_projector(space, 1).dense()
    p2 = atomic_projector(space, 2).dense()
    a_plus = annihilation(space, "plus").dense()
    a_minus = annihilation(space, "minus").dense()
    raise_op = atomic_raise(space).dense()
    number = a_plus.conj().T @ a_plus + a_minus.conj().T @ a_minus
    for theta, phi in [(0.0, 0.0), (1.1, 0.7), (math.pi, 4.0)]:
        u_plus, u_minus = coupling_weights(theta, phi)
        drive = params.lam * (u_plus * a_plus + u_minus * a_minus) @ raise_op
        built = (
            params.shift_upper * p2
            + params.shift_lower_per_photon * number @ p1
            + drive
            + drive.conj().T
        )
        np.testing.assert_allclose(factory.dense(theta, phi), built, atol=1e-12)


def test_sector_factory_is_the_full_block_bit_for_bit():
    # the transport steps with the sector-restricted factory; its matrices
    # must be exactly the block the full factory would give
    space = make_space(4, 2)
    params = default_params()
    full = HamiltonianFactory(space, params)
    rng = np.random.default_rng(5)
    sectors = [
        excitation_sector_indices(space, n_exc)
        for n_exc in range(space.nmax_plus + space.nmax_minus + 2)
    ]
    # all sectors at once, as evolve stacks them: rows padded with space.dim
    width = max(len(sector) for sector in sectors)
    rows = [sector + [space.dim] * (width - len(sector)) for sector in sectors]
    stacked = HamiltonianFactory(space, params, rows)
    for k, sector in enumerate(sectors):
        restricted = HamiltonianFactory(space, params, sector)
        ix = np.ix_(sector, sector)
        size = len(sector)
        thetas = rng.uniform(0, math.pi, 50)
        phis = rng.uniform(-TWO_PI, 3 * TWO_PI, 50)
        for theta, phi in zip(thetas, phis):
            block = full.dense(theta, phi)[ix]
            assert np.array_equal(restricted.dense(theta, phi), block)
            padded = stacked.dense(theta, phi)[k]
            assert np.array_equal(padded[:size, :size], block)
            assert not np.any(padded[size:]) and not np.any(padded[:, size:])


def test_single_excitation_spectrum_at_pole():
    # at theta = 0 the driven doublet splits to {0, 2*lam} around the dark
    # state left at lam (default parameters make both diagonal shifts lam)
    space = make_space(1, 1)
    params = default_params()
    h = HamiltonianFactory(space, params).dense(0.0, 0.0)
    idx = excitation_sector_indices(space, 1)
    block = h[np.ix_(idx, idx)]
    vals = np.linalg.eigvalsh(block)
    lam = params.lam
    np.testing.assert_allclose(vals, [0.0, lam, 2 * lam], atol=1e-10)


def test_excitation_sector_indices():
    space = make_space(2, 2)
    idx = excitation_sector_indices(space, 1)
    expected = {
        state_index(space, 2, 0, 0),
        state_index(space, 1, 1, 0),
        state_index(space, 1, 0, 1),
    }
    assert set(idx) == expected
    # sectors partition the space
    everything = []
    for k in range(0, 2 + 2 + 1 + 1):
        everything.extend(excitation_sector_indices(space, k))
    assert sorted(everything) == list(range(space.dim))


def test_vacuum_is_sector_zero():
    space = make_space(2, 2)
    vac = fock_state(space, 1, 0, 0)
    n_exc = excitation_operator(space).entries
    assert np.vdot(vac.amplitudes, n_exc @ vac.amplitudes).real == pytest.approx(0.0)
    assert excitation_sector_indices(space, 0) == [state_index(space, 1, 0, 0)]


@pytest.mark.parametrize("cutoffs", [(2, 1), (4, 2), (8, 2)], ids=["2-1", "4-2", "8-2"])
def test_excitation_operator_is_the_integer_labels(cutoffs):
    # states of one sector must compare equal, so the diagonal is exact
    space = make_space(*cutoffs)
    labels = np.zeros(space.dim)
    for level in (1, 2):
        for n in range(space.nmax_plus + 1):
            for m in range(space.nmax_minus + 1):
                labels[state_index(space, level, n, m)] = (level - 1) + n + m
    n_exc = excitation_operator(space).dense()
    assert np.array_equal(n_exc, np.diag(labels))
