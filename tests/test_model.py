"""Unit tests for model parameters, coupling weights, and the Hamiltonian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopqed.hilbert import fock_state, make_space, state_index
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


@pytest.mark.parametrize("rates", [
    dict(g=math.nan, omega_drive=1.0, delta=math.inf),
    dict(g=1.0, omega_drive=math.nan, delta=1.0),
    dict(g=1.0, omega_drive=1.0, delta=math.nan),
    dict(g=math.inf, omega_drive=1.0, delta=1.0),
])
def test_params_refuse_non_finite_rates(rates):
    with pytest.raises(ValueError, match="must be"):
        ModelParams(**rates)


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
    n_exc = excitation_operator(space).entries.toarray()
    factory = HamiltonianFactory(space, params)
    rng = np.random.default_rng(3)
    for theta, phi in zip(rng.uniform(0, math.pi, 5), rng.uniform(0, TWO_PI, 5)):
        h = factory.dense(theta, phi)
        comm = h @ n_exc - n_exc @ h
        assert float(np.max(np.abs(comm))) < 1e-12


def _built_hamiltonian(space, params, theta, phi):
    """H assembled term by term, as the model docstring writes it, from dense
    ladder and atomic matrices in atom (x) plus (x) minus order."""

    def ladder(nmax):
        return np.diag(np.sqrt(np.arange(1.0, nmax + 1)), 1)

    def kron3(atom, plus, minus):
        return np.kron(atom, np.kron(plus, minus))

    one_plus, one_minus = np.eye(space.nmax_plus + 1), np.eye(space.nmax_minus + 1)
    a_plus = kron3(np.eye(2), ladder(space.nmax_plus), one_minus)
    a_minus = kron3(np.eye(2), one_plus, ladder(space.nmax_minus))
    p1 = kron3(np.diag([1.0, 0.0]), one_plus, one_minus)
    p2 = kron3(np.diag([0.0, 1.0]), one_plus, one_minus)
    raise_op = kron3(np.array([[0.0, 0.0], [1.0, 0.0]]), one_plus, one_minus)
    number = a_plus.T @ a_plus + a_minus.T @ a_minus
    u_plus, u_minus = coupling_weights(theta, phi)
    drive = params.lam * (u_plus * a_plus + u_minus * a_minus) @ raise_op
    return (
        params.shift_upper * p2
        + params.shift_lower_per_photon * number @ p1
        + drive
        + drive.conj().T
    )


def test_factory_matches_builder():
    # from n = 2 on, the built photon number sqrt(n)**2 is not the integer
    # n the factory holds, hence the tolerance
    params = default_params()
    for cutoffs in [(2, 1), (4, 2)]:
        space = make_space(*cutoffs)
        factory = HamiltonianFactory(space, params)
        for theta, phi in [(0.0, 0.0), (1.1, 0.7), (math.pi, 4.0)]:
            np.testing.assert_allclose(
                factory.dense(theta, phi),
                _built_hamiltonian(space, params, theta, phi),
                rtol=0,
                atol=1e-12,
            )


def test_sector_factory_is_the_full_block_bit_for_bit():
    # the transport steps with the sector-restricted factory; its matrices
    # must be exactly the block the full factory would give.  The stepper
    # builds a block of points in one call: each point's matrix must be
    # exactly the one a call for that point alone gives
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
        for factory in (full, restricted, stacked):
            points = factory.dense(thetas, phis)
            assert points.shape == (thetas.size,) + factory.dense(0.0, 0.0).shape
            for j, (theta, phi) in enumerate(zip(thetas, phis)):
                assert np.array_equal(points[j], factory.dense(theta, phi))


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
    n_exc = excitation_operator(space).entries.toarray()
    assert np.array_equal(n_exc, np.diag(labels))


# ---------------------------------------------------------------------------
# covariance of H along azimuths and meridians (what makes lasso legs exact)

TRUNCATIONS = [(1, 1), (2, 3), (4, 2), (8, 2), (6, 6)]


def _rotated(k, theta, h):
    """exp(-i theta K) h exp(i theta K), from one eigendecomposition of K."""
    w, v = np.linalg.eigh(k)
    u = (v * np.exp(-1j * theta * w)) @ v.conj().T
    return u @ h @ u.conj().T


@settings(max_examples=40)
@given(st.sampled_from(TRUNCATIONS), st.floats(0.0, math.pi), st.floats(-20.0, 20.0))
def test_azimuth_is_a_diagonal_frame_in_any_truncation(cutoffs, theta, phi):
    # H(theta, phi) = exp(-i phi N-) H(theta, 0) exp(i phi N-), compared in
    # units of the flip rate lam
    params = default_params()
    factory = HamiltonianFactory(make_space(*cutoffs), params)
    r = np.exp(-1j * phi * factory.minus_photons)
    framed = r[:, None] * factory.dense(theta, 0.0) * r.conj()[None, :]
    deviation = np.max(np.abs(factory.dense(theta, phi) - framed)) / params.lam
    assert deviation < 1e-12


@settings(max_examples=40)
@given(st.sampled_from(TRUNCATIONS), st.data(), st.floats(0.0, math.pi))
def test_meridian_is_a_mode_rotation_in_complete_sectors(cutoffs, data, theta):
    # H(theta, 0) = exp(-i theta K) H(0, 0) exp(i theta K) on sector k when
    # both modes can hold all k photons
    space = make_space(*cutoffs)
    k = data.draw(st.integers(0, min(cutoffs)), label="sector")
    params = default_params()
    factory = HamiltonianFactory(space, params, excitation_sector_indices(space, k))
    rotated = _rotated(factory.mode_rotation(), theta, factory.dense(0.0, 0.0))
    deviation = np.max(np.abs(factory.dense(theta, 0.0) - rotated)) / params.lam
    assert deviation < 1e-12


@settings(max_examples=40)
@given(st.floats(0.3, math.pi))
def test_meridian_rotation_fails_in_a_truncated_sector(theta):
    # sector 3 at (4, 2) lacks |1, 0, 3>, which the rotation reaches: the
    # identity fails visibly, so meridian legs there must be stepped
    space = make_space(4, 2)
    params = default_params()
    factory = HamiltonianFactory(space, params, excitation_sector_indices(space, 3))
    rotated = _rotated(factory.mode_rotation(), theta, factory.dense(0.0, 0.0))
    deviation = np.max(np.abs(factory.dense(theta, 0.0) - rotated)) / params.lam
    assert deviation > 1e-3


def test_mode_rotation_on_a_padded_stack_is_the_blocks():
    # the stack's K is each sector's K, with exact zeros on the padding
    space = make_space(2, 2)
    params = default_params()
    blocks = [excitation_sector_indices(space, k) for k in (1, 2)]
    width = max(len(b) for b in blocks)
    rows = np.array([b + [space.dim] * (width - len(b)) for b in blocks])
    stack = HamiltonianFactory(space, params, rows).mode_rotation()
    full = HamiltonianFactory(space, params).mode_rotation()
    for b, block in zip(blocks, stack):
        np.testing.assert_array_equal(block[: len(b), : len(b)], full[np.ix_(b, b)])
        assert np.all(block[len(b):] == 0) and np.all(block[:, len(b):] == 0)
    np.testing.assert_array_equal(full, full.conj().T)


@settings(max_examples=40)
@given(
    st.sampled_from(TRUNCATIONS),
    st.data(),
    st.floats(0.0, math.pi),
    st.floats(-20.0, 20.0),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
)
def test_drive_frame_generates_the_rotating_frame(cutoffs, data, theta, phi, theta_rate, phi_rate):
    # chi = W^H psi with W = exp(-i phi N-) exp(-i theta K) obeys
    # i dchi/dt = (W^H H W - i W^H dW/dt) chi, where each factor commutes with
    # its own generator: dW/dt = -i (phi' N- W + theta' W K).  Compared in
    # units of the flip rate lam, on complete sectors up to k = 4
    from scipy.linalg import expm

    space = make_space(*cutoffs)
    k = data.draw(st.integers(0, min(*cutoffs, 4)), label="sector")
    params = default_params()
    factory = HamiltonianFactory(space, params, excitation_sector_indices(space, k))
    n_minus = np.diag(factory.minus_photons).astype(float)
    k_mat = factory.mode_rotation()
    w = expm(-1j * phi * n_minus) @ expm(-1j * theta * k_mat)
    dw = -1j * (phi_rate * n_minus @ w + theta_rate * w @ k_mat)
    expected = w.conj().T @ factory.dense(theta, phi) @ w - 1j * w.conj().T @ dw
    generator = factory.drive_frame(theta, theta_rate, phi_rate)
    assert np.max(np.abs(generator - expected)) / params.lam < 1e-12
    # an array of angles gives each point's generator on a leading axis
    stack = factory.drive_frame(np.array([[theta, 0.0]]), theta_rate, phi_rate)
    assert stack.shape == (1, 2, *generator.shape)
    np.testing.assert_allclose(stack[0, 0], generator, rtol=0, atol=1e-12 * params.lam)
