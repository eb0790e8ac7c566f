"""Unit tests for the truncated state space: indexing, states, operators."""

import math
import re

import numpy as np
import pytest

from loopqed.hilbert import (
    DEFAULT_TAIL_TOL,
    OperatorMatrix,
    StateVector,
    TruncationError,
    basis_labels,
    coherent_mode_coefficients,
    complete_box,
    embed_state,
    coherent_tail_mass,
    fock_state,
    make_space,
    require_complete,
    state_index,
)

from scipy import sparse


def test_space_dim():
    assert make_space(3, 2).dim == 2 * 4 * 3
    assert make_space(0, 0).dim == 2
    # the widest space any acceptance run needs stays modest
    assert make_space(12, 12).dim == 338


def test_space_validation():
    with pytest.raises(ValueError):
        make_space(-1, 0)
    with pytest.raises(ValueError):
        make_space(2, -3)


def test_index_bijection():
    space = make_space(3, 2)
    seen = set()
    for level in (1, 2):
        for n in range(4):
            for m in range(3):
                idx = state_index(space, level, n, m)
                assert 0 <= idx < space.dim
                seen.add(idx)
    assert len(seen) == space.dim


@pytest.mark.parametrize("cutoffs", [(0, 0), (3, 2), (2, 5)])
def test_basis_labels_round_trip_state_index(cutoffs):
    space = make_space(*cutoffs)
    labels = basis_labels(space)
    assert labels.shape == (3, space.dim)
    for idx, (atom, n, m) in enumerate(labels.T):
        assert state_index(space, int(atom) + 1, int(n), int(m)) == idx


def test_index_layout_level_blocks():
    # level-1 amplitudes occupy the first half of the vector, level-2 the rest
    space = make_space(2, 1)
    half = space.dim // 2
    assert state_index(space, 1, 0, 0) == 0
    assert state_index(space, 2, 0, 0) == half
    assert all(state_index(space, 1, n, m) < half for n in range(3) for m in range(2))


def test_index_validation():
    space = make_space(2, 2)
    with pytest.raises(ValueError):
        state_index(space, 3, 0, 0)
    with pytest.raises(ValueError):
        state_index(space, 1, 3, 0)
    with pytest.raises(ValueError):
        state_index(space, 1, 0, -1)


@pytest.mark.parametrize("target", [(3, 3), (5, 2), (2, 6), (1, 4), (4, 1)])
def test_embed_state_moves_each_amplitude_to_its_label(target):
    source = make_space(2, 2)
    amps = np.zeros(source.dim, dtype=complex)
    labelled = {(1, 0, 0): 0.6, (2, 1, 0): 0.48j, (1, 2, 2): -0.64}
    for (level, n, m), a in labelled.items():
        amps[state_index(source, level, n, m)] = a
    state = StateVector(amps, source)
    space = make_space(*target)
    held = {k: a for k, a in labelled.items() if k[1] <= target[0] and k[2] <= target[1]}
    if len(held) < len(labelled):
        with pytest.raises(TruncationError):
            embed_state(state, space)
        return
    moved = embed_state(state, space)
    expected = np.zeros(space.dim, dtype=complex)
    for (level, n, m), a in held.items():
        expected[state_index(space, level, n, m)] = a
    assert moved.space == space
    np.testing.assert_array_equal(moved.amplitudes, expected)
    # and back again, bit for bit
    np.testing.assert_array_equal(embed_state(moved, source).amplitudes, amps)


def test_embed_state_drops_only_zero_labels():
    # a vacuum written in a big box fits the smallest one
    big = fock_state(make_space(6, 6), 2, 0, 0)
    small = embed_state(big, make_space(0, 0))
    np.testing.assert_array_equal(small.amplitudes, [0.0, 1.0])


def test_complete_box_holds_the_highest_sector_of_any_row():
    space = make_space(4, 2)
    # |2,0,0> is in sector 1, |1,2,1> in sector 3
    rows = [fock_state(space, 2, 0, 0).amplitudes, fock_state(space, 1, 2, 1).amplitudes]
    batch = StateVector(np.array(rows), space)
    assert complete_box(batch) == make_space(3, 3)
    assert complete_box(StateVector(rows[0], space)) == make_space(1, 1)
    assert complete_box(StateVector(np.zeros(space.dim), space, normalized=False)) == (
        make_space(0, 0)
    )


def test_require_complete_names_the_lowest_cut_sector_and_the_box():
    # a box (a, b) holds sector k whole iff k <= min(a, b)
    require_complete(make_space(3, 5), [0, 1, 3])
    require_complete(make_space(0, 0), [])
    message = "excitation sector 3 is cut by the cutoffs (4, 2); the box (5, 5) holds"
    with pytest.raises(TruncationError, match=re.escape(message)):
        require_complete(make_space(4, 2), [1, 3, 5])
    with pytest.raises(TruncationError, match=re.escape("sector 1 is cut by the cutoffs (0, 4)")):
        require_complete(make_space(0, 4), 1)


def test_fock_state_one_hot():
    space = make_space(2, 2)
    st = fock_state(space, 2, 1, 0)
    assert st.norm == pytest.approx(1.0)
    idx = state_index(space, 2, 1, 0)
    expected = np.zeros(space.dim)
    expected[idx] = 1.0
    np.testing.assert_allclose(st.amplitudes, expected)


def test_state_vector_norm_enforced():
    space = make_space(1, 0)
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]), space)
    # explicit opt-out for intermediates
    st = StateVector(np.array([1.0, 1.0, 0.0, 0.0]), space, normalized=False)
    assert st.norm == pytest.approx(math.sqrt(2.0))


def test_state_vector_shape_checked():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3), make_space(1, 0))


def test_operator_hermitian_flag_enforced():
    space = make_space(1, 0)
    bad = sparse.csr_matrix(np.array([[0, 1], [0, 0]], dtype=complex))
    bad.resize(space.dim, space.dim)
    with pytest.raises(ValueError):
        OperatorMatrix(bad, space, hermitian=True)
    OperatorMatrix(bad, space, hermitian=False)  # fine when not claimed


# ---- Poisson truncation tails ----------------------------------------------
# Frozen reference values computed from partial sums of the Poisson law
# P(X > nmax) with mean |alpha|^2, independently of the implementation.

TAIL_ORACLES = [
    (2.0, 12, 2.7371682892e-04),
    (2.0, 3, 5.665299017e-01),
    (2.0, 16, 1.132832e-06),
    (1.0, 12, 6.359779e-11),
    (2.0, 8, 2.136343e-02),
]


@pytest.mark.parametrize("alpha,nmax,tail", TAIL_ORACLES)
def test_coherent_tail_oracles(alpha, nmax, tail):
    assert coherent_tail_mass(alpha, nmax) == pytest.approx(tail, rel=1e-6)


def test_coherent_coefficients_match_poisson():
    alpha = 1.3
    coeffs = coherent_mode_coefficients(alpha, 14, DEFAULT_TAIL_TOL)
    # renormalized: unit norm; ratios follow c_{n+1}/c_n = alpha/sqrt(n+1)
    assert np.linalg.norm(coeffs) == pytest.approx(1.0)
    for n in range(14):
        assert coeffs[n + 1] / coeffs[n] == pytest.approx(alpha / math.sqrt(n + 1))


def test_coherent_truncation_error_raised():
    with pytest.raises(TruncationError) as err:
        coherent_mode_coefficients(2.0, 3)
    assert "tail" in str(err.value).lower()


def test_coherent_truncation_threshold_is_inclusive():
    # tail mass exactly at the tolerance must be rejected
    alpha, nmax = 2.0, 8
    tail = coherent_tail_mass(alpha, nmax)
    with pytest.raises(TruncationError):
        coherent_mode_coefficients(alpha, nmax, tail)
    coherent_mode_coefficients(alpha, nmax, tail * 1.000001)


def test_zero_alpha_equals_vacuum():
    np.testing.assert_allclose(coherent_mode_coefficients(0.0, 4), [1, 0, 0, 0, 0])



@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, math.nan)])
def test_non_finite_alpha_is_rejected(alpha):
    # the tail of a NaN amplitude is NaN, which no tolerance check catches,
    # so the amplitude itself is refused
    assert math.isnan(coherent_tail_mass(math.nan, 8))
    with pytest.raises(ValueError, match="must be finite"):
        coherent_mode_coefficients(alpha, 8)
    with pytest.raises(ValueError, match="must be finite"):
        coherent_mode_coefficients([0.5, alpha], 8)


@pytest.mark.parametrize("alpha", [1e155, -1e300, complex(0.0, 1e300)])
def test_amplitude_whose_square_overflows_is_refused_by_its_tail(alpha):
    # |alpha|^2 is inf, yet the amplitude is finite: it keeps no mass at or
    # below the cutoff, so the tail check refuses it
    assert coherent_tail_mass(alpha, 8) == 1.0
    with pytest.raises(TruncationError, match="tail mass 1.000e"):
        coherent_mode_coefficients([0.5, alpha], 8)


def test_nan_norm_is_rejected():
    space = make_space(1, 0)
    with pytest.raises(ValueError, match="norm nan"):
        StateVector(np.array([math.nan, 1.0, 0.0, 0.0]), space)
    with pytest.raises(ValueError, match="norm nan"):
        StateVector(np.array([[1.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0]]), space)


def test_coefficient_batch_matches_each_amplitude_bit_for_bit():
    alphas = [0.0, 0.37, 1.0, 1.9, 2.01]
    batch = coherent_mode_coefficients(alphas, 16)
    assert batch.shape == (5, 17)
    for alpha, row in zip(alphas, batch):
        np.testing.assert_array_equal(row, coherent_mode_coefficients(alpha, 16))
    tails = coherent_tail_mass(np.array(alphas), 16)
    assert tails.tolist() == [coherent_tail_mass(a, 16) for a in alphas]


def test_coefficient_batch_names_the_first_amplitude_that_does_not_fit():
    with pytest.raises(TruncationError, match="alpha=3.0 ") as err:
        coherent_mode_coefficients([0.1, 3.0, 4.0], 8)
    assert err.value.alpha == 3.0
    # one tolerance per amplitude
    with pytest.raises(TruncationError) as err:
        coherent_mode_coefficients([1.0, 1.0], 8, [1e-3, 1e-9])
    assert err.value.alpha == 1.0


def test_state_batch_holds_one_state_a_row():
    space = make_space(1, 1)
    rows = np.eye(space.dim)[[0, 3, 5]]
    batch = StateVector(rows, space)
    np.testing.assert_array_equal(batch.norm, [1.0, 1.0, 1.0])
    moved = embed_state(batch, make_space(2, 2))
    assert moved.amplitudes.shape == (3, make_space(2, 2).dim)
    for row, single in zip(moved.amplitudes, rows):
        np.testing.assert_array_equal(
            row, embed_state(StateVector(single, space), make_space(2, 2)).amplitudes
        )
    with pytest.raises(ValueError):
        StateVector(np.zeros((2, 3, space.dim)), space, normalized=False)
