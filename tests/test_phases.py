"""Unit tests for geometric-phase extraction and dressed-branch transport."""

import math

import numpy as np
import pytest

from loopqed.hilbert import StateVector, fock_state, make_space, state_index
from loopqed.model import ModelParams, default_params
from loopqed.phases import (
    DegeneracyError,
    PhaseReading,
    adiabatic_eigenstate_transport,
    analytic_dressed_phase,
    dressed_phase_pair,
    ideal_phase_map,
    wrap_phase,
)
from loopqed.poincare_path import lasso_path, make_schedule

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# wrap_phase


def test_wrap_phase_edges():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == pytest.approx(math.pi, abs=0)
    # the branch cut maps -pi to +pi: the interval is (-pi, pi]
    assert wrap_phase(-math.pi) == pytest.approx(math.pi, abs=0)
    assert wrap_phase(math.pi + 0.25) == pytest.approx(-math.pi + 0.25, abs=1e-12)
    assert wrap_phase(-math.pi - 0.25) == pytest.approx(math.pi - 0.25, abs=1e-12)
    assert wrap_phase(TWO_PI) == pytest.approx(0.0, abs=1e-12)
    assert wrap_phase(-5 * math.pi) == pytest.approx(math.pi, abs=1e-9)
    assert wrap_phase(0.3) == pytest.approx(0.3, abs=1e-15)


def test_wrap_phase_idempotent_on_grid():
    for x in np.linspace(-9.0, 9.0, 181):
        w = wrap_phase(float(x))
        assert -math.pi < w <= math.pi
        assert wrap_phase(w) == pytest.approx(w, abs=1e-12)
        # difference from the input is a whole number of turns
        turns = (x - w) / TWO_PI
        assert abs(turns - round(turns)) < 1e-12


# ---------------------------------------------------------------------------
# analytic dressed-branch phases


def test_analytic_dressed_phase_values():
    g = 1.7
    assert analytic_dressed_phase(0, 0, g, "upper") == pytest.approx(g / 4)
    assert analytic_dressed_phase(0, 0, g, "lower") == pytest.approx(-g / 4)
    assert analytic_dressed_phase(1, 0, g, "upper") == pytest.approx(3 * g / 4)
    assert analytic_dressed_phase(0, 1, g, "upper") == pytest.approx(-g / 4)
    assert analytic_dressed_phase(2, 1, g, "upper") == pytest.approx(0.75 * g)


def test_analytic_dressed_phase_linearity_and_oddness():
    for n, m in [(0, 0), (1, 0), (0, 2), (3, 1)]:
        base = analytic_dressed_phase(n, m, 0.9, "upper")
        assert analytic_dressed_phase(n, m, 1.8, "upper") == pytest.approx(2 * base)
        assert analytic_dressed_phase(n, m, 0.9, "lower") == pytest.approx(-base)
        assert analytic_dressed_phase(n, m, 0.0, "upper") == 0.0


def test_analytic_dressed_phase_validation():
    with pytest.raises(ValueError):
        analytic_dressed_phase(-1, 0, 1.0, "upper")
    with pytest.raises(ValueError):
        analytic_dressed_phase(0, -2, 1.0, "lower")
    with pytest.raises(ValueError):
        analytic_dressed_phase(0, 0, 1.0, "middle")


# ---------------------------------------------------------------------------
# PhaseReading invariant


def test_phase_reading_enforces_decomposition():
    ok = PhaseReading(
        total_phase=1.0,
        dynamical_phase=0.25,
        geometric_phase=0.75,
        cyclicity=0.999,
    )
    assert ok.geometric_phase == pytest.approx(
        wrap_phase(ok.total_phase - ok.dynamical_phase)
    )
    with pytest.raises(ValueError):
        PhaseReading(
            total_phase=1.0,
            dynamical_phase=0.25,
            geometric_phase=0.5,
            cyclicity=0.999,
        )
    with pytest.raises(ValueError):
        PhaseReading(
            total_phase=0.0,
            dynamical_phase=0.0,
            geometric_phase=0.0,
            cyclicity=1.5,
        )


def test_phase_reading_decomposition_wraps_modulo_turns():
    # a dynamical phase many turns long still decomposes consistently
    reading = PhaseReading(
        total_phase=0.4,
        dynamical_phase=-25.0 * TWO_PI - 0.35,
        geometric_phase=wrap_phase(0.4 + 25.0 * TWO_PI + 0.35),
        cyclicity=1.0,
    )
    assert reading.geometric_phase == pytest.approx(0.75, abs=1e-9)


# ---------------------------------------------------------------------------
# adiabatic transport of dressed branches


def test_vacuum_doublet_pair_matches_quarter_solid_angle():
    space = make_space(2, 1)
    params = default_params()
    gamma = math.pi
    loop = lasso_path(gamma, 100 * params.flip_period)
    pair = dressed_phase_pair(space, params, loop, (0, 0))
    assert set(pair) == {"upper", "lower"}

    upper = pair["upper"]
    lower = pair["lower"]
    target = analytic_dressed_phase(0, 0, gamma, "upper")
    assert upper.geometric_phase == pytest.approx(target, rel=0.025)
    assert lower.geometric_phase == pytest.approx(-target, rel=0.025)
    # resonant doublet: the reversed-loop lower branch is the exact mirror
    # of the forward upper branch at any sweep speed
    assert abs(upper.geometric_phase + lower.geometric_phase) < 1e-10

    for reading in (upper, lower):
        assert reading.cyclicity > 0.999
        assert reading.metadata["doublet"] == (0, 0)
        assert reading.metadata["min_adiabatic_fidelity"] > 0.999
        assert reading.metadata["duration"] == pytest.approx(loop.total_time)
    assert upper.metadata["branch"] == "upper"
    assert lower.metadata["branch"] == "lower"
    # at default parameters the vacuum doublet splits by 2 lam around the
    # dark level, so the tracked gap is lam on both branches
    assert upper.metadata["eigenvalue"] == pytest.approx(2 * params.lam, rel=1e-9)
    assert lower.metadata["eigenvalue"] == pytest.approx(0.0, abs=1e-6)
    assert upper.metadata["min_gap"] == pytest.approx(params.lam, rel=1e-6)


def test_higher_doublet_pair_is_opposite_when_resonant():
    # The (n, m) = (1, 0) doublet is resonant when the drive strength is
    # sqrt(2) times the cavity coupling; keeping delta = 3 * drive leaves
    # the flip rate unchanged.
    g = TWO_PI * 50.0
    params = ModelParams(g=g, omega_drive=math.sqrt(2.0) * g,
                         delta=3.0 * math.sqrt(2.0) * g)
    assert params.lam == pytest.approx(g / 3.0, rel=1e-12)
    space = make_space(2, 2)
    gamma = math.pi
    # 56 flips keeps the azimuth sweep below a tenth of the smallest gap
    # this doublet sees mid-loop (other levels in its excitation sector
    # approach it far closer than the vacuum doublet's constant gap)
    loop = lasso_path(gamma, 56 * params.flip_period)
    pair = dressed_phase_pair(space, params, loop, (1, 0))
    up = pair["upper"].geometric_phase
    lo = pair["lower"].geometric_phase
    assert abs(up + lo) < 1e-10
    assert up > 0  # adiabatic limit is +3 gamma / 4
    assert abs(up) < math.pi  # fast sweep keeps it below the ideal value
    assert pair["upper"].cyclicity > 0.99


def test_transport_energy_integral_scheme():
    # Removing the energy integral -int <H> dt instead of the reference
    # arm's -E0 T differs by a non-adiabatic correction; the two removals
    # must agree in the slow limit.  Both are recorded in metadata, so one
    # run per speed reads out both.
    space = make_space(2, 1)
    params = default_params()

    def scheme_gap(flips: int) -> float:
        loop = lasso_path(math.pi, flips * params.flip_period)
        sched = make_schedule(loop, effective_coupling=params.lam)
        reading = adiabatic_eigenstate_transport(
            space, params, sched, (0, 0), branch="upper",
            dt=loop.total_time / 4000,
        )
        assert reading.dynamical_phase == pytest.approx(
            reading.metadata["dynamical_phase_reference"]
        )
        geo_energy = wrap_phase(
            reading.total_phase - reading.metadata["dynamical_phase_energy_integral"]
        )
        return abs(wrap_phase(reading.geometric_phase - geo_energy))

    fast = scheme_gap(24)
    slow = scheme_gap(96)
    assert fast < 0.5
    assert slow < 0.6 * fast


def test_transport_rejects_bad_inputs():
    space = make_space(2, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 1.2), effective_coupling=params.lam)
    with pytest.raises(ValueError):
        adiabatic_eigenstate_transport(space, params, sched, (-1, 0))
    with pytest.raises(ValueError):
        # needs nmax_plus >= n + 1
        adiabatic_eigenstate_transport(space, params, sched, (2, 0))
    with pytest.raises(ValueError):
        adiabatic_eigenstate_transport(space, params, sched, (0, 2))
    with pytest.raises(ValueError):
        adiabatic_eigenstate_transport(space, params, sched, (0, 0), branch="top")


def test_transport_raises_on_fast_sweep_gap_violation():
    # A loop traversed in a fraction of a flip period sweeps angles far
    # faster than the protective gap, and the precheck must refuse to run.
    space = make_space(2, 1)
    params = default_params()
    sched = make_schedule(lasso_path(math.pi, 0.004), effective_coupling=params.lam)
    with pytest.raises(DegeneracyError, match="sweep rate"):
        adiabatic_eigenstate_transport(space, params, sched, (0, 0))


# ---------------------------------------------------------------------------
# ideal phase map


def test_ideal_phase_map_vacuum_assignments():
    space = make_space(2, 2)
    gamma = 1.3

    ground = ideal_phase_map(fock_state(space, 1, 0, 0), gamma)
    np.testing.assert_allclose(
        ground.amplitudes, fock_state(space, 1, 0, 0).amplitudes, atol=1e-15
    )

    cases = [
        ((2, 0, 0), gamma / 4),
        ((2, 1, 0), 3 * gamma / 4),
        ((2, 0, 1), -gamma / 4),
        ((1, 1, 0), gamma / 4),
        ((1, 2, 1), gamma / 4),
        ((1, 0, 1), -gamma / 2),
        ((1, 0, 2), -gamma),
    ]
    for (level, n, m), expect in cases:
        before = fock_state(space, level, n, m)
        after = ideal_phase_map(before, gamma)
        ov = complex(np.vdot(before.amplitudes, after.amplitudes))
        assert abs(ov) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(ov) == pytest.approx(wrap_phase(expect), abs=1e-12)


def test_ideal_phase_map_matches_the_per_state_rule_exactly():
    # every basis state of a space with photons in both modes, against the
    # per-state rule of the docstring written as a loop
    space = make_space(3, 2)
    gamma = 2.2
    state = StateVector(np.ones(space.dim), space, normalized=False)
    mapped = ideal_phase_map(state, gamma)
    for level in (1, 2):
        for n in range(space.nmax_plus + 1):
            for m in range(space.nmax_minus + 1):
                if level == 2:
                    phase = 0.5 * gamma * (n - m + 0.5)
                elif n >= 1:
                    phase = 0.5 * gamma * (n - m - 0.5)
                else:
                    phase = -0.5 * gamma * m
                expect = complex(math.cos(phase), math.sin(phase))
                assert mapped.amplitudes[state_index(space, level, n, m)] == expect


def test_ideal_phase_map_preserves_populations():
    space = make_space(3, 1)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps, space)
    mapped = ideal_phase_map(state, 2.2)
    np.testing.assert_allclose(
        np.abs(mapped.amplitudes), np.abs(state.amplitudes), atol=1e-14
    )
    assert np.linalg.norm(mapped.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_ideal_phase_map_zero_angle_is_identity():
    space = make_space(2, 2)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps, space)
    mapped = ideal_phase_map(state, 0.0)
    np.testing.assert_allclose(mapped.amplitudes, state.amplitudes, atol=1e-15)
