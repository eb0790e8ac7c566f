"""Unit tests for geometric-phase extraction and dressed-branch transport."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopqed.dynamics import _resolve_steps, _step_leg
from loopqed.hilbert import StateVector, fock_state, make_space, state_index
from loopqed.model import (
    HamiltonianFactory,
    ModelParams,
    default_params,
    excitation_sector_indices,
)
from loopqed.phases import (
    FIDELITY_GRID,
    DegeneracyError,
    NonCyclicWarning,
    PhaseReading,
    _exact_leg_fidelity,
    _select_doublet_branch,
    adiabatic_eigenstate_transport,
    analytic_dressed_phase,
    dressed_phase_pair,
    ideal_phase_map,
    wrap_phase,
)
from loopqed.poincare_path import (
    lasso_path,
    piecewise_path,
    rescaled_path,
    reversed_path,
    solid_angle,
)

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


def test_wrap_phase_of_an_array_is_each_scalar_bit_for_bit():
    angles = np.array([-5 * math.pi, -math.pi, -0.0, 0.0, 0.3, math.pi, 7.5, 1e6])
    wrapped = wrap_phase(angles)
    assert wrapped.shape == angles.shape
    for x, w in zip(angles, wrapped):
        alone = wrap_phase(float(x))
        assert type(alone) is float
        assert np.float64(alone).tobytes() == w.tobytes()


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


def test_analytic_dressed_phase_refuses_non_integral_labels():
    with pytest.raises(ValueError, match="photon labels must be integers"):
        analytic_dressed_phase(0.5, 0, 1.0, "upper")


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
    # 56 flips keeps the azimuth sweep below a tenth of this doublet's gap.
    # The gap is the same all along the loop, but another level of its
    # excitation sector lies far closer than in the vacuum doublet:
    # 43.38 rad/ms against lam = 104.7
    loop = lasso_path(gamma, 56 * params.flip_period)
    pair = dressed_phase_pair(space, params, loop, (1, 0))
    up = pair["upper"].geometric_phase
    lo = pair["lower"].geometric_phase
    assert abs(up + lo) < 1e-10
    assert up > 0  # adiabatic limit is +3 gamma / 4
    assert abs(up) < math.pi  # fast sweep keeps it below the ideal value
    assert pair["upper"].cyclicity > 0.99


def test_transport_rejects_bad_inputs():
    space = make_space(2, 1)
    params = default_params()
    loop = lasso_path(math.pi, 1.2)
    with pytest.raises(ValueError):
        adiabatic_eigenstate_transport(space, params, loop, (-1, 0))
    with pytest.raises(ValueError):
        # sector 3 needs nmax_plus >= 3
        adiabatic_eigenstate_transport(space, params, loop, (2, 0))
    with pytest.raises(ValueError):
        adiabatic_eigenstate_transport(space, params, loop, (0, 2))
    with pytest.raises(ValueError):
        adiabatic_eigenstate_transport(space, params, loop, (0, 0), branch="top")
    with pytest.raises(ValueError, match="sector 3"):
        # (4, 2) holds |2,1,1> and |1,2,1> but cuts their sector 3, which
        # lacks |1,0,3>; its phases there (+2.37 / -1.88 rad at 6 ms) are
        # not the complete sector's (+1.2154 / -0.3607)
        dressed_phase_pair(
            make_space(4, 2), params, lasso_path(math.pi, 6.0), (1, 1)
        )


def test_transport_refuses_non_integral_doublet_labels():
    with pytest.raises(ValueError, match="doublet labels must be integers"):
        adiabatic_eigenstate_transport(
            make_space(2, 2), default_params(), lasso_path(math.pi, 1.2), (0.5, 0)
        )


def test_transport_raises_on_fast_sweep_gap_violation():
    # A loop traversed in a fraction of a flip period sweeps angles far
    # faster than the protective gap, and the transport must refuse to run.
    space = make_space(2, 1)
    params = default_params()
    with pytest.raises(DegeneracyError, match="sweep rate"):
        adiabatic_eigenstate_transport(
            space, params, lasso_path(math.pi, 0.004), (0, 0)
        )


def _tilted_loop():
    # no leg of this loop runs along a meridian or a circle of latitude
    knots = [(0.3, 0.2), (1.4, 1.1), (2.2, 3.9), (0.9, 5.0), (0.3, 0.2 + 2 * math.pi)]
    return piecewise_path(knots, [1.0, 2.0, 1.5, 1.0])


@pytest.mark.parametrize("shape", ["lasso", "tilted"])
def test_gap_rule_is_exact_at_the_threshold(shape):
    # At default parameters the vacuum doublet's gap is lam.  The lasso's
    # peak rate is its azimuth sweep, 2 pi / (T / 2), so T = 1.2 ms puts
    # ten times the peak rate exactly at lam; the tilted loop is rescaled
    # to the same point.  A relative step of 1e-6 either way decides.
    space = make_space(2, 1)
    params = default_params()
    if shape == "lasso":
        t_edge = 1.2
        make = lambda t: lasso_path(math.pi, t)
    else:
        base = _tilted_loop()
        t_edge = base.total_time * 10.0 * base.max_rate / params.lam
        make = lambda t: rescaled_path(base, t)
    with pytest.raises(DegeneracyError, match="sweep rate"):
        adiabatic_eigenstate_transport(
            space, params, make(t_edge * (1 - 1e-6)), (0, 0), dt=t_edge / 200
        )
    loop = make(t_edge * (1 + 1e-6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonCyclicWarning)
        reading = adiabatic_eigenstate_transport(
            space, params, loop, (0, 0), dt=t_edge / 200
        )
    assert reading.metadata["min_gap"] == pytest.approx(params.lam, rel=1e-12)
    assert 10.0 * loop.max_rate < reading.metadata["min_gap"]


def _scanned_gap(space, params, loop, k, eigenvalue) -> float:
    """Smallest gap of the tracked level over a sampled scan of the loop."""
    factory = HamiltonianFactory(space, params, excitation_sector_indices(space, k))
    points = [
        (th_a + f * (th_b - th_a), ph_a + f * (ph_b - ph_a))
        for (th_a, ph_a), (th_b, ph_b) in zip(loop.knots, loop.knots[1:])
        for f in np.linspace(0.0, 1.0, 33)
    ]
    gap = math.inf
    for theta, phi in points:
        w = np.linalg.eigvalsh(factory.dense(float(theta), float(phi)))
        tracked = w[np.argmin(np.abs(w - eigenvalue))]
        others = w[np.abs(w - tracked) > 1e-12]
        gap = min(gap, float(np.min(np.abs(others - tracked))))
    return gap


_angle = st.floats(0.0, math.pi)
_azimuth = st.floats(-math.pi, math.pi)


@settings(max_examples=25)
@given(
    knots=st.lists(st.tuples(_angle, _azimuth), min_size=3, max_size=4),
    rates=st.lists(st.floats(0.5, 3.5), min_size=5, max_size=5),
    doublet=st.sampled_from([(0, 0), (1, 0), (0, 1)]),
    branch=st.sampled_from(["upper", "lower"]),
)
def test_min_gap_equals_a_sampled_scan_of_the_loop(knots, rates, doublet, branch):
    # In a complete sector the spectrum is the same at every point of the
    # sphere, so the gap read at the first knot is the gap along any loop,
    # tilted legs included.  The oracle scans >= 64 points of the loop.
    params = default_params()
    k = doublet[0] + 1 + doublet[1]
    space = make_space(k, k)
    points = [*knots, knots[0]]
    # each leg sweeps at most 3.5 rad/ms: ten times that stays below the
    # smallest tracked gap of these doublets (40 rad/ms in sector 2)
    durations = [
        max(math.hypot(tb - ta, pb - pa), 0.1) / rate
        for (ta, pa), (tb, pb), rate in zip(points, points[1:], rates)
    ]
    loop = piecewise_path(points, durations)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonCyclicWarning)
        reading = adiabatic_eigenstate_transport(
            space, params, loop, doublet, branch, dt=loop.total_time / 20
        )
    scanned = _scanned_gap(space, params, loop, k, reading.metadata["eigenvalue"])
    assert reading.metadata["min_gap"] == pytest.approx(scanned, rel=1e-9)


def test_transport_cost_is_one_eigh_per_step_and_no_scan(monkeypatch):
    # one eigendecomposition selects the branch and reads the gap, then one
    # per step; no sampled eigenvalue scan runs.  Each leg takes
    # ceil(leg / dt) steps: dt = 0.0009 ms cuts the 1.5, 3 and 1.5 ms legs
    # of the 6 ms lasso into 1667 + 3334 + 1667 steps, where a single count
    # over the whole loop would give ceil(6 / 0.0009) = 6667
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    loop = lasso_path(math.pi, 6.0)
    for dt, eigh_calls in ((loop.total_time / 2000, 2001), (0.0009, 6669)):
        calls.update(eigh=0, eigvalsh=0)
        adiabatic_eigenstate_transport(
            make_space(2, 1), default_params(), loop, (0, 0), "upper", dt=dt
        )
        assert calls == {"eigh": eigh_calls, "eigvalsh": 0}



def test_transport_builds_h_at_the_pole_once(monkeypatch):
    # the branch selection reads H(0, 0) from the factory's drive-frame
    # pieces, so the transport builds it once; the step count is unchanged
    calls = {"dense": 0, "eigh": 0}
    for owner, name in ((HamiltonianFactory, "dense"), (np.linalg, "eigh")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    loop = lasso_path(math.pi, 6.0)
    adiabatic_eigenstate_transport(
        make_space(2, 1), default_params(), loop, (0, 0), "upper", dt=loop.total_time / 2000
    )
    assert calls == {"dense": 1, "eigh": 2001}

@functools.cache
def _phase_at(doublet, branch, steps):
    # a row of the dressed-doublets workload's seed-0 run: default
    # couplings, the 6 ms lasso of solid angle pi (reversed for the lower
    # branch, as dressed_phase_pair runs it), the doublet in its complete box
    k = doublet[0] + 1 + doublet[1]
    loop = lasso_path(math.pi, 6.0)
    path = loop if branch == "upper" else reversed_path(loop)
    dt = None if steps is None else loop.total_time / steps
    return adiabatic_eigenstate_transport(
        make_space(k, k), default_params(), path, doublet, branch, dt=dt
    ).geometric_phase


@functools.cache
def _longest_acceptance_phase(steps):
    # acceptance criterion 4's (1,0) doublet at gamma = pi, upper branch: it
    # runs 640 flip periods, the most flips a step has to resolve
    g = TWO_PI * 50.0
    params = ModelParams(g=g, omega_drive=math.sqrt(2.0) * g,
                         delta=3.0 * math.sqrt(2.0) * g)
    loop = lasso_path(math.pi, 640 * params.flip_period)
    dt = None if steps is None else loop.total_time / steps
    return adiabatic_eigenstate_transport(
        make_space(2, 2), params, loop, (1, 0), "upper", dt=dt
    ).geometric_phase


def test_transport_error_falls_at_sixth_order():
    # lasso legs carry no step error, so the order shows on tilted legs:
    # halving the Magnus step on the tilted loop at 24 ms divides the error
    # against a 16x finer run by about 2**6 = 64; a fourth-order step would
    # give 16
    loop = rescaled_path(_tilted_loop(), 24.0)

    def phase(steps):
        return adiabatic_eigenstate_transport(
            make_space(2, 2), default_params(), loop, (1, 0), "upper",
            dt=loop.total_time / steps,
        ).geometric_phase

    reference = phase(16000)
    errors = [abs(phase(steps) - reference) for steps in (500, 1000)]
    assert errors[0] / errors[1] >= 40.0


def test_lasso_legs_take_one_exact_step_each():
    # in the drive frame the generator of an azimuth or meridian leg does not
    # move, so one midpoint step a leg (dt = half the loop: 1 + 1 + 1 steps) is
    # that leg's exact propagator; 16 000 steps only add rounding
    for doublet in ((0, 0), (1, 0)):
        for branch in ("upper", "lower"):
            assert abs(_phase_at(doublet, branch, 2) - _phase_at(doublet, branch, 16000)) < 1e-11
    assert abs(_longest_acceptance_phase(2) - _longest_acceptance_phase(16000)) < 1e-11


def test_default_transport_step_is_within_1e_9_of_a_fine_run():
    # each row of the workload, at the default of one exact step a lasso
    # leg, against a run at 16 000 steps
    for doublet in ((0, 0), (1, 0)):
        for branch in ("upper", "lower"):
            default = _phase_at(doublet, branch, None)
            assert abs(default - _phase_at(doublet, branch, 16000)) < 1e-9


def test_default_transport_step_holds_on_the_longest_acceptance_loop():
    # 8 000 fourth-order lab-frame steps left this row 3.47e-6 rad from the
    # converged phase, and 4 500 sixth-order ones 2.3e-6; its lasso legs are
    # exact in the drive frame, one step each at the default
    assert abs(_longest_acceptance_phase(None) - _longest_acceptance_phase(16000)) < 1e-9


def _seed0_rows():
    # the dressed-doublets workload's seed-0 rows: (space, params, path,
    # doublet, branch), the lower branch on the reversed loop
    loop = lasso_path(math.pi, 6.0)
    return [
        (make_space(k, k), default_params(), loop if branch == "upper" else reversed_path(loop),
         doublet, branch)
        for doublet, k in (((0, 0), 1), ((1, 0), 2))
        for branch in ("upper", "lower")
    ]


def test_default_transport_takes_one_eigh_a_lasso_leg(monkeypatch):
    # each seed-0 row selects its branch with one eigh and takes one exact
    # step on each of its three lasso legs (3 008 eigh when every leg took
    # ceil(leg / dt) steps at duration / 750); the fidelity's closed form
    # adds none, and H(0, 0) is built once a row
    calls = {"dense": 0, "eigh": 0}
    for owner, name in ((HamiltonianFactory, "dense"), (np.linalg, "eigh")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for row in _seed0_rows():
        adiabatic_eigenstate_transport(*row)
    assert calls == {"dense": 4, "eigh": 16}


@pytest.mark.parametrize("tracked_weight", [1.0, 0.3])
@pytest.mark.parametrize("leg", [0, 1])
def test_exact_leg_fidelity_matches_the_state_stepped_to_the_grid(leg, tracked_weight):
    # leg 0 of the lasso is a meridian, leg 1 an azimuth.  The closed form,
    # from the eigenpairs and end state of the leg's one exact step, against
    # the state stepped to the same grid times by _step_leg, one step a grid
    # interval.  A start with 0.3 of its weight on the tracked eigenvector
    # takes the route that reads every overlap.
    loop = lasso_path(math.pi, 6.0)
    space = make_space(2, 2)
    sector = excitation_sector_indices(space, 2)
    factory = HamiltonianFactory(space, default_params(), [sector])
    _, v0, col = _select_doublet_branch(factory.dense(0.0, 0.0)[0], sector, space, 1, 0, "upper")
    other = v0[:, (col + 1) % v0.shape[1]]
    start = (math.sqrt(tracked_weight) * v0[:, col]
             + math.sqrt(1.0 - tracked_weight) * other)[None, :, None]
    (th_a, ph_a), (th_b, ph_b) = loop.knots[leg:leg + 2]
    duration = loop.durations[leg]
    rates = ((th_b - th_a) / duration, (ph_b - ph_a) / duration)

    def dense(theta, phi):
        return factory.drive_frame(theta, *rates)

    pairs = []
    end = _step_leg(start, dense, loop, leg, 1, 1, lambda *sample: pairs.append(sample[3:]))
    intervals = math.ceil(FIDELITY_GRID * duration / loop.total_time)
    (w, v), = pairs
    closed = _exact_leg_fidelity(v0, col, w[0], v[0], end[0, :, 0], duration, intervals)
    states = [start]
    _step_leg(start, dense, loop, leg, intervals, 1, lambda psi, *_: states.append(psi))
    overlaps = np.abs(v0.conj().T @ np.array([psi[0, :, 0] for psi in states]).T)
    assert closed.shape == (intervals + 1,)
    assert np.max(np.abs(closed - np.max(overlaps, axis=0))) <= 1e-9
    assert np.all(overlaps[col] ** 2 > 0.5) == (tracked_weight == 1.0)


def _fine_min_fidelity(space, params, loop, doublet, branch, points):
    # min over `points` times a loop of max_j |V0^H chi(t)|: chi carried
    # leg by leg from the branch's eigenvector u of H(0, 0), each leg by
    # the eigendecomposition of its constant drive-frame generator
    sector = excitation_sector_indices(space, doublet[0] + 1 + doublet[1])
    factory = HamiltonianFactory(space, params, [sector])
    _, v0, col = _select_doublet_branch(factory.dense(0.0, 0.0)[0], sector, space, *doublet, branch)
    chi, worst = v0[:, col], 1.0
    for (th_a, ph_a), (th_b, ph_b), duration in zip(loop.knots, loop.knots[1:], loop.durations):
        rates = ((th_b - th_a) / duration, (ph_b - ph_a) / duration)
        lam, vec = np.linalg.eigh(factory.drive_frame(th_a, *rates)[0])
        times = np.linspace(0.0, duration, math.ceil(points * duration / loop.total_time) + 1)
        path = vec @ (np.exp(-1j * np.multiply.outer(lam, times)) * (vec.conj().T @ chi)[:, None])
        worst = min(worst, float(np.min(np.max(np.abs(v0.conj().T @ path), axis=0))))
        chi = path[:, -1]
    return worst


def test_min_adiabatic_fidelity_is_within_1e_7_of_a_65536_point_evaluation():
    # the default's closed form on FIDELITY_GRID points a loop, on every
    # seed-0 row (the stride sampling it replaced was 4.3e-7 off on the
    # (1,0) lower row)
    for row in _seed0_rows():
        reading = adiabatic_eigenstate_transport(*row)
        fine = _fine_min_fidelity(*row, points=65536)
        assert abs(reading.metadata["min_adiabatic_fidelity"] - fine) <= 1e-7


def _pole_closing_loop():
    # the tilted loop of test_cli, which closes at the north pole after
    # winding 3 rad of azimuth, at 6 ms
    knots = [(0.0, 0.0), (1.0, 0.5), (1.0, 2.5), (0.0, 3.0)]
    return piecewise_path(knots, [1.5, 3.0, 1.5])


@pytest.mark.parametrize("make_loop", [_tilted_loop, _pole_closing_loop])
def test_drive_frame_transport_matches_lab_frame_steps(make_loop):
    # the independent route: Magnus steps of H itself, 64 000 a loop,
    # started from W0 u, the branch's eigenvector u of H(0, 0) carried to the
    # first knot by W0 = exp(-i phi0 N-) exp(-i theta0 K), and overlapped
    # with W0 u at the end
    from scipy.linalg import expm

    loop = make_loop()
    space, params, doublet, branch = make_space(2, 2), default_params(), (1, 0), "upper"
    sector = excitation_sector_indices(space, 2)
    factory = HamiltonianFactory(space, params, [sector])
    w, v, col = _select_doublet_branch(factory.dense(0.0, 0.0)[0], sector, space, *doublet, branch)
    theta0, phi0 = loop.knots[0]
    w0 = np.exp(-1j * phi0 * factory.minus_photons[0])[:, None] * expm(
        -1j * theta0 * factory.mode_rotation()[0]
    )
    start = w0 @ v[:, col]
    psi = start[None, :, None]
    for leg, dur in enumerate(loop.durations):
        steps = _resolve_steps(dur, loop.total_time / 64000)
        psi = _step_leg(psi, factory.dense, loop, leg, steps, steps, lambda *_: None, order=6)
    overlap = np.vdot(start, psi[0, :, 0])
    lab = wrap_phase(np.angle(overlap) + w[col] * loop.total_time)
    reading = adiabatic_eigenstate_transport(space, params, loop, doublet, branch)
    assert abs(wrap_phase(reading.geometric_phase - lab)) < 1e-8
    assert reading.cyclicity == pytest.approx(abs(overlap), abs=1e-8)


def test_a_loop_from_the_south_pole_transports_one_doublet_on_both_branches():
    # at the south pole the drive couples |2,0,0> to |1,0,1>, not to |1,1,0>;
    # branches picked there by their weight on |2,0,0> and |1,1,0> were not
    # one doublet, and the "lower" one followed the uncoupled level (-0.785
    # rad against +2.729).  Picked at H(0, 0), the resonant pair are mirror
    # images near +-gamma/4
    theta0 = 2.4188584057763776
    knots = [(math.pi, 0.0), (theta0, 0.0), (theta0, TWO_PI), (math.pi, TWO_PI)]
    loop = piecewise_path(knots, [1.5, 3.0, 1.5])
    pair = dressed_phase_pair(make_space(1, 1), default_params(), loop, (0, 0))
    upper, lower = pair["upper"].geometric_phase, pair["lower"].geometric_phase
    assert abs(upper + lower) < 1e-9
    assert upper == pytest.approx(solid_angle(loop) / 4, rel=0.02)
    assert pair["lower"].metadata["eigenvalue"] == pytest.approx(0.0, abs=1e-6)


def test_an_exactly_degenerate_twin_of_the_tracked_level_trips_the_gap_rule():
    # with no drive the vacuum doublet's upper level is shared exactly with
    # |1,0,1>: the gap is zero, and the twin must not be skipped as if it
    # were the tracked level itself
    g = TWO_PI * 50.0
    params = ModelParams(g=g, omega_drive=0.0, delta=3.0 * g)
    with pytest.raises(DegeneracyError, match="sweep rate"):
        adiabatic_eigenstate_transport(
            make_space(1, 1), params, lasso_path(math.pi, 6.0), (0, 0), "upper"
        )


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
