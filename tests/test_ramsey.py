"""Unit tests for the interferometry pipeline and its closed-form references."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import loopqed.ramsey
from loopqed.dynamics import evolve_loop
from loopqed.hilbert import (
    StateVector,
    TruncationError,
    coherent_tail_mass,
    complete_box,
    embed_state,
    fock_state,
    make_space,
    state_index,
)
from loopqed.model import HamiltonianFactory, default_params
from loopqed.phases import wrap_phase
from loopqed.poincare_path import (
    PathSpec,
    lasso_path,
    piecewise_path,
    rescaled_path,
    solid_angle,
)
from loopqed.ramsey import (
    AdiabaticityRow,
    AlphaSweepRow,
    CavityInput,
    RamseyConfig,
    adiabaticity_study,
    close_and_detect,
    close_and_detect_curve_value,
    default_xi_grid,
    effective_shift_vs_alpha,
    fit_fringe,
    formula_fringe_shift,
    p2_coherent_formula,
    p2_vacuum_formula,
    prepare,
    run_experiment,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# preparation


def test_prepare_vacuum_superposition():
    space = make_space(2, 1)
    prep = prepare(space, CavityInput(kind="fock", photon_number=0))
    expect = np.zeros(space.dim, dtype=complex)
    expect[state_index(space, 1, 0, 0)] = 1.0 / math.sqrt(2.0)
    expect[state_index(space, 2, 0, 0)] = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(prep.amplitudes, expect, atol=1e-15)


def test_prepare_fock_input():
    space = make_space(3, 1)
    prep = prepare(space, CavityInput(kind="fock", photon_number=2))
    assert abs(prep.amplitudes[state_index(space, 1, 2, 0)]) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-15
    )
    assert abs(prep.amplitudes[state_index(space, 2, 2, 0)]) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-15
    )
    with pytest.raises(ValueError):
        prepare(space, CavityInput(kind="fock", photon_number=4))


def test_prepare_coherent_zero_equals_vacuum():
    space = make_space(4, 2)
    a = prepare(space, CavityInput(kind="coherent", alpha=0.0))
    b = prepare(space, CavityInput(kind="fock", photon_number=0))
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-15)


def test_prepare_coherent_moments_and_empty_partner_mode():
    space = make_space(12, 1)
    prep = prepare(space, CavityInput(kind="coherent", alpha=2.0))
    assert np.linalg.norm(prep.amplitudes) == pytest.approx(1.0, abs=1e-12)
    mean_n = 0.0
    for level in (1, 2):
        for n in range(space.nmax_plus + 1):
            mean_n += n * abs(prep.amplitudes[state_index(space, level, n, 0)]) ** 2
            # the undriven mode stays in vacuum
            assert prep.amplitudes[state_index(space, level, n, 1)] == 0.0
    assert mean_n == pytest.approx(4.0, abs=0.01)


def test_prepare_coherent_truncation_guard():
    space = make_space(3, 1)
    with pytest.raises(TruncationError):
        prepare(space, CavityInput(kind="coherent", alpha=2.0))


# ---------------------------------------------------------------------------
# closing pulse and detection


def test_detect_caliber_fringe_oracle():
    space = make_space(1, 1)
    prep = prepare(space, CavityInput())
    assert close_and_detect(prep, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert close_and_detect(prep, math.pi) == pytest.approx(0.0, abs=1e-12)
    for xi in default_xi_grid(17):
        expect = 0.5 * (1.0 + math.cos(xi))
        assert close_and_detect(prep, float(xi)) == pytest.approx(expect, abs=1e-12)


def test_detect_upper_phase_moves_fringe_forward():
    # an extra phase chi on the level-2 component moves the fringe maximum
    # to xi = chi, i.e. P2 = (1 + cos(xi - chi))/2
    space = make_space(1, 1)
    prep = prepare(space, CavityInput())
    chi = math.pi / 4
    amps = prep.amplitudes.copy()
    half = space.dim // 2
    amps[half:] *= np.exp(1j * chi)
    shifted = StateVector(amps, space)
    for xi in default_xi_grid(17):
        expect = 0.5 * (1.0 + math.cos(xi - chi))
        assert close_and_detect(shifted, float(xi)) == pytest.approx(expect, abs=1e-12)


def test_detect_single_level_gives_flat_half():
    space = make_space(1, 1)
    lone = fock_state(space, 1, 0, 0)
    for xi in (0.0, 1.0, math.pi, 5.0):
        assert close_and_detect(lone, xi) == pytest.approx(0.5, abs=1e-12)


def test_detect_global_phase_invariance():
    space = make_space(2, 1)
    prep = prepare(space, CavityInput(kind="fock", photon_number=1))
    rotated = StateVector(prep.amplitudes * np.exp(0.77j), space)
    for xi in default_xi_grid(9):
        assert close_and_detect(rotated, float(xi)) == pytest.approx(
            close_and_detect(prep, float(xi)), abs=1e-14
        )


@pytest.mark.parametrize("nmax_plus", [4, 8, 16])
def test_detect_on_a_grid_equals_scalar_calls_exactly(nmax_plus):
    space = make_space(nmax_plus, 2)
    rng = np.random.default_rng(nmax_plus)
    xi = default_xi_grid(33)
    states = []
    for _ in range(20):
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        state = StateVector(amps / np.linalg.norm(amps), space)
        curve = close_and_detect(state, xi)
        assert curve.shape == xi.shape
        assert np.array_equal(curve, [close_and_detect(state, float(x)) for x in xi])
        # the closed form against the pulse applied at each xi
        a1, a2 = np.split(state.amplitudes, 2)
        pulsed = (np.exp(1j * xi)[:, None] * a1 + a2) / math.sqrt(2.0)
        np.testing.assert_allclose(
            curve, np.sum(np.abs(pulsed) ** 2, axis=1), rtol=0, atol=1e-15
        )
        states.append(state)
    # a (B, dim) batch gives each state's curve, row by row, bit for bit
    batch = StateVector(np.array([st.amplitudes for st in states]), space)
    curves = close_and_detect(batch, xi)
    assert curves.shape == (20, xi.size)
    points = close_and_detect(batch, 0.4)
    assert points.shape == (20,)
    for k, state in enumerate(states):
        assert np.array_equal(curves[k], close_and_detect(state, xi))
        assert points[k] == close_and_detect(state, 0.4)


def test_detect_output_clipped_to_unit_interval():
    space = make_space(1, 1)
    prep = prepare(space, CavityInput())
    for xi in np.linspace(0.0, TWO_PI, 101):
        p2 = close_and_detect(prep, float(xi))
        assert 0.0 <= p2 <= 1.0


# ---------------------------------------------------------------------------
# fringe fitting


def test_fit_fringe_recovers_exact_cosine():
    xi = default_xi_grid(33)
    p2 = 0.45 + 0.3 * np.cos(xi - 1.1)
    fit = fit_fringe(xi, p2)
    assert fit.offset == pytest.approx(0.45, abs=1e-12)
    assert fit.amplitude == pytest.approx(0.3, abs=1e-12)
    assert fit.phase == pytest.approx(1.1, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_fringe_normalizes_amplitude_sign():
    xi = default_xi_grid(33)
    p2 = 0.5 - 0.2 * np.cos(xi - 0.3)
    fit = fit_fringe(xi, p2)
    assert fit.amplitude == pytest.approx(0.2, abs=1e-12)
    assert fit.phase == pytest.approx(0.3 - math.pi, abs=1e-12)


def test_fit_fringe_tolerates_small_perturbations():
    rng = np.random.default_rng(3)
    xi = default_xi_grid(33)
    clean = 0.5 + 0.4 * np.cos(xi - 2.0)
    noisy = clean + 1e-3 * rng.standard_normal(xi.size)
    fit = fit_fringe(xi, noisy)
    assert fit.phase == pytest.approx(2.0, abs=2e-3)
    assert fit.amplitude == pytest.approx(0.4, abs=2e-3)
    assert fit.residual < 5e-3


def test_fit_fringe_validation():
    with pytest.raises(ValueError):
        fit_fringe(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        fit_fringe(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))


def test_curve_value_reads_fit_extremes():
    space = make_space(1, 1)
    params = default_params()
    cfg = RamseyConfig(
        space=space, params=params, loop=lasso_path(math.pi, 2.4), mode="ideal"
    )
    result = run_experiment(cfg)
    top = close_and_detect_curve_value(result, result.loop_fit.phase)
    bottom = close_and_detect_curve_value(result, result.loop_fit.phase + math.pi)
    assert top == pytest.approx(result.loop_fit.offset + result.loop_fit.amplitude)
    assert bottom == pytest.approx(result.loop_fit.offset - result.loop_fit.amplitude)


# ---------------------------------------------------------------------------
# closed-form references


def test_vacuum_formula_frozen_values():
    assert p2_vacuum_formula(math.pi) == pytest.approx(0.1464466094067262, abs=1e-15)
    assert p2_vacuum_formula(0.0) == 0.0
    assert p2_vacuum_formula(TWO_PI) == pytest.approx(0.5, abs=1e-15)


def test_coherent_formula_limits():
    for gamma in (0.5, math.pi, 4.0):
        assert p2_coherent_formula(0.0, gamma) == pytest.approx(
            p2_vacuum_formula(gamma), abs=1e-15
        )
        # large amplitude: the vacuum term is exponentially gone
        assert p2_coherent_formula(6.0, gamma) == pytest.approx(
            0.5 * (1.0 - math.cos(0.5 * gamma)), abs=1e-12
        )
    assert p2_coherent_formula(1.0, math.pi) == pytest.approx(
        0.36993497624427774, abs=1e-12
    )


def test_formula_shift_crossover():
    for gamma in (0.5, math.pi / 2, math.pi, 4.5):
        assert formula_fringe_shift(0.0, gamma) == pytest.approx(gamma / 4, abs=1e-12)
    assert formula_fringe_shift(2.0, math.pi) == pytest.approx(
        1.5577760988377432, abs=1e-12
    )
    # monotone rise from gamma/4 toward gamma/2
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    shifts = [formula_fringe_shift(a, math.pi) for a in grid]
    assert all(b > a for a, b in zip(shifts, shifts[1:]))
    assert formula_fringe_shift(4.0, math.pi) == pytest.approx(math.pi / 2, abs=1e-6)


def test_closed_forms_broadcast_bit_for_bit():
    # one copy of each formula serves the sweep's whole columns and single
    # points; the grid holds the vacuum, a tiny, a large and a complex
    # amplitude
    alphas = np.array([0.0, 1e-170, 1e-8, 0.37, 1.0, 2.5, 30.0, 0.6 - 0.8j, 1e-3j])
    gammas = np.array([0.0, 0.5, math.pi, 4.0, 3.0 * math.pi])
    for formula in (formula_fringe_shift, p2_coherent_formula):
        grid = formula(alphas[:, None], gammas)
        assert grid.shape == (alphas.size, gammas.size)
        for i, alpha in enumerate(alphas):
            point = complex(alpha) if alpha.imag else float(alpha.real)
            for j, gamma in enumerate(gammas):
                alone = formula(point, float(gamma))
                assert type(alone) is float
                assert np.float64(alone).tobytes() == grid[i, j].tobytes()


# ---------------------------------------------------------------------------
# experiment runs, ideal mode


def test_ideal_vacuum_run_quarter_shift():
    space = make_space(1, 1)
    cfg = RamseyConfig(
        space=space,
        params=default_params(),
        loop=lasso_path(math.pi, 2.4),
        mode="ideal",
    )
    result = run_experiment(cfg)
    assert result.fitted_shift == pytest.approx(math.pi / 4, abs=1e-10)
    assert result.caliber_fit.phase == pytest.approx(0.0, abs=1e-10)
    assert result.loop_fit.offset == pytest.approx(0.5, abs=1e-10)
    assert result.loop_fit.amplitude == pytest.approx(0.5, abs=1e-10)
    assert result.fit_residual < 1e-10
    md = result.metadata
    assert md["gamma"] == pytest.approx(math.pi, abs=1e-12)
    assert md["mode"] == "ideal"
    assert md["cavity_kind"] == "fock"
    assert md["photon_number"] == 0
    assert md["alpha"] is None
    assert md["rabi_flips"] == 40
    assert md["tau_used_ms"] == pytest.approx(2.4, abs=1e-12)
    assert md["flags"] == []
    # pointwise agreement with the vacuum fringe at every xi sample
    for xi, p2 in zip(result.xi_grid, result.p2_loop):
        assert p2 == pytest.approx(0.5 * (1 + math.cos(xi - math.pi / 4)), abs=1e-12)
    for xi, p2 in zip(result.xi_grid, result.p2_caliber):
        assert p2 == pytest.approx(0.5 * (1 + math.cos(xi)), abs=1e-12)


def test_ideal_zero_angle_loop_shifts_nothing():
    space = make_space(1, 1)
    cfg = RamseyConfig(
        space=space,
        params=default_params(),
        loop=lasso_path(0.0, 1.2),
        mode="ideal",
    )
    result = run_experiment(cfg)
    assert result.fitted_shift == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(result.p2_loop, result.p2_caliber, atol=1e-12)


def test_interaction_time_rounding():
    space = make_space(1, 1)
    params = default_params()
    loop = lasso_path(math.pi, 0.1)
    cfg = RamseyConfig(space=space, params=params, loop=loop, mode="ideal")
    result = run_experiment(cfg)
    assert result.metadata["tau_used_ms"] == pytest.approx(0.12, abs=1e-12)
    assert result.metadata["rabi_flips"] == 2

    tiny = RamseyConfig(
        space=space, params=params, loop=lasso_path(math.pi, 0.02), mode="ideal"
    )
    result = run_experiment(tiny)
    # never rounds below one full flip
    assert result.metadata["rabi_flips"] == 1
    assert result.metadata["tau_used_ms"] == pytest.approx(
        params.flip_period, abs=1e-12
    )

    free = RamseyConfig(
        space=space,
        params=params,
        loop=loop,
        round_to_flips=False,
        mode="ideal",
    )
    result = run_experiment(free)
    assert result.metadata["tau_used_ms"] == pytest.approx(0.1, abs=1e-12)
    assert result.metadata["rabi_flips"] is None


@pytest.mark.parametrize("round_to_flips", [True, False])
def test_a_replaced_loop_sets_the_interaction_time(round_to_flips):
    # the interaction time is the loop's duration: replacing the 6 ms loop
    # of the default config by a 60 ms one runs 60 ms (1 000 flips)
    base = replace(_default_vacuum_config(), round_to_flips=round_to_flips)
    md = run_experiment(replace(base, loop=lasso_path(math.pi, 60.0))).metadata
    assert md["tau_used_ms"] == pytest.approx(60.0, abs=1e-12)
    assert md["rabi_flips"] == (1000 if round_to_flips else None)


def test_ideal_coherent_run_matches_mixture_closed_form():
    alpha = 1.0
    gamma = math.pi
    space = make_space(12, 1)
    cfg = RamseyConfig(
        space=space,
        params=default_params(),
        loop=lasso_path(gamma, 2.4),
        cavity=CavityInput(kind="coherent", alpha=alpha, tail_tol=1e-6),
        mode="ideal",
    )
    result = run_experiment(cfg)
    tail = coherent_tail_mass(alpha, space.nmax_plus)
    bound = 1e-10 + tail
    p_vac = math.exp(-abs(alpha) ** 2)
    z = p_vac * np.exp(0.25j * gamma) + (1 - p_vac) * np.exp(0.5j * gamma)
    for xi, p2 in zip(result.xi_grid, result.p2_loop):
        expect = 0.5 * (1.0 + (np.exp(-1j * xi) * z).real)
        assert abs(p2 - expect) <= bound
    assert abs(
        result.fitted_shift - formula_fringe_shift(alpha, gamma)
    ) <= bound
    # the Poisson mixture of equal-frequency cosines is a single exact
    # cosine, so the fit leaves no residual beyond the truncation
    assert result.fit_residual <= bound


def test_visibility_never_exceeds_half():
    space = make_space(8, 1)
    params = default_params()
    for alpha in (0.0, 0.8, 1.5):
        cfg = RamseyConfig(
            space=space,
            params=params,
            loop=lasso_path(2.0, 1.2),
            cavity=CavityInput(kind="coherent", alpha=alpha, tail_tol=1e-2),
            mode="ideal",
        )
        result = run_experiment(cfg)
        assert result.loop_fit.amplitude <= 0.5 + 1e-9
        assert result.caliber_fit.amplitude <= 0.5 + 1e-9


def test_config_validation():
    space = make_space(1, 1)
    params = default_params()
    loop = lasso_path(math.pi, 1.2)
    with pytest.raises(ValueError):
        RamseyConfig(space=space, params=params, loop=loop, mode="fancy")
    with pytest.raises(ValueError):
        RamseyConfig(space=space, params=params, loop=loop, xi_grid=np.array([]))
    with pytest.raises(ValueError):
        default_xi_grid(2)


def test_default_xi_grid_shape():
    grid = default_xi_grid()
    assert grid.size == 33
    assert grid[0] == 0.0
    assert grid[-1] < TWO_PI
    assert np.allclose(np.diff(grid), TWO_PI / 33)


# ---------------------------------------------------------------------------
# experiment runs, full dynamics


def test_full_vacuum_run_approaches_quarter_shift():
    space = make_space(1, 1)
    params = default_params()
    cfg = RamseyConfig(
        space=space,
        params=params,
        loop=lasso_path(math.pi, 40 * params.flip_period),
        mode="full",
    )
    result = run_experiment(cfg)
    assert result.fitted_shift == pytest.approx(math.pi / 4, abs=0.01)
    # the caliber arm returns exactly at an integer number of flips
    assert abs(result.caliber_fit.phase) < 1e-3
    md = result.metadata
    assert md["flags"] == []
    assert md["cyclicity_loop"] > 0.999
    assert md["cyclicity_caliber"] > 0.9999
    assert md["adiabaticity_ratio"] == pytest.approx(
        (TWO_PI / (0.5 * 2.4)) / params.lam, rel=1e-9
    )


def test_full_fast_run_raises_flags():
    space = make_space(1, 1)
    params = default_params()
    cfg = RamseyConfig(
        space=space,
        params=params,
        loop=lasso_path(math.pi, params.flip_period),
        mode="full",
        dt=params.flip_period / 2000,
    )
    result = run_experiment(cfg)
    assert "non-adiabatic" in result.metadata["flags"]
    assert result.metadata["adiabaticity_ratio"] > 1.0


def _default_vacuum_config():
    # the CLI defaults: a 6 ms pi lasso in the (4, 2) box
    return RamseyConfig(
        space=make_space(4, 2),
        params=default_params(),
        loop=lasso_path(math.pi, 6.0),
        mode="full",
    )


def _default_coherent_config():
    # the coherent fringe of the benchmark: alpha = 1 prepared at (8, 2)
    return replace(
        _default_vacuum_config(),
        space=make_space(8, 2),
        cavity=CavityInput(kind="coherent", alpha=1.0),
    )


def test_loop_propagation_metadata_reports_each_arm():
    md = run_experiment(_default_vacuum_config()).metadata["loop_propagation"]
    assert set(md) == {"loop", "caliber"}
    # the vacuum occupies complete sectors 0-1: all three lasso legs exact
    assert (md["loop"]["exact_legs"], md["loop"]["stepped_legs"]) == (3, 0)
    assert md["loop"]["steps"] == 0
    # the caliber arm is one zero-rate leg
    assert (md["caliber"]["exact_legs"], md["caliber"]["steps"]) == (1, 0)
    for arm in md.values():
        assert arm["max_norm_drift"] < 1e-12

    # a coherent state prepared at (8, 2) reaches sector 9; full runs
    # propagate it in the complete box (9, 9), where every lasso leg is exact
    coherent = _default_coherent_config()
    md = run_experiment(coherent).metadata
    assert md["propagation_box"] == (9, 9)
    loop = md["loop_propagation"]["loop"]
    assert (loop["exact_legs"], loop["stepped_legs"], loop["steps"]) == (3, 0, 0)

    # evolve_loop refuses the state as prepared: (8, 2) cuts sectors 3-9
    prep = prepare(coherent.space, coherent.cavity)
    with pytest.raises(TruncationError, match=re.escape(
        "excitation sector 3 is cut by the cutoffs (8, 2); the box (9, 9)"
    )):
        evolve_loop(prep, rescaled_path(coherent.loop, md["tau_used_ms"]), coherent.params)


def test_ideal_run_reports_no_loop_propagation():
    cfg = replace(_default_vacuum_config(), mode="ideal")
    md = run_experiment(cfg).metadata
    assert md["loop_propagation"] is None
    # the diagonal phase map gains nothing from a box; it keeps the config's
    assert md["propagation_box"] == (4, 2)


def test_complete_box_is_converged_in_the_box():
    # enlarging the box beyond (K, K) adds only states no occupied sector
    # reaches, so the loop arm and the shift must not move
    cfg = _default_coherent_config()
    result = run_experiment(cfg)
    loop = rescaled_path(cfg.loop, result.metadata["tau_used_ms"])
    frozen = PathSpec((loop.knots[0], loop.knots[0]), (loop.total_time,))
    prep = prepare(cfg.space, cfg.cavity)
    for box in ((10, 10), (11, 12)):
        start = embed_state(prep, make_space(*box))
        arms = [
            close_and_detect(evolve_loop(start, path, cfg.params).final_state, cfg.xi_grid)
            for path in (loop, frozen)
        ]
        shift = wrap_phase(
            fit_fringe(cfg.xi_grid, arms[0]).phase - fit_fringe(cfg.xi_grid, arms[1]).phase
        )
        assert np.max(np.abs(arms[0] - result.p2_loop)) <= 1e-9
        assert abs(shift - result.fitted_shift) <= 1e-9


@pytest.mark.parametrize("gamma", [2.0, 4.0])
def test_full_coherent_fringe_is_cyclic_off_pi(gamma):
    # at (8, 2) the cut "-" mode pushed these runs below the cyclicity floor
    cfg = replace(_default_coherent_config(), loop=lasso_path(gamma, 6.0))
    md = run_experiment(cfg).metadata
    assert md["cyclicity_loop"] >= 0.99
    assert "non-cyclic" not in md["flags"]


def _count_eigh(monkeypatch, cfg):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return run_experiment(cfg), len(calls)


def test_default_vacuum_fringe_makes_five_eigendecompositions(monkeypatch):
    # three exact lasso legs, the meridian frame K, and the frozen caliber
    # arm; stepping the loop arm made 20 001
    result, calls = _count_eigh(monkeypatch, _default_vacuum_config())
    assert calls <= 5
    assert result.fitted_shift == pytest.approx(math.pi / 4, abs=0.01)


def test_default_coherent_fringe_makes_five_eigendecompositions(monkeypatch):
    # in the complete box (9, 9) the coherent fringe takes the same route
    # as the vacuum one; at (8, 2) its stepped meridians made 2 502
    result, calls = _count_eigh(monkeypatch, _default_coherent_config())
    assert calls <= 5
    assert result.fitted_shift == pytest.approx(1.23322, abs=1e-4)
    assert result.metadata["flags"] == []


def test_both_arms_share_one_factory_and_one_frame(monkeypatch):
    # a loop that starts and ends off the pole: both arms need K's
    # eigendecomposition, made once, and one factory builds H(0, 0) once;
    # an azimuth leg and the caliber's zero-rate leg take one step each
    cfg = RamseyConfig(
        space=make_space(3, 0),
        params=default_params(),
        loop=piecewise_path([(1.0, 0.0), (1.0, TWO_PI)], [0.6]),
        cavity=CavityInput(photon_number=1),
        mode="full",
    )
    calls = {"__init__": 0, "dense": 0, "eigh": 0}
    for owner, name in ((HamiltonianFactory, "__init__"), (HamiltonianFactory, "dense"),
                        (np.linalg, "eigh")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    result = run_experiment(cfg)
    assert calls == {"__init__": 1, "dense": 1, "eigh": 3}
    monkeypatch.undo()
    # each arm is, bit for bit, a separate evolve_loop run
    loop = rescaled_path(cfg.loop, result.metadata["tau_used_ms"])
    frozen = PathSpec((loop.knots[0], loop.knots[0]), (loop.total_time,))
    prep = prepare(cfg.space, cfg.cavity)
    start = embed_state(prep, complete_box(prep))
    for path, p2, arm in ((loop, result.p2_loop, "loop"), (frozen, result.p2_caliber, "caliber")):
        alone = evolve_loop(start, path, cfg.params)
        assert np.array_equal(close_and_detect(alone.final_state, cfg.xi_grid), p2)
        assert alone.stats == result.metadata["loop_propagation"][arm]


# ---------------------------------------------------------------------------
# sweeps


def test_alpha_sweep_vacuum_row_and_monotonicity():
    rows = effective_shift_vs_alpha([0.0, 0.5, 1.0, 2.0], math.pi, mode="ideal")
    assert len(rows) == 4
    assert all(isinstance(r, AlphaSweepRow) for r in rows)
    assert rows[0].shift_sim == pytest.approx(math.pi / 4, abs=1e-9)
    shifts = [r.shift_sim for r in rows]
    assert all(b > a for a, b in zip(shifts, shifts[1:]))
    for row in rows:
        tail = coherent_tail_mass(row.alpha, 16)
        assert abs(row.shift_sim - row.shift_formula) <= 1e-10 + tail
        assert abs(row.p2_dark_sim - row.p2_dark_formula) <= 1e-10 + tail
        assert row.fit_residual <= 1e-10 + tail


def test_ideal_sweep_rows_match_each_run_experiment(monkeypatch):
    # the sweep reads the batch's arrays and makes no fit object per
    # fringe; each row still equals that amplitude's own experiment
    base = RamseyConfig(
        space=make_space(8, 0),
        params=default_params(),
        loop=lasso_path(math.pi, 0.6),
        mode="ideal",
    )
    alphas = [0.0, 0.3, 0.9, 1.4, 0.5 + 0.5j]

    def no_fit_objects(*args, **kwargs):
        raise AssertionError("the sweep made a FringeFit")

    monkeypatch.setattr(loopqed.ramsey, "FringeFit", no_fit_objects)
    rows = effective_shift_vs_alpha(alphas, math.pi, mode="ideal", base=base)
    monkeypatch.undo()
    assert len(rows) == len(alphas)
    for alpha, row in zip(alphas, rows):
        assert isinstance(row, AlphaSweepRow)
        alone = run_experiment(replace(base, cavity=CavityInput(kind="coherent", alpha=alpha)))
        assert row.alpha == abs(alpha)
        assert abs(row.shift_sim - alone.fitted_shift) <= 1e-12
        dark = close_and_detect_curve_value(alone, alone.caliber_fit.phase + math.pi)
        assert abs(row.p2_dark_sim - dark) <= 1e-12
        assert abs(row.fit_residual - alone.fit_residual) <= 1e-12
        assert row.shift_formula == formula_fringe_shift(alpha, math.pi)
        assert row.p2_dark_formula == p2_coherent_formula(alpha, math.pi)
    assert effective_shift_vs_alpha([], math.pi, base=base) == []


def test_sweep_keeps_a_base_loop_of_the_requested_solid_angle():
    # a tilted loop is not replaced by a lasso of its solid angle: at
    # alpha = 0 the sweep gives exactly the vacuum fringe's shift on it,
    # and the lasso's differs by about 1e-2
    tilted = piecewise_path([(0.0, 0.0), (1.0, 0.5), (1.0, 2.5), (0.0, 3.0)], [0.15, 0.3, 0.15])
    base = RamseyConfig(space=make_space(2, 0), params=default_params(), loop=tilted, mode="full")
    gamma = solid_angle(tilted)
    (row,) = effective_shift_vs_alpha([0.0], gamma, mode="full", base=base)
    assert row.shift_sim == run_experiment(base).fitted_shift
    lasso = run_experiment(replace(base, loop=lasso_path(gamma, tilted.total_time)))
    assert abs(row.shift_sim - lasso.fitted_shift) > 5e-3


def test_adiabaticity_ladder_decreases_with_slower_loops():
    space = make_space(1, 1)
    params = default_params()
    base = RamseyConfig(
        space=space,
        params=params,
        loop=lasso_path(math.pi, 0.6),
        mode="full",
        dt=3e-4,
    )
    rows = adiabaticity_study(base, [0.6, 1.2, 2.4])
    assert [r.loop_time_ms for r in rows] == pytest.approx([0.6, 1.2, 2.4])
    assert all(isinstance(r, AdiabaticityRow) for r in rows)
    errs = [r.max_abs_p2_error for r in rows]
    assert errs[0] > errs[1] > errs[2] > 0
    ratios = [r.adiabaticity_ratio for r in rows]
    assert ratios[0] == pytest.approx(2 * ratios[1], rel=1e-9)
    # error falls roughly like 1/T^2 over a factor-4 slowdown
    slope = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert 0.8 <= slope <= 4.2


def test_adiabaticity_ladder_prepares_and_maps_once(monkeypatch):
    # one preparation, one ideal fringe and one propagation pass serve every
    # rung: one factory and sector stack, no caliber arm, and one eigh of K
    # when the loop leaves the pole; each row still equals, bit for bit,
    # the rung's own full and ideal experiments
    lasso = RamseyConfig(
        space=make_space(4, 0),
        params=default_params(),
        loop=lasso_path(math.pi, 0.6),
        cavity=CavityInput(kind="coherent", alpha=0.3),
        mode="full",
    )
    off_pole = RamseyConfig(
        space=make_space(3, 0),
        params=default_params(),
        loop=piecewise_path([(1.0, 0.0), (1.0, TWO_PI)], [0.6]),
        cavity=CavityInput(photon_number=1),
        mode="full",
    )
    times = [0.6, 1.2, 2.4]
    # the lasso's 3 exact legs a rung; off the pole 1 leg a rung and K once
    for base, eigh_calls in ((lasso, 3 * len(times)), (off_pole, len(times) + 1)):
        calls = {"prepare": 0, "ideal_phase_map": 0, "_evolve_loops": 0, "__init__": 0,
                 "eigh": 0}
        for owner, name in ((loopqed.ramsey, "prepare"), (loopqed.ramsey, "ideal_phase_map"),
                            (loopqed.ramsey, "_evolve_loops"), (HamiltonianFactory, "__init__"),
                            (np.linalg, "eigh")):

            def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        rows = adiabaticity_study(base, times)
        monkeypatch.undo()
        assert calls == {"prepare": 1, "ideal_phase_map": 1, "_evolve_loops": 1, "__init__": 1,
                         "eigh": eigh_calls}
        assert len(rows) == len(times)
        for T, row in zip(times, rows):
            cfg = replace(base, loop=rescaled_path(base.loop, T))
            full = run_experiment(cfg)
            ideal = run_experiment(replace(cfg, mode="ideal"))
            assert row.max_abs_p2_error == float(np.max(np.abs(full.p2_loop - ideal.p2_loop)))
            assert row.loop_time_ms == full.metadata["tau_used_ms"]
            assert row.adiabaticity_ratio == full.metadata["adiabaticity_ratio"]
    assert adiabaticity_study(lasso, []) == []


# ---------------------------------------------------------------------------
# batches


def test_fit_fringe_batch_matches_each_row():
    xi = default_xi_grid(33)
    rng = np.random.default_rng(7)
    p2 = np.array([
        0.5 + a * np.cos(xi - ph) + 1e-3 * rng.standard_normal(xi.size)
        for a, ph in ((0.4, 2.0), (0.1, -1.2), (0.45, 0.0), (0.3, 3.1))
    ])
    fits = fit_fringe(xi, p2)
    assert len(fits) == 4
    for fit, row in zip(fits, p2):
        alone = fit_fringe(xi, row)
        for name in ("offset", "amplitude", "phase", "residual"):
            assert getattr(fit, name) == pytest.approx(getattr(alone, name), abs=1e-14)


def _full_sweep_base():
    # a fast full-dynamics lasso prepared at nmax_plus = 4
    return RamseyConfig(
        space=make_space(4, 0),
        params=default_params(),
        loop=lasso_path(math.pi, 0.6),
        mode="full",
    )


SWEEP_ALPHAS = [0.0, 0.2, 0.4, 0.6, 0.7]


def test_full_sweep_makes_one_eigh_a_leg_per_box_group(monkeypatch):
    base = _full_sweep_base()
    alone = [
        run_experiment(replace(base, cavity=CavityInput(kind="coherent", alpha=a)))
        for a in SWEEP_ALPHAS
    ]
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rows = effective_shift_vs_alpha(SWEEP_ALPHAS, math.pi, mode="full", base=base)
    # one box, (5, 5), for the whole batch: three lasso legs and the one-leg
    # caliber arm; both arms start and end at the pole, so neither
    # decomposes K for the drive frame
    assert len(calls) == 4
    for row, result in zip(rows, alone):
        assert abs(row.shift_sim - result.fitted_shift) <= 1e-12
        dark = close_and_detect_curve_value(result, result.caliber_fit.phase + math.pi)
        assert abs(row.p2_dark_sim - dark) <= 1e-12

