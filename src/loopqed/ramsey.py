"""Ramsey interferometry over polarization loops: preparation, interaction,
closing pulse, detection, fringe read-out, and the closed-form predictions.

Protocol.  The atom starts in the symmetric superposition (|1> + |2>)/sqrt 2,
mode "+" carries the chosen cavity field, mode "-" starts in vacuum.  The
system then either evolves under a slow polarization loop (full-dynamics
mode) or receives the idealized per-state loop phases (ideal-phase mode).
A second pulse with adjustable relative phase xi closes the interferometer
and the probability of finding the atom in level 2 is recorded.

Reference arm.  Fringe phases by themselves depend on pulse conventions and
on dynamical phases; every reported shift is therefore the difference
between the loop arm's fringe phase and a caliber arm's.  In
full-dynamics mode the caliber arm evolves the same state for the same time
with the polarization frozen at the loop's starting point; in ideal-phase
mode it is the prepared state unchanged.

Propagation.  The state is prepared in the configured space, whose
nmax_plus sets the field's cutoff and tail check.  Full-dynamics arms then
run in the sector-complete box (K, K) (hilbert.complete_box), K the
highest excitation sector the prepared states occupy (1 for vacuum,
nmax_plus + 1 for a field filling the "+" cutoff): sector k holds at most
k photons per mode, so every occupied sector is whole there and the "-"
cutoff cuts nothing.  Both arms are one dynamics._evolve_loops call, on
one factory of that box, in the drive frame, where every lasso leg and the
frozen caliber arm is one exact step, so dt applies only to tilted legs.
Ideal-phase arms keep the configured space.

Closing pulse convention (fixed; all shifts are caliber-relative so physics
does not depend on it):

    |1> -> (|1> + e^{+i xi} |2>)/sqrt 2
    |2> -> (-e^{-i xi} |1> + |2>)/sqrt 2

which gives the caliber fringe P2(xi) = (1 + cos xi)/2, and a state whose
|2> component carries an extra phase chi the fringe (1 + cos(xi - chi))/2,
so a positive shift equals the phase advance chi of the |2> component.

Detection and read-out in closed form.  With a1 and a2 the level-1 and
level-2 halves of the amplitudes, the pulse maps a2 to
(e^{i xi} a1 + a2)/sqrt 2, so

    P2(xi) = w + Re(e^{i xi} c),   w = sum |a|^2 / 2,   c = sum a1 conj(a2)

Detection therefore takes two sums per state and never forms the pulsed
amplitudes at every xi, whose (B, xi, dim/2) array would outweigh the
state stack itself.  Each fringe is read, with no fit, from its atomic
coherence c: offset w, amplitude |c| and phase -arg c.  As |c| <= w
(Cauchy-Schwarz), the fringe is an exact sinusoid within [0, 2w], so the
clip of the samples to [0, 1] and fit_residual, their largest deviation
from the read-out, are rounding only.

Batches.  prepare gives one state, and run_experiment carries it alone,
with no batch axis, through propagation, detection and the read-out.
close_and_detect, the phase map and dynamics also take a leading batch
axis of states, and dynamics propagates a batch with the
eigendecompositions of one state, so effective_shift_vs_alpha runs its
amplitudes as one pass (_run_arrays), whose arrays hold both arms'
fringes, read-outs, shifts and cyclicities.  run_experiment builds its
result from them; the sweep stays in arrays through the read-out, the
closed forms and the dark-point column, and makes only the rows it
returns, which the CLI writes as they are.  The adiabaticity ladder runs
every rung's loop arm, and no caliber arm, in one dynamics._evolve_loops
call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .hilbert import (
    DEFAULT_TAIL_TOL,
    SpaceConfig,
    StateVector,
    _Checked,
    coherent_mode_coefficients,
    complete_box,
    embed_state,
    make_space,
    state_index,
)
from .model import TWO_PI, ModelParams, default_params
from .poincare_path import PathSpec, lasso_path, rescaled_path, solid_angle
from .dynamics import _evolve_loops
from .phases import CYCLICITY_FLOOR, ideal_phase_map, wrap_phase

__all__ = [
    "CavityInput",
    "RamseyConfig",
    "FringeFit",
    "RamseyResult",
    "prepare",
    "close_and_detect",
    "fit_fringe",
    "run_experiment",
    "p2_vacuum_formula",
    "p2_coherent_formula",
    "formula_fringe_shift",
    "effective_shift_vs_alpha",
    "adiabaticity_study",
    "default_xi_grid",
]

ADIABATICITY_FLAG_RATIO = 0.1


class CavityInput(_Checked, namedtuple("CavityInput", "kind photon_number alpha tail_tol")):
    """Initial field of mode "+" (mode "-" always starts in vacuum).

    kind "fock" places photon_number photons; kind "coherent" places a
    truncated coherent state of amplitude alpha, renormalized, failing
    loudly when the Poisson tail beyond the cutoff reaches tail_tol.
    """

    __slots__ = ()

    def __new__(cls, kind: str = "fock", photon_number: int = 0, alpha: complex = 0.0,
                tail_tol: float = DEFAULT_TAIL_TOL):
        if kind not in ("fock", "coherent"):
            raise ValueError(f"cavity kind must be 'fock' or 'coherent', got {kind!r}")
        if kind == "fock":
            if not isinstance(photon_number, (int, np.integer)):
                raise ValueError(f"photon_number must be an integer, got {photon_number!r}")
            if photon_number < 0:
                raise ValueError(f"photon_number must be >= 0, got {photon_number}")
            # a plain int, so that prepare never indexes with a bool
            photon_number = int(photon_number)
        if not tail_tol > 0:
            raise ValueError(f"tail_tol must be positive, got {tail_tol}")
        return super().__new__(cls, kind, photon_number, alpha, tail_tol)


def default_xi_grid(points: int = 33) -> np.ndarray:
    """Evenly spaced Ramsey phases covering [0, 2 pi)."""
    if points < 3:
        raise ValueError(f"need at least 3 xi points, got {points}")
    return np.linspace(0.0, TWO_PI, points, endpoint=False)


class RamseyConfig(_Checked, namedtuple("RamseyConfig", "space params loop cavity "
                                                  "round_to_flips xi_grid mode dt")):
    """Complete description of one interferometry run.

    xi_grid (default_xi_grid() by default) is stored as a float array.
    """

    __slots__ = ()

    def __new__(cls, space: SpaceConfig, params: ModelParams, loop: PathSpec,
                cavity: CavityInput = CavityInput(), round_to_flips: bool = True,
                xi_grid: np.ndarray | None = None, mode: str = "full", dt: float | None = None):
        xi = np.asarray(default_xi_grid() if xi_grid is None else xi_grid, dtype=float)
        if xi.size == 0:
            raise ValueError("xi_grid must be non-empty")
        if mode not in ("full", "ideal"):
            raise ValueError(f"mode must be 'full' or 'ideal', got {mode!r}")
        return super().__new__(cls, space, params, loop, cavity, round_to_flips, xi, mode, dt)


class FringeFit(namedtuple("FringeFit", "offset amplitude phase")):
    """One arm's fringe offset + amplitude * cos(xi - phase), read from c."""

    __slots__ = ()


class RamseyResult(namedtuple("RamseyResult", "xi_grid p2_loop p2_caliber loop_fit "
                                               "caliber_fit fitted_shift fit_residual metadata")):
    """Fringe curves, read-outs, and the caliber-referenced shift of one run.

    fit_residual is the fringes' largest deviation from their read-outs.
    metadata defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, xi_grid, p2_loop, p2_caliber, loop_fit, caliber_fit, fitted_shift,
                fit_residual, metadata: dict | None = None):
        return super().__new__(cls, xi_grid, p2_loop, p2_caliber, loop_fit, caliber_fit,
                               fitted_shift, fit_residual, {} if metadata is None else metadata)


def prepare(space: SpaceConfig, cavity: CavityInput) -> StateVector:
    """(|1> + |2>)/sqrt 2 on the atom, the chosen field in mode "+", vacuum in "-".

    A coherent field whose truncation tail does not fit raises
    TruncationError naming its amplitude.
    """
    if cavity.kind == "coherent":
        coeffs = coherent_mode_coefficients(cavity.alpha, space.nmax_plus, cavity.tail_tol)
    elif cavity.photon_number > space.nmax_plus:
        raise ValueError(
            f"photon_number {cavity.photon_number} exceeds nmax_plus {space.nmax_plus}"
        )
    else:
        coeffs = np.zeros(space.nmax_plus + 1, dtype=complex)
        coeffs[cavity.photon_number] = 1.0
    return _on_both_levels(space, coeffs)


def _on_both_levels(space: SpaceConfig, coeffs: np.ndarray) -> StateVector:
    """prepare's state for mode "+" coefficients c[..., 0..nmax_plus], one per row."""
    amps = np.zeros(coeffs.shape[:-1] + (space.dim,), dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for level in (1, 2):
        index = [state_index(space, level, k, 0) for k in range(space.nmax_plus + 1)]
        amps[..., index] = coeffs * inv_sqrt2
    return StateVector(amps, space)


def close_and_detect(state: StateVector, xi):
    """Apply the closing pulse with relative phase xi; return P(level 2).

    The pulse acts on the atom only (identity on both modes) with the
    convention in the module docstring, and the detection sums
    |amplitude|^2 over every photon sector of level 2.  That sum has the
    closed form P2(xi) = w + Re(e^{i xi} c) of the module docstring, so each
    state costs two sums whatever the number of phases.  xi may be a
    scalar or an array of phases: one state gives a float or an array of
    xi's shape, a batch of B states a (B,) + xi.shape array.
    """
    p2 = _detect(state, xi)[2]
    return float(p2) if p2.ndim == 0 else p2


def _detect(state: StateVector, xi):
    """(w, c, p2) of close_and_detect: each state's sums w = sum |a|^2 / 2
    and c = sum a1 conj(a2), and its fringe over xi, clipped to [0, 1]."""
    amps = state.amplitudes
    half = state.space.dim // 2
    weight = 0.5 * np.sum(np.abs(amps) ** 2, axis=-1)
    cross = np.sum(amps[..., :half] * amps[..., half:].conj(), axis=-1)
    xi = np.asarray(xi, dtype=float)
    per_xi = (...,) + (None,) * xi.ndim
    p2 = (
        weight[per_xi]
        + np.cos(xi) * cross.real[per_xi]
        - np.sin(xi) * cross.imag[per_xi]
    )
    return weight, cross, np.clip(p2, 0.0, 1.0)


_LeastSquaresFit = namedtuple("LeastSquaresFit", "offset amplitude phase residual")


def fit_fringe(xi: np.ndarray, p2: np.ndarray):
    """Fit offset + amplitude cos(xi - phase) by linear least squares: a
    reference for the read-out from the coherence, which no run calls.

    The fit is linear over the basis {1, cos xi, sin xi}, solved through its
    3x3 normal equations; amplitude is reported nonnegative and residual is
    the largest absolute deviation of the fit from the data.  p2 may be a
    (B, len(xi)) array of fringes, fitted together with one inverse of the
    Gram matrix; a list of B fits is then returned.
    """
    xi = np.asarray(xi, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p2.ndim > 2:
        raise ValueError("fringe fit takes one fringe or a (B, len(xi)) array of them")
    if xi.ndim != 1 or xi.size < 3 or p2.ndim == 0 or p2.shape[-1] != xi.size:
        raise ValueError("fringe fit needs matching xi/p2 arrays of length >= 3")
    design = np.stack([np.ones_like(xi), np.cos(xi), np.sin(xi)])
    gram_inv = np.linalg.inv(np.einsum("in,jn->ij", design, design))
    coef = np.einsum("ij,...j->...i", gram_inv, np.einsum("...n,jn->...j", p2, design))
    residual = np.max(np.abs(np.einsum("...i,in->...n", coef, design) - p2), axis=-1)
    offset, c_cos, c_sin = np.moveaxis(coef, -1, 0)
    amplitude = np.hypot(c_cos, c_sin)
    phase = np.where(amplitude > 0, np.arctan2(c_sin, c_cos), 0.0)
    columns = (value.ravel().tolist() for value in (offset, amplitude, phase, residual))
    fits = [_LeastSquaresFit(*values) for values in zip(*columns)]
    return fits if p2.ndim == 2 else fits[0]


def _interaction(loop: PathSpec, params: ModelParams, round_to_flips: bool):
    """(loop, tau, flips, ratio): the loop rescaled to tau, its duration
    rounded to flips (>= 1) flip periods if round_to_flips (else flips is
    None), and its adiabaticity ratio max_rate / lam (None at lam = 0)."""
    tau, flips = loop.total_time, None
    if round_to_flips:
        period = params.flip_period
        flips = max(1, int(round(tau / period)))
        tau = flips * period
    loop = rescaled_path(loop, tau)
    return loop, tau, flips, loop.max_rate / params.lam if params.lam > 0 else None


def run_experiment(config: RamseyConfig) -> RamseyResult:
    """Run the interferometer over the configured xi grid.

    Returns the fringes of the loop and caliber arms, each read from its
    atomic coherence; fitted_shift is the wrapped difference of their
    fringe phases, the convention-free observable.  The interaction time
    is the loop's duration, rounded to whole flips when
    config.round_to_flips is set.  In full mode the
    prepared state is re-embedded into the sector-complete box (K, K) of
    its highest occupied sector K (see the module docstring), whatever
    config.space.nmax_minus says, and both arms are one
    dynamics._evolve_loops call there: lasso legs and the caliber arm's one
    zero-rate leg are exact steps, and config.dt sets the step only on
    tilted legs.  Ideal mode keeps config.space.
    Result metadata records the solid angle, the interaction time actually
    used, the adiabaticity ratio, arm cyclicities, any quality flags,
    propagation_box (the (nmax_plus, nmax_minus) cutoffs the arms ran in),
    and under loop_propagation (None in ideal mode) each arm's exact and
    stepped leg counts, steps taken and worst norm drift.

    The result is built from the arrays of _run_arrays on the one prepared
    state.
    """
    cavity = config.cavity
    run = _run_arrays(config, prepare(config.space, cavity))
    loop_fit, caliber_fit = map(FringeFit, run.offset.tolist(), run.amplitude.tolist(),
                                run.phase.tolist())
    cyc_loop, cyc_caliber = run.cyclicity.tolist()
    full = config.mode == "full"
    flags: list[str] = []
    if full and run.ratio is not None and run.ratio > ADIABATICITY_FLAG_RATIO:
        flags.append("non-adiabatic")
    if full and cyc_loop < CYCLICITY_FLOOR:
        flags.append("non-cyclic")
    metadata = {
        "gamma": run.gamma,
        "tau_used_ms": run.tau,
        "rabi_flips": run.flips,
        "mode": config.mode,
        "cavity_kind": cavity.kind,
        "alpha": cavity.alpha if cavity.kind == "coherent" else None,
        "photon_number": cavity.photon_number if cavity.kind == "fock" else None,
        "adiabaticity_ratio": run.ratio,
        "cyclicity_loop": cyc_loop,
        "cyclicity_caliber": cyc_caliber,
        "flags": flags,
        "loop_propagation": {name: arm.stats for name, arm in run.runs.items()} or None,
        "propagation_box": run.box,
    }
    return RamseyResult(
        xi_grid=config.xi_grid,
        p2_loop=run.p2[0],
        p2_caliber=run.p2[1],
        loop_fit=loop_fit,
        caliber_fit=caliber_fit,
        fitted_shift=float(run.shift),
        fit_residual=float(run.fit_residual),
        metadata=metadata,
    )


def _run_arrays(config: RamseyConfig, start: StateVector) -> SimpleNamespace:
    """The work of run_experiment on a prepared state start, as arrays.

    start is run_experiment's one state, or effective_shift_vs_alpha's
    (B, dim) batch, which adds the [B] axes shown below.  Arm 0 is the loop
    arm and arm 1 the caliber arm: p2 is the (2, [B,] X) detected fringes
    over the xi grid, offset, amplitude and phase their (2, [B]) read-outs
    w, |c| and -arg c, and cyclicity the (2, [B]) return fidelities.  shift
    is the ([B]) caliber-relative fringe shift and fit_residual the ([B])
    largest deviation, over both arms, of the fringes from their read-outs.
    gamma, tau, flips, ratio (from _interaction), box (the cutoffs the arms
    ran in) and runs (each arm's LoopRun, empty in ideal mode) are shared
    by the batch.
    """
    params = config.params
    gamma = solid_angle(config.loop)
    loop, tau, flips, ratio = _interaction(config.loop, params, config.round_to_flips)

    runs = {}
    if config.mode == "full":
        start = embed_state(start, complete_box(start))
        # the caliber arm is one zero-rate leg at the loop's first knot
        paths = {"loop": loop, "caliber": PathSpec((loop.knots[0], loop.knots[0]), (tau,))}
        runs = dict(zip(paths, _evolve_loops(start, list(paths.values()), params, config.dt)))
        arms = [run.final_state for run in runs.values()]
    else:
        arms = [ideal_phase_map(start, gamma), start]
    # Phase-insensitive return fidelity: the loop is supposed to imprint
    # phases on the prepared components, so the cyclicity diagnostic
    # compares only the magnitude profiles (1 exactly when no population
    # moved).
    cyclicity = np.array([
        np.sum(np.abs(start.amplitudes) * np.abs(state.amplitudes), axis=-1)
        for state in arms
    ])
    offset, cross, p2 = (np.array(arrays) for arrays in
                         zip(*(_detect(state, config.xi_grid) for state in arms)))
    amplitude, phase = np.abs(cross), -np.angle(cross)
    read_out = _fringe_value(*(a[..., None] for a in (offset, amplitude, phase)), config.xi_grid)
    return SimpleNamespace(
        p2=p2,
        offset=offset,
        amplitude=amplitude,
        phase=phase,
        cyclicity=cyclicity,
        shift=wrap_phase(phase[0] - phase[1]),
        fit_residual=np.max(np.abs(p2 - read_out), axis=(0, -1)),
        gamma=gamma,
        tau=tau,
        flips=flips,
        ratio=ratio,
        box=(start.space.nmax_plus, start.space.nmax_minus),
        runs=runs,
    )


def p2_vacuum_formula(gamma: float) -> float:
    """Dark-point detection probability for vacuum input: (1 - cos(gamma/4))/2."""
    return 0.5 * (1.0 - math.cos(0.25 * gamma))


def _vacuum_weight(alpha):
    """Probability e^{-|alpha|^2} of the vacuum in a coherent state."""
    return np.exp(-np.abs(alpha) ** 2)


def _scalar_or_array(value: np.ndarray):
    return float(value) if value.ndim == 0 else value


def p2_coherent_formula(alpha, gamma):
    """Dark-point detection probability for coherent input.

    P2 = [(1 - e^{-|alpha|^2})(1 - cos(gamma/2))
          + e^{-|alpha|^2} (1 - cos(gamma/4))] / 2.
    Reduces to the vacuum formula at alpha = 0 and approaches
    (1 - cos(gamma/2))/2 for large |alpha|.  alpha and gamma broadcast:
    arrays give an array, scalars a float.
    """
    p_vac = _vacuum_weight(alpha)
    return _scalar_or_array(0.5 * (
        (1.0 - p_vac) * (1.0 - np.cos(np.multiply(0.5, gamma)))
        + p_vac * (1.0 - np.cos(np.multiply(0.25, gamma)))
    ))


def formula_fringe_shift(alpha, gamma):
    """Fringe phase implied by the coherent closed form.

    The idealized fringe is the Poisson mixture
    P2(xi) = [p0 (1 + cos(xi - gamma/4)) + (1 - p0)(1 + cos(xi - gamma/2))]/2
    with p0 = e^{-|alpha|^2}; fitting a single cosine to it gives the phase
    of the complex sum p0 e^{i gamma/4} + (1 - p0) e^{i gamma/2}.  alpha and
    gamma broadcast: arrays give an array, scalars a float.
    """
    p_vac = _vacuum_weight(alpha)
    quarter, half = np.multiply(0.25, gamma), np.multiply(0.5, gamma)
    re = p_vac * np.cos(quarter) + (1.0 - p_vac) * np.cos(half)
    im = p_vac * np.sin(quarter) + (1.0 - p_vac) * np.sin(half)
    return _scalar_or_array(np.arctan2(im, re))


class AlphaSweepRow(NamedTuple):
    """One coherent-amplitude point of the crossover sweep; its fields are
    the columns of alpha_sweep.csv, in order."""

    alpha: float
    shift_sim: float
    shift_formula: float
    p2_dark_sim: float
    p2_dark_formula: float
    fit_residual: float


def effective_shift_vs_alpha(
    alpha_grid,
    gamma: float,
    mode: str = "ideal",
    base: RamseyConfig | None = None,
) -> list[AlphaSweepRow]:
    """Fringe shift versus coherent amplitude on a common lasso loop.

    The amplitudes' coefficient rows run as one batch (the arrays of
    _run_arrays), with no object per amplitude, so the sweep prepares, maps
    or propagates, detects and reads out once, and every column is computed
    whole: the simulated shift, the dark-point simulation column, which
    evaluates each loop read-out at its caliber fringe's dark point (xi =
    caliber phase + pi), where the closed forms apply, both closed forms
    and fit_residual.  Only the returned rows are made one per amplitude.

    base supplies the space, model parameters, loop timing, and grids; when
    omitted, a default wide space (nmax 16 on the driven mode) and a slow
    default-parameter lasso are used.  The base's loop is kept if its solid
    angle is gamma (to 1e-12), as every CLI sweep's is, and else becomes a
    lasso of solid angle gamma and its duration; mode replaces its mode.
    """
    if len(alpha_grid) == 0:
        return []
    if base is None:
        params = default_params()
        base = RamseyConfig(
            space=make_space(16, 0),
            params=params,
            loop=lasso_path(gamma, 120.0 * params.flip_period),
            mode=mode,
        )
    loop = base.loop
    if abs(solid_angle(loop) - gamma) > 1e-12:
        loop = lasso_path(gamma, base.loop.total_time)
    coeffs = coherent_mode_coefficients(alpha_grid, base.space.nmax_plus, base.cavity.tail_tol)
    batch = _run_arrays(base._replace(loop=loop, mode=mode), _on_both_levels(base.space, coeffs))
    alphas = np.asarray(alpha_grid)
    columns = (
        np.abs(alphas),
        batch.shift,
        formula_fringe_shift(alphas, gamma),
        _fringe_value(
            batch.offset[0], batch.amplitude[0], batch.phase[0], batch.phase[1] + math.pi
        ),
        p2_coherent_formula(alphas, gamma),
        batch.fit_residual,
    )
    return [AlphaSweepRow(*row) for row in zip(*(c.tolist() for c in columns))]


def close_and_detect_curve_value(result: RamseyResult, xi: float) -> float:
    """Evaluate the loop fringe read-out of a result at one xi."""
    fit = result.loop_fit
    return float(_fringe_value(fit.offset, fit.amplitude, fit.phase, xi))


def _fringe_value(offset, amplitude, phase, xi):
    """Fringe offset + amplitude cos(xi - phase); the arguments broadcast."""
    return offset + amplitude * np.cos(xi - phase)


class AdiabaticityRow(NamedTuple):
    """One loop-duration rung of the error ladder; its fields are the
    columns of adiabaticity.csv, in order."""

    loop_time_ms: float
    max_abs_p2_error: float
    adiabaticity_ratio: float | None


def adiabaticity_study(
    config: RamseyConfig, time_ladder_ms: list[float]
) -> list[AdiabaticityRow]:
    """Full-dynamics versus ideal-phase fringe error across loop durations.

    Each rung rescales the loop to its duration and times it with
    _interaction, as run_experiment does; its row holds that time, the
    largest |P2_full - P2_ideal| of the loop arm over the xi grid and the
    adiabaticity ratio.  The state is prepared, and the ideal fringe (which
    depends only on the knots' solid angle) computed, once.  No caliber arm
    runs: one dynamics._evolve_loops call, which counts every rung's steps
    before it steps any, runs every rung's loop arm from one embedded state.
    """
    params, xi = config.params, config.xi_grid
    start = prepare(config.space, config.cavity)
    ideal = close_and_detect(ideal_phase_map(start, solid_angle(config.loop)), xi)
    rungs = [_interaction(rescaled_path(config.loop, float(T)), params, config.round_to_flips)
             for T in time_ladder_ms]
    start = embed_state(start, complete_box(start))
    runs = _evolve_loops(start, [rung[0] for rung in rungs], params, config.dt)
    errors = [np.max(np.abs(close_and_detect(run.final_state, xi) - ideal)) for run in runs]
    return [AdiabaticityRow(tau, float(error), ratio)
            for (_, tau, _, ratio), error in zip(rungs, errors)]
