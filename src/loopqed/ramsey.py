"""Ramsey interferometry over polarization loops: preparation, interaction,
closing pulse, detection, fringe fitting, and the closed-form predictions.

Protocol.  The atom starts in the symmetric superposition (|1> + |2>)/sqrt 2,
mode "+" carries the chosen cavity field, mode "-" starts in vacuum.  The
system then either evolves under a slow polarization loop (full-dynamics
mode) or receives the idealized per-state loop phases (ideal-phase mode).
A second pulse with adjustable relative phase xi closes the interferometer
and the probability of finding the atom in level 2 is recorded.

Reference arm.  Fringe phases by themselves depend on pulse conventions and
on dynamical phases; every reported shift is therefore the difference
between the loop arm's fitted fringe phase and a caliber arm's.  In
full-dynamics mode the caliber arm evolves the same state for the same time
with the polarization frozen at the loop's starting point; in ideal-phase
mode it is the prepared state unchanged.

Propagation.  The state is prepared in the configured space, whose
nmax_plus sets the field's cutoff and tail check.  Full-dynamics arms then
run in the sector-complete box (K, K) (hilbert.complete_box), K the
highest excitation sector the prepared states occupy (1 for vacuum,
nmax_plus + 1 for a field filling the "+" cutoff): sector k holds at most
k photons per mode, so every occupied sector is whole there and the "-"
cutoff cuts nothing.  Both arms follow the loop leg by leg
(dynamics.evolve_loop), where every lasso leg is propagated exactly and
the frozen caliber arm is one exponential, so the integrator step dt
applies only to tilted legs of explicit paths.  Ideal-phase arms keep the
configured space: the phase map is diagonal and gains nothing from a box.

Closing pulse convention (fixed; all shifts are caliber-relative so physics
does not depend on it):

    |1> -> (|1> + e^{+i xi} |2>)/sqrt 2
    |2> -> (-e^{-i xi} |1> + |2>)/sqrt 2

which gives the caliber fringe P2(xi) = (1 + cos xi)/2, and a state whose
|2> component carries an extra phase chi the fringe (1 + cos(xi - chi))/2.
Fringes are fitted to offset + amplitude * cos(xi - phase) by linear least
squares, so a positive fitted shift equals the phase advance chi of the
|2> component.

Detection in closed form.  With a1 and a2 the level-1 and level-2 halves of
the amplitudes, the pulse maps a2 to (e^{i xi} a1 + a2)/sqrt 2, so

    P2(xi) = (sum |a1|^2 + sum |a2|^2)/2 + Re(e^{i xi} sum a1 conj(a2))

Detection therefore takes two sums per state and never forms the pulsed
amplitudes at every xi, whose (B, xi, dim/2) array would outweigh the
state stack itself.

Batches.  prepare, close_and_detect, fit_fringe and the phase map take a
leading batch axis of states, and dynamics.evolve_loop propagates a batch
with the eigendecompositions of one state.  run_batch runs one experiment
for many cavity inputs on that axis, and run_experiment is its batch of
one, so a sweep over amplitudes is one pass through the pipeline, not one
per amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .hilbert import (
    DEFAULT_TAIL_TOL,
    SpaceConfig,
    StateVector,
    coherent_mode_coefficients,
    complete_box,
    embed_state,
    make_space,
    state_index,
)
from .model import ModelParams, default_params
from .poincare_path import PathSpec, lasso_path, rescaled_path, solid_angle
from .dynamics import evolve_loop
from .phases import ideal_phase_map, wrap_phase

__all__ = [
    "CavityInput",
    "RamseyConfig",
    "FringeFit",
    "RamseyResult",
    "prepare",
    "close_and_detect",
    "fit_fringe",
    "run_experiment",
    "run_batch",
    "p2_vacuum_formula",
    "p2_coherent_formula",
    "formula_fringe_shift",
    "effective_shift_vs_alpha",
    "adiabaticity_study",
    "default_xi_grid",
]

TWO_PI = 2.0 * math.pi
ADIABATICITY_FLAG_RATIO = 0.1
FIT_RESIDUAL_FLAG = 0.02
CYCLICITY_FLOOR = 0.99


@dataclass(frozen=True)
class CavityInput:
    """Initial field of mode "+" (mode "-" always starts in vacuum).

    kind "fock" places photon_number photons; kind "coherent" places a
    truncated coherent state of amplitude alpha, renormalized, failing
    loudly when the Poisson tail beyond the cutoff reaches tail_tol.
    """

    kind: str = "fock"
    photon_number: int = 0
    alpha: complex = 0.0
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.kind not in ("fock", "coherent"):
            raise ValueError(f"cavity kind must be 'fock' or 'coherent', got {self.kind!r}")
        if self.kind == "fock" and self.photon_number < 0:
            raise ValueError(f"photon_number must be >= 0, got {self.photon_number}")
        if self.tail_tol <= 0:
            raise ValueError(f"tail_tol must be positive, got {self.tail_tol}")


def default_xi_grid(points: int = 33) -> np.ndarray:
    """Evenly spaced Ramsey phases covering [0, 2 pi)."""
    if points < 3:
        raise ValueError(f"need at least 3 xi points, got {points}")
    return np.linspace(0.0, TWO_PI, points, endpoint=False)


@dataclass(frozen=True)
class RamseyConfig:
    """Complete description of one interferometry run."""

    space: SpaceConfig
    params: ModelParams
    loop: PathSpec
    cavity: CavityInput = field(default_factory=CavityInput)
    round_to_flips: bool = True
    xi_grid: np.ndarray = field(default_factory=default_xi_grid)
    mode: str = "full"
    dt: float | None = None

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        if xi.size == 0:
            raise ValueError("xi_grid must be non-empty")
        object.__setattr__(self, "xi_grid", xi)
        if self.mode not in ("full", "ideal"):
            raise ValueError(f"mode must be 'full' or 'ideal', got {self.mode!r}")


@dataclass(frozen=True)
class FringeFit:
    """Least-squares fit P2(xi) = offset + amplitude * cos(xi - phase)."""

    offset: float
    amplitude: float
    phase: float
    residual: float


@dataclass(frozen=True)
class RamseyResult:
    """Fringe curves, fits, and the caliber-referenced shift of one run."""

    xi_grid: np.ndarray
    p2_loop: np.ndarray
    p2_caliber: np.ndarray
    loop_fit: FringeFit
    caliber_fit: FringeFit
    fitted_shift: float
    fit_residual: float
    metadata: dict = field(default_factory=dict)


def prepare(space: SpaceConfig, cavity) -> StateVector:
    """(|1> + |2>)/sqrt 2 on the atom, the chosen field in mode "+", vacuum in "-".

    cavity is one CavityInput, giving one state, or a sequence of them,
    giving a (B, dim) batch with one row per input.  The coherent inputs'
    truncation tails are checked together, and the first that does not fit
    raises TruncationError naming its amplitude.
    """
    cavities = [cavity] if isinstance(cavity, CavityInput) else list(cavity)
    coeffs = np.zeros((len(cavities), space.nmax_plus + 1), dtype=complex)
    coherent = []
    for row, cav in enumerate(cavities):
        if cav.kind == "coherent":
            coherent.append(row)
        elif cav.photon_number > space.nmax_plus:
            raise ValueError(
                f"photon_number {cav.photon_number} exceeds nmax_plus {space.nmax_plus}"
            )
        else:
            coeffs[row, cav.photon_number] = 1.0
    if coherent:
        coeffs[coherent] = coherent_mode_coefficients(
            [cavities[row].alpha for row in coherent],
            space.nmax_plus,
            [cavities[row].tail_tol for row in coherent],
        )
    amps = np.zeros((len(cavities), space.dim), dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for level in (1, 2):
        index = [state_index(space, level, k, 0) for k in range(space.nmax_plus + 1)]
        amps[:, index] = coeffs * inv_sqrt2
    return StateVector(amps[0] if isinstance(cavity, CavityInput) else amps, space)


def close_and_detect(state: StateVector, xi):
    """Apply the closing pulse with relative phase xi; return P(level 2).

    The pulse acts on the atom only (identity on both modes) with the
    convention in the module docstring, and the detection sums
    |amplitude|^2 over every photon sector of level 2.  That sum has the
    closed form

        P2(xi) = (sum |a1|^2 + sum |a2|^2)/2 + Re(e^{i xi} sum a1 conj(a2))

    over the level-1 and level-2 halves a1, a2 of the amplitudes, so each
    state costs two sums whatever the number of phases.  xi may be a
    scalar or an array of phases: one state gives a float or an array of
    xi's shape, a batch of B states a (B,) + xi.shape array.
    """
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
    p2 = np.clip(p2, 0.0, 1.0)
    return float(p2) if p2.ndim == 0 else p2


def fit_fringe(xi: np.ndarray, p2: np.ndarray):
    """Fit offset + amplitude cos(xi - phase) by linear least squares.

    The cosine is expanded over the basis {1, cos xi, sin xi}, making the
    fit a linear problem, solved through its 3x3 normal equations;
    amplitude is reported nonnegative and residual is the largest absolute
    deviation of the fit from the data.  p2 may be a (B, len(xi)) array of
    fringes, fitted together with one inverse of the 3x3 Gram matrix; a
    list of B fits is then returned.
    """
    xi = np.asarray(xi, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if xi.ndim != 1 or xi.size < 3 or p2.ndim not in (1, 2) or p2.shape[-1] != xi.size:
        raise ValueError("fringe fit needs matching xi/p2 arrays of length >= 3")
    design = np.stack([np.ones_like(xi), np.cos(xi), np.sin(xi)])
    # the 3x3 normal equations: no BLAS or LAPACK call grows with the batch
    gram_inv = np.linalg.inv(np.einsum("in,jn->ij", design, design))
    coef = np.einsum("ij,...j->...i", gram_inv, np.einsum("...n,jn->...j", p2, design))
    residual = np.max(np.abs(np.einsum("...i,in->...n", coef, design) - p2), axis=-1)
    fits = []
    for (offset, c_cos, c_sin), res in zip(
        coef.reshape(-1, 3).tolist(), np.ravel(residual).tolist()
    ):
        amplitude = math.hypot(c_cos, c_sin)
        phase = math.atan2(c_sin, c_cos) if amplitude > 0 else 0.0
        fits.append(
            FringeFit(offset=offset, amplitude=amplitude, phase=phase, residual=res)
        )
    return fits if p2.ndim == 2 else fits[0]


def _round_to_flips(tau: float, params: ModelParams) -> tuple[float, int]:
    period = params.flip_period
    k = max(1, int(round(tau / period)))
    return k * period, k


def run_experiment(config: RamseyConfig) -> RamseyResult:
    """Run the interferometer over the configured xi grid.

    Returns fitted fringes for the loop and caliber arms; fitted_shift is
    the wrapped difference of their fringe phases, the convention-free
    observable.  The interaction time is the loop's duration, rounded to
    whole flips when config.round_to_flips is set.  In full mode the
    prepared state is re-embedded into the sector-complete box (K, K) of
    its highest occupied sector K (see the module docstring), whatever
    config.space.nmax_minus says, and both arms go through
    dynamics.evolve_loop there: lasso legs are propagated exactly, and
    config.dt sets the step only on tilted legs.  The caliber arm is a
    single zero-rate leg, one exponential.  Ideal mode keeps config.space.
    Result metadata records the solid angle, the interaction time actually
    used, the adiabaticity ratio, arm cyclicities, any quality flags,
    propagation_box (the (nmax_plus, nmax_minus) cutoffs the arms ran in),
    and under loop_propagation (None in ideal mode) each arm's exact and
    stepped leg counts, steps taken and worst norm drift.

    This is run_batch with the one input config.cavity.
    """
    return run_batch(config, [config.cavity])[0]


def run_batch(config: RamseyConfig, cavities) -> list[RamseyResult]:
    """Run the interferometer of config once per cavity input, as one batch.

    Returns one result per input, in order, each what run_experiment gives
    for that input alone (to the last bits of rounding): config.cavity is
    replaced, everything else is shared.  Every stage takes the whole batch
    at once.  prepare builds one (B, dim) stack.  In full mode the stack
    is embedded in the one box (K, K) of the highest sector K any input
    occupies, and each arm is one evolve_loop call, one eigendecomposition
    per leg for the whole batch; every result then reports that box as its
    propagation_box.  In ideal mode the batch stays in config.space.
    Detection runs once per arm, and one fit_fringe call, one inverse of
    its 3x3 Gram matrix, fits every fringe of both arms.
    """
    if not cavities:
        return []
    params = config.params
    gamma = solid_angle(config.loop)
    tau, flips = config.loop.total_time, None
    if config.round_to_flips:
        tau, flips = _round_to_flips(tau, params)
    loop = rescaled_path(config.loop, tau)
    ratio = loop.max_rate / params.lam if params.lam > 0 else None
    start = prepare(config.space, cavities)
    batch = len(cavities)

    runs = {}
    if config.mode == "full":
        start = embed_state(start, complete_box(start))
        # the caliber arm is one zero-rate leg at the loop's first knot
        frozen = PathSpec((loop.knots[0], loop.knots[0]), (tau,))
        runs = {
            name: evolve_loop(start, path, params, dt=config.dt)
            for name, path in (("loop", loop), ("caliber", frozen))
        }
        arms = [run.final_state for run in runs.values()]
    else:
        arms = [ideal_phase_map(start, gamma), start]
    box = (start.space.nmax_plus, start.space.nmax_minus)
    # [arm, row]: arm 0 is the loop arm, arm 1 the caliber arm.
    # Phase-insensitive return fidelity: the loop is supposed to imprint
    # phases on the prepared components, so the cyclicity diagnostic
    # compares only the magnitude profiles (1 exactly when no population
    # moved).
    cyclicity = np.array([
        np.sum(np.abs(start.amplitudes) * np.abs(state.amplitudes), axis=-1)
        for state in arms
    ])
    p2 = np.array([close_and_detect(state, config.xi_grid) for state in arms])

    fits = fit_fringe(config.xi_grid, p2.reshape(2 * batch, config.xi_grid.size))
    results = []
    for row, cavity in enumerate(cavities):
        loop_fit, caliber_fit = fits[row], fits[batch + row]
        fit_residual = max(loop_fit.residual, caliber_fit.residual)
        cyc_loop, cyc_caliber = cyclicity[:, row].tolist()
        flags: list[str] = []
        if config.mode == "full" and ratio is not None and ratio > ADIABATICITY_FLAG_RATIO:
            flags.append("non-adiabatic")
        if fit_residual > FIT_RESIDUAL_FLAG:
            flags.append("poor-fit")
        if config.mode == "full" and cyc_loop < CYCLICITY_FLOOR:
            flags.append("non-cyclic")
        # the leg and step counts are shared, the norm drift is per state
        propagation = {
            name: {**run.stats, "max_norm_drift": float(run.stats["max_norm_drift"][row])}
            for name, run in runs.items()
        }
        metadata = {
            "gamma": gamma,
            "tau_used_ms": tau,
            "rabi_flips": flips,
            "mode": config.mode,
            "cavity_kind": cavity.kind,
            "alpha": cavity.alpha if cavity.kind == "coherent" else None,
            "photon_number": cavity.photon_number if cavity.kind == "fock" else None,
            "adiabaticity_ratio": ratio,
            "cyclicity_loop": cyc_loop,
            "cyclicity_caliber": cyc_caliber,
            "flags": flags,
            "loop_propagation": propagation or None,
            "propagation_box": box,
        }
        results.append(
            RamseyResult(
                xi_grid=config.xi_grid,
                p2_loop=p2[0, row],
                p2_caliber=p2[1, row],
                loop_fit=loop_fit,
                caliber_fit=caliber_fit,
                fitted_shift=wrap_phase(loop_fit.phase - caliber_fit.phase),
                fit_residual=fit_residual,
                metadata=metadata,
            )
        )
    return results


def p2_vacuum_formula(gamma: float) -> float:
    """Dark-point detection probability for vacuum input: (1 - cos(gamma/4))/2."""
    return 0.5 * (1.0 - math.cos(0.25 * gamma))


def p2_coherent_formula(alpha: complex, gamma: float) -> float:
    """Dark-point detection probability for coherent input.

    P2 = [(1 - e^{-|alpha|^2})(1 - cos(gamma/2))
          + e^{-|alpha|^2} (1 - cos(gamma/4))] / 2.
    Reduces to the vacuum formula at alpha = 0 and approaches
    (1 - cos(gamma/2))/2 for large |alpha|.
    """
    p_vac = math.exp(-abs(alpha) ** 2)
    return 0.5 * (
        (1.0 - p_vac) * (1.0 - math.cos(0.5 * gamma))
        + p_vac * (1.0 - math.cos(0.25 * gamma))
    )


def formula_fringe_shift(alpha: complex, gamma: float) -> float:
    """Fringe phase implied by the coherent closed form.

    The idealized fringe is the Poisson mixture
    P2(xi) = [p0 (1 + cos(xi - gamma/4)) + (1 - p0)(1 + cos(xi - gamma/2))]/2
    with p0 = e^{-|alpha|^2}; fitting a single cosine to it gives the phase
    of the complex sum p0 e^{i gamma/4} + (1 - p0) e^{i gamma/2}.
    """
    p_vac = math.exp(-abs(alpha) ** 2)
    z = p_vac * complex(math.cos(0.25 * gamma), math.sin(0.25 * gamma)) + (
        1.0 - p_vac
    ) * complex(math.cos(0.5 * gamma), math.sin(0.5 * gamma))
    return math.atan2(z.imag, z.real)


@dataclass(frozen=True)
class AlphaSweepRow:
    """One coherent-amplitude point of the crossover sweep."""

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

    The amplitudes run as one batch (run_batch) of coherent cavity inputs,
    so the sweep prepares, maps or propagates, detects and fits once
    rather than once per amplitude; the formula columns
    come from the closed forms.  The dark-point simulation
    column evaluates the loop curve at the caliber fringe's dark point
    (xi = caliber phase + pi), where the closed forms apply.

    base supplies the space, model parameters, loop timing, and grids; when
    omitted, a default wide space (nmax 16 on the driven mode) and a slow
    default-parameter lasso are used.  The base's loop is replaced by a
    lasso of the requested solid angle, and its mode by the requested one.
    """
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
    cavities = [
        CavityInput(kind="coherent", alpha=alpha, tail_tol=base.cavity.tail_tol)
        for alpha in alpha_grid
    ]
    results = run_batch(replace(base, loop=loop, mode=mode), cavities)
    rows = []
    for alpha, result in zip(alpha_grid, results):
        dark_xi = float(result.caliber_fit.phase + math.pi)
        p2_dark = close_and_detect_curve_value(result, dark_xi)
        rows.append(
            AlphaSweepRow(
                alpha=float(abs(alpha)),
                shift_sim=result.fitted_shift,
                shift_formula=formula_fringe_shift(alpha, gamma),
                p2_dark_sim=p2_dark,
                p2_dark_formula=p2_coherent_formula(alpha, gamma),
                fit_residual=result.fit_residual,
            )
        )
    return rows


def close_and_detect_curve_value(result: RamseyResult, xi: float) -> float:
    """Evaluate the fitted loop fringe of a result at one xi."""
    fit = result.loop_fit
    return fit.offset + fit.amplitude * math.cos(xi - fit.phase)


@dataclass(frozen=True)
class AdiabaticityRow:
    """One loop-duration rung of the error ladder."""

    loop_time_ms: float
    max_abs_p2_error: float
    adiabaticity_ratio: float | None


def adiabaticity_study(
    config: RamseyConfig, time_ladder_ms: list[float]
) -> list[AdiabaticityRow]:
    """Full-dynamics versus ideal-phase fringe error across loop durations.

    For each duration, both the full and the ideal experiment run on the
    same xi grid and the maximum pointwise |P2_full - P2_ideal| over the
    grid is reported together with the loop's adiabaticity ratio.
    """
    rows = []
    for T in time_ladder_ms:
        cfg = replace(config, loop=rescaled_path(config.loop, float(T)))
        full = run_experiment(replace(cfg, mode="full"))
        ideal = run_experiment(replace(cfg, mode="ideal"))
        err = float(np.max(np.abs(full.p2_loop - ideal.p2_loop)))
        rows.append(
            AdiabaticityRow(
                loop_time_ms=full.metadata["tau_used_ms"],
                max_abs_p2_error=err,
                adiabaticity_ratio=full.metadata["adiabaticity_ratio"],
            )
        )
    return rows
