"""Command-line front end: config parsing, scenario subcommands, CSV output.

Subcommands
    fringe          one Ramsey fringe scan (loop arm + caliber arm)
    alpha-sweep     fringe shift versus coherent amplitude
    adiabaticity    full-dynamics vs ideal-phase fringe error versus loop time
    dressed-phases  adiabatic transport phases for chosen photon doublets

Global flags: --config PATH (key = value file), --out DIR (overrides the
config's out_dir).  Each subcommand also takes an override of its own list
key: alpha-sweep --alphas, adiabaticity --times, dressed-phases --doublets.

Exit codes: 0 success, 1 validation failure (bad flags, bad config fields,
couplings whose derived rates overflow, a dt_ms that makes more steps than
an int64 counts, inadequate truncation), 2 numerical failure (integration,
degeneracy).

Config file format: one `key = value` per line, `#` starts a comment,
blank lines ignored.  Unknown keys are rejected.  All computations are
deterministic, so no key seeds anything.  Keys and defaults:

    g_khz = 50.0              atom-cavity coupling g/2pi in kHz
    omega_khz = 50.0          drive Rabi frequency Omega/2pi in kHz
    delta_ratio = 3.0         detuning delta as a multiple of Omega
    nmax_plus = 4             photon cutoff of the driven mode "+" for
                              fringe, alpha-sweep and adiabaticity
    tail_tol = 1e-3           coherent-state truncation tail tolerance
    gamma = 3.141592653589793 lasso solid angle in steradians
    loop_knots =              optional explicit path "theta:phi;..." (rad)
    loop_leg_times =          leg durations "t1;t2;..." in ms (with knots)
    loop_time_ms = 6.0        total loop time in ms
    cavity = fock:0           initial "+" field: fock:N or coherent:ALPHA
    xi_points = 33            Ramsey phase grid size (>= 16)
    mode = full               "full" dynamics or "ideal" phase map
    dt_ms =                   integrator step in ms for the transport and
                              for tilted loop legs; lasso legs are exact
                              and ignore it (empty: duration/20000)
    round_flips = true        round interaction time to whole Rabi flips
    out_dir = runs            output directory
    alphas = 0,0.5            alpha-sweep amplitudes
    time_ladder_ms = 0.6,1.2,2.4   adiabaticity loop times
    doublets = 0,0            dressed-phase doublets "n,m;n,m;..."; each
                              runs in the box (k, k) that holds its
                              excitation sector k = n + 1 + m whole
    branch = both             dressed-phase branch: upper, lower, or both

Frequencies are entered in kHz and converted to angular units internally:
a frequency of f kHz corresponds to 2*pi*f rad/ms.  The conversion is
echoed in every output header.

All outputs are CSV with '#'-prefixed header lines echoing the complete
resolved configuration and the package version, '.' decimal separator,
fixed column order, and 12 significant digits, each row written with one
format call.  fringe.csv also echoes
propagation_box, the cutoffs its arms actually ran in.  Identical configs
produce byte-identical files.

No key sets the cutoff of the dark mode "-".  It starts in vacuum, and an
excitation sector k holds at most k photons per mode, so a run takes its
box from the sectors it occupies: the Ramsey subcommands prepare their
state in (nmax_plus, 0) and full-dynamics arms propagate in the complete
box (K, K) of the highest sector K any prepared state occupies.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from operator import attrgetter

from . import __version__
from .hilbert import TruncationError, make_space
from .model import ModelParams
from .poincare_path import PathSpec, lasso_path, piecewise_path, solid_angle
from .dynamics import IntegrationError, StepCountError
from .phases import DegeneracyError, _branch_reading, analytic_dressed_phase
from .ramsey import (
    CavityInput,
    RamseyConfig,
    adiabaticity_study,
    default_xi_grid,
    effective_shift_vs_alpha,
    run_experiment,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "cmd_fringe",
    "cmd_alpha_sweep",
    "cmd_adiabaticity",
    "cmd_dressed_phases",
    "main",
]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """A configuration or usage problem; maps to exit code 1."""


_DEFAULTS: dict[str, str] = {
    "g_khz": "50.0",
    "omega_khz": "50.0",
    "delta_ratio": "3.0",
    "nmax_plus": "4",
    "tail_tol": "1e-3",
    "gamma": repr(math.pi),
    "loop_knots": "",
    "loop_leg_times": "",
    "loop_time_ms": "6.0",
    "cavity": "fock:0",
    "xi_points": "33",
    "mode": "full",
    "dt_ms": "",
    "round_flips": "true",
    "out_dir": "runs",
    "alphas": "0,0.5",
    "time_ladder_ms": "0.6,1.2,2.4",
    "doublets": "0,0",
    "branch": "both",
}


def _to_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"field {key!r}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"field {key!r}: expected a finite number, got {raw!r}")
    return value


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"field {key!r}: expected an integer, got {raw!r}") from None


def _to_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"field {key!r}: expected true/false, got {raw!r}")


def _float_list(key: str, raw: str, sep: str = ",") -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(sep) if s.strip()]
    if not items:
        raise ConfigError(f"field {key!r}: expected a {sep!r}-separated list, got {raw!r}")
    return tuple(_to_float(key, s) for s in items)


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run configuration; built by _build_config from _DEFAULTS."""

    g_khz: float
    omega_khz: float
    delta_ratio: float
    nmax_plus: int
    tail_tol: float
    gamma: float
    loop_knots: tuple[tuple[float, float], ...]
    loop_leg_times: tuple[float, ...]
    loop_time_ms: float
    cavity_kind: str
    cavity_photons: int
    cavity_alpha: float
    xi_points: int
    mode: str
    dt_ms: float | None
    round_flips: bool
    out_dir: str
    alphas: tuple[float, ...]
    time_ladder_ms: tuple[float, ...]
    doublets: tuple[tuple[int, int], ...]
    branch: str

    def __post_init__(self):
        if self.g_khz <= 0 or self.omega_khz <= 0:
            raise ConfigError(
                "field 'g_khz'/'omega_khz': couplings must be positive "
                "(the protocol needs a finite Rabi-flip period)"
            )
        if self.delta_ratio <= 0:
            raise ConfigError(
                f"field 'delta_ratio': must be positive, got {self.delta_ratio}"
            )
        try:
            params = self.model_params()
            rates = (
                params.lam, params.shift_upper, params.shift_lower_per_photon,
                params.flip_period,
            )
        except (OverflowError, ValueError):  # a square overflows, or lam or delta is 0
            rates = (math.inf,)
        if not all(map(math.isfinite, rates)):
            raise ConfigError(
                "field 'g_khz'/'omega_khz'/'delta_ratio': lambda, the light shifts "
                f"and the flip period must be finite, got g_khz = {self.g_khz}, "
                f"omega_khz = {self.omega_khz}, delta_ratio = {self.delta_ratio}"
            )
        if self.nmax_plus < 1:
            raise ConfigError(f"field 'nmax_plus': must be >= 1, got {self.nmax_plus}")
        if self.tail_tol <= 0:
            raise ConfigError(f"field 'tail_tol': must be positive, got {self.tail_tol}")
        if not (0.0 <= self.gamma < 2.0 * TWO_PI):
            raise ConfigError(
                f"field 'gamma': must lie in [0, 4*pi), got {self.gamma}"
            )
        if self.loop_time_ms <= 0:
            raise ConfigError(
                f"field 'loop_time_ms': must be positive, got {self.loop_time_ms}"
            )
        if self.xi_points < 16:
            raise ConfigError(
                f"field 'xi_points': fringe fit needs >= 16 samples, got {self.xi_points}"
            )
        if self.mode not in ("full", "ideal"):
            raise ConfigError(f"field 'mode': must be 'full' or 'ideal', got {self.mode!r}")
        if self.dt_ms is not None and self.dt_ms <= 0:
            raise ConfigError(f"field 'dt_ms': must be positive, got {self.dt_ms}")
        if self.branch not in ("upper", "lower", "both"):
            raise ConfigError(
                f"field 'branch': must be upper, lower, or both, got {self.branch!r}"
            )
        if self.cavity_kind == "fock" and self.cavity_photons > self.nmax_plus:
            raise ConfigError(
                f"field 'cavity': fock photon number {self.cavity_photons} "
                f"exceeds nmax_plus {self.nmax_plus}"
            )
        for n, m in self.doublets:
            if n < 0 or m < 0:
                raise ConfigError(f"field 'doublets': labels must be >= 0, got ({n},{m})")
        if not self.time_ladder_ms or any(t <= 0 for t in self.time_ladder_ms):
            raise ConfigError("field 'time_ladder_ms': need positive loop times")
        if any(a < 0 for a in self.alphas):
            raise ConfigError("field 'alphas': amplitudes must be >= 0")

    # ---- derived quantities -------------------------------------------------

    @property
    def g(self) -> float:
        """Coupling in rad/ms."""
        return TWO_PI * self.g_khz

    @property
    def omega(self) -> float:
        """Drive Rabi frequency in rad/ms."""
        return TWO_PI * self.omega_khz

    @property
    def delta(self) -> float:
        """Detuning in rad/ms."""
        return self.delta_ratio * self.omega

    def model_params(self) -> ModelParams:
        return ModelParams(g=self.g, omega_drive=self.omega, delta=self.delta)

    def loop(self) -> PathSpec:
        if self.loop_knots:
            return piecewise_path(self.loop_knots, self.loop_leg_times)
        return lasso_path(self.gamma, self.loop_time_ms)

    def cavity(self) -> CavityInput:
        if self.cavity_kind == "fock":
            return CavityInput(
                kind="fock", photon_number=self.cavity_photons, tail_tol=self.tail_tol
            )
        return CavityInput(
            kind="coherent", alpha=self.cavity_alpha, tail_tol=self.tail_tol
        )

    def ramsey_config(self) -> RamseyConfig:
        return RamseyConfig(
            space=make_space(self.nmax_plus, 0),
            params=self.model_params(),
            loop=self.loop(),
            cavity=self.cavity(),
            round_to_flips=self.round_flips,
            xi_grid=default_xi_grid(self.xi_points),
            mode=self.mode,
            dt=self.dt_ms,
        )

    def echo_items(self) -> list[tuple[str, str]]:
        """Resolved config as (key, formatted value) pairs in fixed order."""
        cavity = (
            f"fock:{self.cavity_photons}"
            if self.cavity_kind == "fock"
            else f"coherent:{_fmt(self.cavity_alpha)}"
        )
        items: list[tuple[str, str]] = [
            ("g_khz", _fmt(self.g_khz)),
            ("omega_khz", _fmt(self.omega_khz)),
            ("delta_ratio", _fmt(self.delta_ratio)),
            ("nmax_plus", str(self.nmax_plus)),
            ("tail_tol", _fmt(self.tail_tol)),
            ("gamma", _fmt(self.gamma)),
            (
                "loop_knots",
                ";".join(f"{_fmt(t)}:{_fmt(p)}" for t, p in self.loop_knots) or "none",
            ),
            (
                "loop_leg_times",
                ";".join(_fmt(t) for t in self.loop_leg_times) or "none",
            ),
            ("loop_time_ms", _fmt(self.loop_time_ms)),
            ("cavity", cavity),
            ("xi_points", str(self.xi_points)),
            ("mode", self.mode),
            ("dt_ms", _fmt(self.dt_ms) if self.dt_ms is not None else "auto"),
            ("round_flips", "true" if self.round_flips else "false"),
            ("out_dir", self.out_dir),
            ("alphas", _row_format(len(self.alphas)) % self.alphas),
            ("time_ladder_ms", _row_format(len(self.time_ladder_ms)) % self.time_ladder_ms),
            ("doublets", ";".join(f"{n},{m}" for n, m in self.doublets)),
            ("branch", self.branch),
            ("g_rad_per_ms", _fmt(self.g)),
            ("omega_rad_per_ms", _fmt(self.omega)),
            ("delta_rad_per_ms", _fmt(self.delta)),
            ("lambda_rad_per_ms", _fmt(self.model_params().lam)),
            ("flip_period_ms", _fmt(self.model_params().flip_period)),
        ]
        return items


def _parse_cavity(raw: str) -> tuple[str, int, float]:
    parts = raw.strip().split(":")
    kind = parts[0].strip().lower()
    if kind == "fock":
        n = _to_int("cavity", parts[1]) if len(parts) > 1 and parts[1].strip() else 0
        return "fock", n, 0.0
    if kind == "coherent":
        if len(parts) < 2 or not parts[1].strip():
            raise ConfigError("field 'cavity': coherent input needs an amplitude, e.g. coherent:1.5")
        return "coherent", 0, _to_float("cavity", parts[1])
    raise ConfigError(f"field 'cavity': expected fock:N or coherent:ALPHA, got {raw!r}")


def _parse_knots(raw: str) -> tuple[tuple[float, float], ...]:
    knots = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"field 'loop_knots': expected theta:phi entries, got {chunk!r}"
            )
        knots.append((_to_float("loop_knots", parts[0]), _to_float("loop_knots", parts[1])))
    return tuple(knots)


def _parse_doublets(raw: str) -> tuple[tuple[int, int], ...]:
    doublets = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"field 'doublets': expected n,m entries, got {chunk!r}")
        doublets.append((_to_int("doublets", parts[0]), _to_int("doublets", parts[1])))
    if not doublets:
        raise ConfigError("field 'doublets': need at least one n,m entry")
    return tuple(doublets)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse `key = value` lines into a validated RunConfig."""
    values = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, raw_value = stripped.partition("=")
        key = key.strip()
        if key not in values:
            raise ConfigError(f"{source}:{lineno}: unknown field {key!r}")
        values[key] = raw_value.strip()
    return _build_config(values)


def _build_config(values: dict[str, str]) -> RunConfig:
    cavity_kind, cavity_photons, cavity_alpha = _parse_cavity(values["cavity"])
    knots = _parse_knots(values["loop_knots"]) if values["loop_knots"].strip() else ()
    leg_times = (
        _float_list("loop_leg_times", values["loop_leg_times"], sep=";")
        if values["loop_leg_times"].strip()
        else ()
    )
    if knots and not leg_times:
        raise ConfigError("field 'loop_leg_times': required when loop_knots is set")
    dt_raw = values["dt_ms"].strip()
    return RunConfig(
        g_khz=_to_float("g_khz", values["g_khz"]),
        omega_khz=_to_float("omega_khz", values["omega_khz"]),
        delta_ratio=_to_float("delta_ratio", values["delta_ratio"]),
        nmax_plus=_to_int("nmax_plus", values["nmax_plus"]),
        tail_tol=_to_float("tail_tol", values["tail_tol"]),
        gamma=_to_float("gamma", values["gamma"]),
        loop_knots=knots,
        loop_leg_times=leg_times,
        loop_time_ms=_to_float("loop_time_ms", values["loop_time_ms"]),
        cavity_kind=cavity_kind,
        cavity_photons=cavity_photons,
        cavity_alpha=cavity_alpha,
        xi_points=_to_int("xi_points", values["xi_points"]),
        mode=values["mode"].strip().lower(),
        dt_ms=_to_float("dt_ms", dt_raw) if dt_raw else None,
        round_flips=_to_bool("round_flips", values["round_flips"]),
        out_dir=values["out_dir"].strip() or "runs",
        alphas=_float_list("alphas", values["alphas"]),
        time_ladder_ms=_float_list("time_ladder_ms", values["time_ladder_ms"]),
        doublets=_parse_doublets(values["doublets"]),
        branch=values["branch"].strip().lower(),
    )


def load_config(path: str | None) -> RunConfig:
    """Load a config file, or the built-in defaults when path is None."""
    if path is None:
        return _build_config(dict(_DEFAULTS))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)


# ---- output helpers ---------------------------------------------------------


def _fmt(x) -> str:
    """12-significant-digit scientific notation for floats."""
    return "%.11e" % _nan_if_none(x)


def _nan_if_none(x) -> float:
    return math.nan if x is None else float(x)


def _row_format(count: int) -> str:
    """The format of a CSV row of count floats, each as _fmt writes it."""
    return ",".join(["%.11e"] * count)


def _header_lines(config: RunConfig, subcommand: str, extra: list[tuple[str, str]]) -> list[str]:
    lines = [f"# loopqed {__version__}"]
    lines.append(f"# subcommand = {subcommand}")
    for key, value in config.echo_items():
        lines.append(f"# {key} = {value}")
    lines.append("# units: frequencies entered in kHz; angular frequency = 2*pi*f_khz rad/ms")
    for key, value in extra:
        lines.append(f"# {key} = {value}")
    return lines


def _write_csv(
    out_dir: str,
    filename: str,
    header: list[str],
    columns: list[str],
    row_format: str,
    rows,
) -> str:
    """Write header lines, the column line and one row_format % row line per row."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for text in header:
            fh.write(text + "\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)
    return path


# ---- subcommands ------------------------------------------------------------


def cmd_fringe(config: RunConfig, out_dir: str | None = None) -> list[str]:
    """Run one fringe scan; write fringe.csv."""
    result = run_experiment(config.ramsey_config())
    md = result.metadata
    extra = [
        ("gamma_solid_angle", _fmt(md["gamma"])),
        ("tau_used_ms", _fmt(md["tau_used_ms"])),
        ("rabi_flips", str(md["rabi_flips"]) if md["rabi_flips"] is not None else "none"),
        ("propagation_box", ",".join(map(str, md["propagation_box"]))),
        ("fitted_shift_rad", _fmt(result.fitted_shift)),
        ("fit_residual", _fmt(result.fit_residual)),
        ("loop_fit_offset", _fmt(result.loop_fit.offset)),
        ("loop_fit_amplitude", _fmt(result.loop_fit.amplitude)),
        ("loop_fit_phase_rad", _fmt(result.loop_fit.phase)),
        ("caliber_fit_phase_rad", _fmt(result.caliber_fit.phase)),
        ("adiabaticity_ratio", _fmt(md["adiabaticity_ratio"])),
        ("cyclicity_loop", _fmt(md["cyclicity_loop"])),
        ("cyclicity_caliber", _fmt(md["cyclicity_caliber"])),
        ("flags", ";".join(md["flags"]) or "none"),
    ]
    columns = (result.xi_grid, result.p2_loop, result.p2_caliber)
    path = _write_csv(
        out_dir or config.out_dir,
        "fringe.csv",
        _header_lines(config, "fringe", extra),
        ["xi_rad", "p2_loop", "p2_caliber"],
        _row_format(3),
        zip(*(c.tolist() for c in columns)),
    )
    print(
        f"fringe: shift = {result.fitted_shift:.6f} rad, "
        f"residual = {result.fit_residual:.2e}, "
        f"adiabaticity ratio = {md['adiabaticity_ratio']:.3e}, "
        f"cyclicity = {md['cyclicity_loop']:.6f} -> {path}"
    )
    return [path]


def cmd_alpha_sweep(
    config: RunConfig,
    alphas: tuple[float, ...] | None = None,
    out_dir: str | None = None,
) -> list[str]:
    """Sweep coherent amplitudes; write alpha_sweep.csv."""
    alpha_list = alphas if alphas is not None else config.alphas
    base = config.ramsey_config()
    gamma = solid_angle(base.loop)

    # the batch checks every amplitude's truncation before it runs, so a
    # failure leaves no CSV behind
    try:
        results = effective_shift_vs_alpha(alpha_list, gamma, config.mode, base)
    except TruncationError as exc:
        raise ConfigError(
            f"alpha-sweep: truncation inadequate for alpha = {exc.alpha}: {exc}"
        ) from exc
    fields = (
        "alpha", "shift_sim", "shift_formula", "p2_dark_sim", "p2_dark_formula",
        "fit_residual",
    )
    extra = [("gamma_solid_angle", _fmt(gamma))]
    path = _write_csv(
        out_dir or config.out_dir,
        "alpha_sweep.csv",
        _header_lines(config, "alpha-sweep", extra),
        [
            "alpha",
            "shift_sim_rad",
            "shift_formula_rad",
            "p2_dark_sim",
            "p2_dark_formula",
            "fit_residual",
        ],
        _row_format(len(fields)),
        map(attrgetter(*fields), results),
    )
    print("\n".join(
        f"alpha-sweep: alpha = {r.alpha:g}, shift = {r.shift_sim:.6f} rad "
        f"(formula {r.shift_formula:.6f})"
        for r in results
    ))
    print(f"alpha-sweep: -> {path}")
    return [path]


def cmd_adiabaticity(
    config: RunConfig,
    time_ladder_ms: tuple[float, ...] | None = None,
    out_dir: str | None = None,
) -> list[str]:
    """Fringe error versus loop time; write adiabaticity.csv."""
    ladder = time_ladder_ms if time_ladder_ms is not None else config.time_ladder_ms
    results = adiabaticity_study(config.ramsey_config(), list(ladder))
    monotone = all(
        results[i + 1].max_abs_p2_error < results[i].max_abs_p2_error
        for i in range(len(results) - 1)
    )
    rows = [
        (r.loop_time_ms, r.max_abs_p2_error, _nan_if_none(r.adiabaticity_ratio))
        for r in results
    ]
    extra = [("monotone_decreasing", "yes" if monotone else "no")]
    path = _write_csv(
        out_dir or config.out_dir,
        "adiabaticity.csv",
        _header_lines(config, "adiabaticity", extra),
        ["loop_time_ms", "max_abs_p2_error", "adiabaticity_ratio"],
        _row_format(3),
        rows,
    )
    for r in results:
        print(
            f"adiabaticity: T = {r.loop_time_ms:g} ms, "
            f"max |P2 error| = {r.max_abs_p2_error:.4e}"
        )
    print(f"adiabaticity: monotone decreasing = {'yes' if monotone else 'no'} -> {path}")
    return [path]


def cmd_dressed_phases(
    config: RunConfig,
    doublets: tuple[tuple[int, int], ...] | None = None,
    out_dir: str | None = None,
) -> list[str]:
    """Adiabatic transport phases per doublet; write dressed_phases.csv.

    Each doublet (n, m) is transported in the box (k, k), k = n + 1 + m,
    which holds its excitation sector whole, so no cutoff cuts it.

    The analytic column is the resonant-doublet law (branch sign times
    gamma/2*(n - m + 1/2)); a doublet is resonant exactly when
    omega^2 = g^2 * (n + 1 + m).  The resonant column records whether that
    holds for the configured couplings; off resonance the transported
    phases straddle the law and the pairing is only approximate.
    """
    wanted = doublets if doublets is not None else config.doublets
    params = config.model_params()
    loop = config.loop()
    gamma = solid_angle(loop)

    branches = ("upper", "lower") if config.branch == "both" else (config.branch,)
    rows = []
    failed = []
    for n, m in wanted:
        k = n + 1 + m
        resonant = (
            abs(params.omega_drive**2 - params.g**2 * k)
            <= 1e-9 * max(params.omega_drive**2, params.g**2)
        )
        for branch in branches:
            try:
                reading = _branch_reading(
                    make_space(k, k), params, loop, (n, m), branch, config.dt_ms
                )
                phase, cyclicity, gap, status = (
                    reading.geometric_phase, reading.cyclicity,
                    reading.metadata["min_gap"], "ok",
                )
            except DegeneracyError as exc:
                phase, cyclicity, gap, status = math.nan, math.nan, math.nan, "degenerate"
                failed.append(((n, m), branch, str(exc)))
            rows.append(
                (n, m, branch, phase, analytic_dressed_phase(n, m, gamma, branch),
                 "yes" if resonant else "no", cyclicity, gap, status)
            )

    extra = [("gamma_solid_angle", _fmt(gamma))]
    path = _write_csv(
        out_dir or config.out_dir,
        "dressed_phases.csv",
        _header_lines(config, "dressed-phases", extra),
        [
            "n",
            "m",
            "branch",
            "numeric_phase_rad",
            "analytic_phase_rad",
            "resonant",
            "cyclicity",
            "min_gap_rad_per_ms",
            "status",
        ],
        "%d,%d,%s,%.11e,%.11e,%s,%.11e,%.11e,%s",
        rows,
    )
    for n, m, branch, phase, analytic, _, _, _, status in rows:
        print(
            f"dressed-phases: (n,m) = ({n},{m}) {branch}: "
            f"numeric = {_fmt(phase)}, analytic = {_fmt(analytic)}, status = {status}"
        )
    print(f"dressed-phases: -> {path}")
    if failed:
        for (n, m), branch, error in failed:
            print(
                f"dressed-phases: doublet ({n},{m}) {branch} failed: {error}",
                file=sys.stderr,
            )
        raise DegeneracyError(
            f"{len(failed)} branch(es) hit a degeneracy; see dressed_phases.csv"
        )
    return [path]


# ---- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="loopqed",
        description=(
            "Simulate Ramsey interferometry of geometric phases produced by "
            "adiabatic polarization loops in a two-mode cavity."
        ),
    )
    parser.add_argument("--version", action="version", version=f"loopqed {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="path to key = value config file")
        p.add_argument("--out", default=None, help="output directory (overrides out_dir)")

    p_fringe = sub.add_parser("fringe", help="one Ramsey fringe scan")
    common(p_fringe)

    p_alpha = sub.add_parser("alpha-sweep", help="fringe shift vs coherent amplitude")
    common(p_alpha)
    p_alpha.add_argument(
        "--alphas", default=None, help="comma-separated amplitudes (overrides config)"
    )

    p_adia = sub.add_parser("adiabaticity", help="fringe error vs loop time")
    common(p_adia)
    p_adia.add_argument(
        "--times", default=None, help="comma-separated loop times in ms (overrides config)"
    )

    p_dressed = sub.add_parser("dressed-phases", help="adiabatic transport phases")
    common(p_dressed)
    p_dressed.add_argument(
        "--doublets", default=None, help="semicolon-separated n,m pairs (overrides config)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.subcommand == "fringe":
            cmd_fringe(config, out_dir=args.out)
        elif args.subcommand == "alpha-sweep":
            alphas = _float_list("--alphas", args.alphas) if args.alphas else None
            cmd_alpha_sweep(config, alphas=alphas, out_dir=args.out)
        elif args.subcommand == "adiabaticity":
            ladder = _float_list("--times", args.times) if args.times else None
            cmd_adiabaticity(config, time_ladder_ms=ladder, out_dir=args.out)
        elif args.subcommand == "dressed-phases":
            wanted = _parse_doublets(args.doublets) if args.doublets else None
            cmd_dressed_phases(config, doublets=wanted, out_dir=args.out)
        else:  # pragma: no cover - argparse enforces the subcommand set
            raise ConfigError(f"unknown subcommand {args.subcommand!r}")
        return 0
    except (ConfigError, TruncationError) as exc:
        print(f"loopqed: validation error: {exc}", file=sys.stderr)
        return 1
    except StepCountError as exc:
        print(f"loopqed: validation error: field 'dt_ms': {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, DegeneracyError) as exc:
        print(f"loopqed: numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"loopqed: validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
