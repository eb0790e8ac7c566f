"""Command-line front end: config parsing, scenario subcommands, CSV output.

Subcommands
    fringe          one Ramsey fringe scan (loop arm + caliber arm)
    alpha-sweep     fringe shift versus coherent amplitude
    adiabaticity    full-dynamics vs ideal-phase fringe error versus loop time
    dressed-phases  adiabatic transport phases for chosen photon doublets

Usage: loopqed SUBCOMMAND [--config PATH] [--out DIR] [FLAG TEXT], read by
the _COMMANDS table, which --help prints.  --config names a key = value
file, --out overrides out_dir, and FLAG overrides the subcommand's list key:
alpha-sweep --alphas, adiabaticity --times, dressed-phases --doublets.  Each
option is --opt VALUE or --opt=VALUE, spelled in full.  FLAG's text replaces
the key's before parsing, so it is checked, and echoed, like the key's.

Exit codes: 0 success, 1 validation failure (bad flags, bad config fields,
couplings whose derived rates overflow, a dt_ms that makes more steps than
an int64 counts, inadequate truncation), 2 numerical failure (integration,
degeneracy).

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

Config file format: one `key = value` per line, `#` starts a comment,
blank lines ignored.  Unknown keys are rejected.  All computations are
deterministic, so no key seeds anything.  Keys and defaults, one line per
row of KEYS:

"""

from __future__ import annotations

import math
import os
import sys
import textwrap
from collections import namedtuple

from . import __version__
from .hilbert import TruncationError, make_space
from .model import TWO_PI, ModelParams
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
    "KEYS",
    "RunConfig",
    "load_config",
    "cmd_fringe",
    "cmd_alpha_sweep",
    "cmd_adiabaticity",
    "cmd_dressed_phases",
    "main",
]

# the largest Ramsey phase grid; an alpha sweep holds a (amplitudes, xi) array
XI_POINTS_MAX = 10_000
# the largest photon cutoff K of a propagation box (K, K): nmax_plus, whose
# coherent fields run in the box (nmax_plus + 1, nmax_plus + 1), and the
# k = n + 1 + m of a doublet's box (k, k).  A full-mode run at the cap holds
# (66, 131, 131) complex sector stacks of 18 MB each
CUTOFF_MAX = 64


class ConfigError(ValueError):
    """A configuration or usage problem; maps to exit code 1."""


# ---- parsers, checks and echo formats of the keys ----------------------------


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


def _pairs(key: str, raw: str, form: str, convert) -> tuple[tuple, ...]:
    """Entries of the given form ("theta:phi" or "n,m"), ';'-separated, as pairs."""
    sep = ":" if ":" in form else ","
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(sep)
        if len(parts) != 2:
            raise ConfigError(f"field {key!r}: expected {form} entries, got {chunk!r}")
        pairs.append((convert(key, parts[0]), convert(key, parts[1])))
    return tuple(pairs)


def _parse_cavity(key: str, raw: str) -> tuple[str, int, float]:
    """fock:N or coherent:ALPHA as (kind, photon number, amplitude)."""
    kind, *rest = (part.strip() for part in raw.strip().split(":"))
    kind = kind.lower()
    if len(rest) > 1 or kind not in ("fock", "coherent"):
        raise ConfigError(f"field {key!r}: expected fock:N or coherent:ALPHA, got {raw!r}")
    amount = rest[0] if rest else ""
    if kind == "fock":
        return "fock", _to_int(key, amount) if amount else 0, 0.0
    if not amount:
        raise ConfigError(f"field {key!r}: coherent input needs an amplitude, e.g. coherent:1.5")
    return "coherent", 0, _to_float(key, amount)


def _optional(parse, empty):
    """parse, except that blank text means empty."""
    return lambda key, raw: parse(key, raw) if raw.strip() else empty


def _positive(value) -> str | None:
    return None if value > 0 else f"must be positive, got {value}"


def _one_of(*words: str):
    names = ", ".join(map(repr, words[:-1])) + f" or {words[-1]!r}"
    return lambda value: None if value in words else f"must be {names}, got {value!r}"


def _check_doublets(pairs) -> str | None:
    if not pairs:
        return "need at least one n,m entry"
    for n, m in pairs:
        if n < 0 or m < 0:
            return f"labels must be >= 0, got ({n},{m})"
        if n + 1 + m > CUTOFF_MAX:
            return f"n + 1 + m must be at most {CUTOFF_MAX}, got ({n},{m})"
    return None


def _fmt(x) -> str:
    """12-significant-digit scientific notation for floats."""
    return "%.11e" % _nan_if_none(x)


def _nan_if_none(x) -> float:
    return math.nan if x is None else float(x)


def _row_format(count: int) -> str:
    """The format of a CSV row of count floats, each as _fmt writes it."""
    return ",".join(["%.11e"] * count)


# ---- the keys ---------------------------------------------------------------

# One row per config key, in header order: name, default text, parse(key,
# text) -> value (raising ConfigError naming the key), check(value) -> what
# is wrong with it or None (None: no check of its own), echo(value) -> header
# text, and the docstring's line about the key.
Key = namedtuple("Key", "name default parse check echo doc")

KEYS: tuple[Key, ...] = (
    Key("g_khz", "50.0", _to_float, None, _fmt, "atom-cavity coupling g/2pi in kHz"),
    Key("omega_khz", "50.0", _to_float, None, _fmt, "drive Rabi frequency Omega/2pi in kHz"),
    Key("delta_ratio", "3.0", _to_float, _positive, _fmt, "detuning delta as a multiple of Omega"),
    Key("nmax_plus", "4", _to_int,
        lambda n: None if 1 <= n <= CUTOFF_MAX else f"must be 1 to {CUTOFF_MAX}, got {n}", str,
        'photon cutoff of the driven mode "+" for fringe, alpha-sweep and adiabaticity '
        f"(1 to {CUTOFF_MAX})"),
    Key("tail_tol", "1e-3", _to_float, _positive, _fmt,
        "coherent-state truncation tail tolerance"),
    Key("gamma", repr(math.pi), _to_float,
        lambda g: None if 0.0 <= g < 2.0 * TWO_PI else f"must lie in [0, 4*pi), got {g}",
        _fmt, "lasso solid angle in steradians"),
    Key("loop_knots", "", _optional(lambda key, raw: _pairs(key, raw, "theta:phi", _to_float), ()),
        lambda knots: "a path needs at least two knots" if len(knots) == 1 else None,
        lambda knots: ";".join(f"{_fmt(t)}:{_fmt(p)}" for t, p in knots) or "none",
        'optional explicit path "theta:phi;..." (rad)'),
    Key("loop_leg_times", "", _optional(lambda key, raw: _float_list(key, raw, ";"), ()),
        lambda ts: None if all(t > 0 for t in ts) else "all leg durations must be positive",
        lambda ts: ";".join(map(_fmt, ts)) or "none",
        'leg durations "t1;t2;..." in ms (with knots)'),
    Key("loop_time_ms", "6.0", _to_float, _positive, _fmt, "total loop time in ms"),
    Key("cavity", "fock:0", _parse_cavity,
        lambda c: None if c[1] >= 0 else f"fock photon number must be >= 0, got {c[1]}",
        lambda c: f"fock:{c[1]}" if c[0] == "fock" else f"coherent:{_fmt(c[2])}",
        'initial "+" field: fock:N or coherent:ALPHA'),
    Key("xi_points", "33", _to_int,
        lambda n: None if 16 <= n <= XI_POINTS_MAX
        else f"the fringe grid takes 16 to {XI_POINTS_MAX} phases, got {n}",
        str, f"Ramsey phase grid size (16 to {XI_POINTS_MAX})"),
    Key("mode", "full", lambda key, raw: raw.strip().lower(), _one_of("full", "ideal"), str,
        '"full" dynamics or "ideal" phase map'),
    Key("dt_ms", "", _optional(_to_float, None), lambda dt: None if dt is None else _positive(dt),
        lambda dt: "auto" if dt is None else _fmt(dt),
        "integrator step in ms of every stepped leg (empty: duration/750); lasso legs "
        "are exact: Ramsey loops take one step there, and the transport one step when "
        "dt_ms is empty and ceil(leg/dt) exact steps when it is set"),
    Key("round_flips", "true", _to_bool, None, lambda b: "true" if b else "false",
        "round interaction time to whole Rabi flips"),
    Key("out_dir", "runs", lambda key, raw: raw.strip() or "runs", None, str, "output directory"),
    Key("alphas", "0,0.5", _float_list,
        lambda alphas: None if min(alphas) >= 0 else "amplitudes must be >= 0",
        lambda alphas: _row_format(len(alphas)) % alphas, "alpha-sweep amplitudes"),
    Key("time_ladder_ms", "0.6,1.2,2.4", _float_list,
        lambda times: None if min(times) > 0 else "need positive loop times",
        lambda times: _row_format(len(times)) % times, "adiabaticity loop times"),
    Key("doublets", "0,0", lambda key, raw: _pairs(key, raw, "n,m", _to_int),
        _check_doublets,
        lambda pairs: ";".join(f"{n},{m}" for n, m in pairs),
        'dressed-phase doublets "n,m;n,m;..."; each runs in the box (k, k) that holds '
        f"its excitation sector k = n + 1 + m whole (k up to {CUTOFF_MAX})"),
    Key("branch", "both", lambda key, raw: raw.strip().lower(), _one_of("upper", "lower", "both"),
        str, "dressed-phase branch: upper, lower, or both"),
)


def _key_list() -> str:
    """The docstring's key list: `name = default`, then the doc line wrapped."""
    lines = []
    for key in KEYS:
        first, *more = textwrap.wrap(key.doc, 49)
        lines.append(f"{f'    {key.name} = {key.default}':<29} {first}")
        lines += [" " * 30 + line for line in more]
    return "\n".join(lines) + "\n"


if __doc__:  # python -OO strips it
    __doc__ += _key_list()


class RunConfig(namedtuple("RunConfig", [key.name for key in KEYS])):
    """Parsed, validated run configuration: one field per row of KEYS, in order.

    cavity holds (kind, photon number, amplitude); build one with
    RunConfig.from_raw, which runs every check.
    """

    __slots__ = ()

    @classmethod
    def from_raw(cls, values: dict[str, str]) -> RunConfig:
        """Parse and check each key's text by its row, then the checks across keys."""
        parsed = []
        for key in KEYS:
            value = key.parse(key.name, values[key.name])
            problem = key.check and key.check(value)
            if problem:
                raise ConfigError(f"field {key.name!r}: {problem}")
            parsed.append(value)
        config = cls._make(parsed)
        config._check_across_keys()
        return config

    def _check_across_keys(self) -> None:
        if self.g_khz <= 0 or self.omega_khz <= 0:
            raise ConfigError(
                "field 'g_khz'/'omega_khz': couplings must be positive "
                "(the protocol needs a finite Rabi-flip period)"
            )
        try:
            params = self.model_params()
            rates = (
                params.lam, params.shift_upper, params.shift_lower_per_photon,
                params.flip_period,
            )
        except (OverflowError, ValueError):  # a square overflows, or lam is 0
            rates = (math.inf,)
        if not all(map(math.isfinite, rates)):
            raise ConfigError(
                "field 'g_khz'/'omega_khz'/'delta_ratio': lambda, the light shifts "
                f"and the flip period must be finite, got g_khz = {self.g_khz}, "
                f"omega_khz = {self.omega_khz}, delta_ratio = {self.delta_ratio}"
            )
        if self.cavity_kind == "fock" and self.cavity_photons > self.nmax_plus:
            raise ConfigError(
                f"field 'cavity': fock photon number {self.cavity_photons} "
                f"exceeds nmax_plus {self.nmax_plus}"
            )
        knots, legs = self.loop_knots, self.loop_leg_times
        if legs and not knots:
            raise ConfigError(
                "field 'loop_leg_times': set without loop_knots, so it configures nothing"
            )
        if knots and len(legs) != len(knots) - 1:
            raise ConfigError(
                f"field 'loop_leg_times': {len(knots)} knots need {len(knots) - 1} "
                f"leg durations, got {len(legs)}"
            )
        if knots:
            self.loop()

    # ---- derived quantities -------------------------------------------------

    cavity_kind = property(lambda self: self.cavity[0], doc="'fock' or 'coherent'")
    cavity_photons = property(lambda self: self.cavity[1], doc="Fock photon number")
    cavity_alpha = property(lambda self: self.cavity[2], doc="coherent amplitude")

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
        if not self.loop_knots:
            return lasso_path(self.gamma, self.loop_time_ms)
        try:
            return piecewise_path(self.loop_knots, self.loop_leg_times)
        except ValueError as exc:  # leg times and their count are checked first
            raise ConfigError(f"field 'loop_knots': {exc}") from None

    def ramsey_config(self) -> RamseyConfig:
        return RamseyConfig(
            space=make_space(self.nmax_plus, 0),
            params=self.model_params(),
            loop=self.loop(),
            cavity=CavityInput(*self.cavity, tail_tol=self.tail_tol),
            round_to_flips=self.round_flips,
            xi_grid=default_xi_grid(self.xi_points),
            mode=self.mode,
            dt=self.dt_ms,
        )


def parse_config_text(
    text: str, source: str = "<config>", overrides: dict[str, str] | None = None
) -> RunConfig:
    """Parse `key = value` lines into a validated RunConfig.

    overrides replace keys' text after the file's, as the list flags do.
    """
    values = {key.name: key.default for key in KEYS}
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
    values.update(overrides or {})
    return RunConfig.from_raw(values)


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Load a config file, or the built-in defaults when path is None."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text, source=path or "<config>", overrides=overrides)


# ---- output helpers ---------------------------------------------------------


def _header_lines(config: RunConfig, subcommand: str, extra: list[tuple[str, str]]) -> list[str]:
    params = config.model_params()
    derived = [
        ("g_rad_per_ms", config.g),
        ("omega_rad_per_ms", config.omega),
        ("delta_rad_per_ms", config.delta),
        ("lambda_rad_per_ms", params.lam),
        ("flip_period_ms", params.flip_period),
    ]
    return [
        f"# loopqed {__version__}",
        f"# subcommand = {subcommand}",
        *(f"# {key.name} = {key.echo(value)}" for key, value in zip(KEYS, config)),
        *(f"# {name} = {_fmt(value)}" for name, value in derived),
        "# units: frequencies entered in kHz; angular frequency = 2*pi*f_khz rad/ms",
        *(f"# {key} = {value}" for key, value in extra),
    ]


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


def cmd_alpha_sweep(config: RunConfig, out_dir: str | None = None) -> list[str]:
    """Sweep coherent amplitudes; write alpha_sweep.csv."""
    base = config.ramsey_config()
    gamma = solid_angle(base.loop)

    # the batch checks every amplitude's truncation before it runs, so a
    # failure leaves no CSV behind
    try:
        results = effective_shift_vs_alpha(config.alphas, gamma, config.mode, base)
    except TruncationError as exc:
        raise ConfigError(
            f"field 'alphas': alpha-sweep: truncation inadequate for alpha = {exc.alpha}: {exc}"
        ) from exc
    extra = [("gamma_solid_angle", _fmt(gamma))]
    path = _write_csv(
        out_dir or config.out_dir,
        "alpha_sweep.csv",
        _header_lines(config, "alpha-sweep", extra),
        ["alpha", "shift_sim_rad", "shift_formula_rad", "p2_dark_sim", "p2_dark_formula",
         "fit_residual"],
        _row_format(6),
        results,
    )
    print("\n".join(
        f"alpha-sweep: alpha = {r.alpha:g}, shift = {r.shift_sim:.6f} rad "
        f"(formula {r.shift_formula:.6f})"
        for r in results
    ))
    print(f"alpha-sweep: -> {path}")
    return [path]


def cmd_adiabaticity(config: RunConfig, out_dir: str | None = None) -> list[str]:
    """Fringe error versus loop time; write adiabaticity.csv."""
    results = adiabaticity_study(config.ramsey_config(), list(config.time_ladder_ms))
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


def cmd_dressed_phases(config: RunConfig, out_dir: str | None = None) -> list[str]:
    """Adiabatic transport phases per doublet; write dressed_phases.csv.

    Each doublet (n, m) is transported in the box (k, k), k = n + 1 + m,
    which holds its excitation sector whole, so no cutoff cuts it.

    The analytic column is the resonant-doublet law (branch sign times
    gamma/2*(n - m + 1/2)); a doublet is resonant exactly when
    omega^2 = g^2 * (n + 1 + m).  The resonant column records whether that
    holds for the configured couplings; off resonance the transported
    phases straddle the law and the pairing is only approximate.
    """
    params = config.model_params()
    loop = config.loop()
    gamma = solid_angle(loop)

    branches = ("upper", "lower") if config.branch == "both" else (config.branch,)
    rows = []
    failed = []
    for n, m in config.doublets:
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
        ["n", "m", "branch", "numeric_phase_rad", "analytic_phase_rad", "resonant",
         "cyclicity", "min_gap_rad_per_ms", "status"],
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


# subcommand -> (function, help, list flag); a list flag names the key whose
# text it replaces
_COMMANDS = {
    "fringe": (cmd_fringe, "one Ramsey fringe scan", None),
    "alpha-sweep": (cmd_alpha_sweep, "fringe shift vs coherent amplitude",
                    ("--alphas", "alphas", "comma-separated amplitudes")),
    "adiabaticity": (cmd_adiabaticity, "fringe error vs loop time",
                     ("--times", "time_ladder_ms", "comma-separated loop times in ms")),
    "dressed-phases": (cmd_dressed_phases, "adiabatic transport phases",
                       ("--doublets", "doublets", "semicolon-separated n,m pairs")),
}


def _usage() -> str:
    """The --help text: every subcommand of _COMMANDS, its help line and its flag."""
    lines = ["usage: loopqed SUBCOMMAND [--config PATH] [--out DIR] [FLAG TEXT] | --version",
             "subcommands:"]
    for name, (_, help_text, flag) in _COMMANDS.items():
        lines.append(f"  {name:<20}{help_text}")
        if flag:
            lines.append(f"    {flag[0] + ' TEXT':<18}{flag[2]} (overrides {flag[1]})")
    return "\n".join([*lines, "options of every subcommand, as --opt VALUE or --opt=VALUE:",
                      "  --config PATH       key = value config file (defaults when omitted)",
                      "  --out DIR           output directory (overrides out_dir)"])


def _read_argv(argv: list[str]) -> tuple[str, dict[str, str]] | None:
    """The subcommand and its options' text, the list flag's under its key's name.

    VALUE is taken whatever it starts with, and a repeated option's last
    wins.  -h or --help in place of the subcommand or of an option asks for
    the usage, and gives None.  A usage problem raises ConfigError naming
    the token at fault.
    """
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise ConfigError(f"expected a subcommand, one of {', '.join(_COMMANDS)}; got {argv[:1]}")
    name, *rest = argv
    flag = _COMMANDS[name][2]
    dests = {"--config": "--config", "--out": "--out", **({flag[0]: flag[1]} if flag else {})}
    options = {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        option, eq, value = token.partition("=")
        if option not in dests:
            raise ConfigError(f"{name}: unrecognized argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"{name}: option {option!r} expects a value")
        options[dests[option]] = value
    return name, options


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--version"]:
        print(f"loopqed {__version__}")
        return 0
    try:
        request = _read_argv(argv)
        if request is None:
            print(_usage())
            return 0
        name, options = request
        out = options.pop("--out", None)
        config = load_config(options.pop("--config", None), options)
        _COMMANDS[name][0](config, out_dir=out)
        return 0
    except (IntegrationError, DegeneracyError) as exc:
        print(f"loopqed: numerical error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a ConfigError names its field; a coherent tail or a step count is named here
        named = {TruncationError: "field 'cavity': ", StepCountError: "field 'dt_ms': "}
        print(f"loopqed: validation error: {named.get(type(exc), '')}{exc}", file=sys.stderr)
        return 1

if __name__ == "__main__":
    sys.exit(main())
