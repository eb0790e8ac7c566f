"""Benchmark workloads: seeded config generation and per-run output checks.

Each workload is one loopqed subcommand run on a generated config file.
Seed 0 reproduces the reference configs exactly; other seeds draw the lasso
solid angle gamma from [pi/2, 3pi/2] (the range acceptance criteria 1 and 4
validate) and offset the alpha grid.  Dimensions and step counts never
depend on the seed, so neither does the cost of a run.

The checks recompute every closed form here rather than trusting the
program's own formula columns, so a change to the program cannot move the
oracle it is checked against.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
GAMMA_RANGE = (0.5 * math.pi, 1.5 * math.pi)
ALPHA_POINTS = 251
ALPHA_STEP = 0.01
XI_POINTS = 33  # the config default, echoed as one CSV row per point
COHERENT_DT_MS = 0.0012  # 6 ms loop / 5 000 steps


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    csv_name: str
    columns: tuple[str, ...]
    numeric_columns: tuple[str, ...]


FRINGE_COLUMNS = ("xi_rad", "p2_loop", "p2_caliber")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("vacuum-fringe", "fringe", "fringe.csv", FRINGE_COLUMNS, FRINGE_COLUMNS),
        Workload("coherent-fringe", "fringe", "fringe.csv", FRINGE_COLUMNS, FRINGE_COLUMNS),
        Workload(
            "dressed-doublets",
            "dressed-phases",
            "dressed_phases.csv",
            ("n", "m", "branch", "numeric_phase_rad", "analytic_phase_rad",
             "resonant", "cyclicity", "min_gap_rad_per_ms", "status"),
            ("n", "m", "numeric_phase_rad", "analytic_phase_rad", "cyclicity",
             "min_gap_rad_per_ms"),
        ),
        Workload(
            "ideal-crossover",
            "alpha-sweep",
            "alpha_sweep.csv",
            ("alpha", "shift_sim_rad", "shift_formula_rad", "p2_dark_sim",
             "p2_dark_formula", "fit_residual"),
            ("alpha", "shift_sim_rad", "shift_formula_rad", "p2_dark_sim",
             "p2_dark_formula", "fit_residual"),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated config and the values its check needs."""

    workload: str
    seed: int
    gamma: float
    alphas: tuple[float, ...]
    config_text: str


def make_inputs(name: str, seed: int) -> Inputs:
    """Generate the config for one workload and seed.

    coherent-fringe keeps gamma = pi on every seed: at every other gamma
    tried (0.5 to 1.5 pi) its nmax_minus = 2 truncation drops the loop arm's
    cyclicity below the program's 0.99 floor, so the run is flagged
    non-cyclic and could never pass its check.  It also steps at 5 000
    steps per arm, not 20 000: one 20 000-step invocation takes 9-16 s, as
    long as the host's slow spells, so a 30 s run could not find a fast one.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    gamma = math.pi if seed == 0 or name == "coherent-fringe" else rng.uniform(*GAMMA_RANGE)
    alpha_offset = 0.0 if seed == 0 else rng.randrange(1, 1000) * 1e-5
    lines = [f"# {name}, seed {seed}"]
    if gamma != math.pi:
        lines.append(f"gamma = {gamma!r}")
    alphas: tuple[float, ...] = ()
    if name == "coherent-fringe":
        lines += ["nmax_plus = 8", "cavity = coherent:1.0", f"dt_ms = {COHERENT_DT_MS!r}"]
    elif name == "dressed-doublets":
        lines.append("doublets = 0,0;1,0")
    elif name == "ideal-crossover":
        digits = 2 if seed == 0 else 5
        texts = [f"{k * ALPHA_STEP + alpha_offset:.{digits}f}" for k in range(ALPHA_POINTS)]
        alphas = tuple(float(t) for t in texts)
        lines += ["mode = ideal", "nmax_plus = 16", "alphas = " + ",".join(texts)]
    return Inputs(name, seed, gamma, alphas, "\n".join(lines) + "\n")


# ---- closed forms -----------------------------------------------------------


def wrap(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = (x + math.pi) % TWO_PI - math.pi
    return math.pi if w == -math.pi else w


def mixture_shift(alpha: float, gamma: float) -> float:
    """Fringe phase of the Poisson mixture of gamma/4 and gamma/2 fringes."""
    p0 = math.exp(-alpha * alpha)
    re = p0 * math.cos(gamma / 4) + (1 - p0) * math.cos(gamma / 2)
    im = p0 * math.sin(gamma / 4) + (1 - p0) * math.sin(gamma / 2)
    return math.atan2(im, re)


def mixture_dark_p2(alpha: float, gamma: float) -> float:
    """Dark-point detection probability for a coherent input."""
    p0 = math.exp(-alpha * alpha)
    return 0.5 * ((1 - p0) * (1 - math.cos(gamma / 2)) + p0 * (1 - math.cos(gamma / 4)))


def poisson_tail(alpha: float, nmax: int) -> float:
    """Photon-number probability beyond nmax for coherent amplitude alpha."""
    lam = alpha * alpha
    term = kept = math.exp(-lam)
    for k in range(1, nmax + 1):
        term *= lam / k
        kept += term
    return max(0.0, 1.0 - kept)


def doublet_phase(n: int, m: int, gamma: float, branch: str) -> float:
    """The +-gamma/2 (n - m + 1/2) dressed-level law."""
    sign = 1.0 if branch == "upper" else -1.0
    return sign * 0.5 * gamma * (n - m + 0.5)


# ---- output checks ----------------------------------------------------------


class CheckFailed(Exception):
    """The run's CSV is malformed or misses the workload's criterion."""


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[dict[str, str]]]:
    """Header echo (key -> value), column names and rows of a loopqed CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = {}
    body = []
    for line in lines:
        if line.startswith("#"):
            key, sep, value = line[1:].partition(" = ")
            if sep:
                header[key.strip()] = value.strip()
        else:
            body.append(line)
    if not body:
        raise CheckFailed("no column line")
    reader = csv.reader(body)
    columns = next(reader)
    rows = [dict(zip(columns, r)) for r in reader if len(r) == len(columns)]
    if len(rows) != len(body) - 1:
        raise CheckFailed("a row has the wrong number of fields")
    return header, columns, rows


def _number(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(x):
        raise CheckFailed(f"{what}: not finite: {text!r}")
    return x


def check_output(inputs: Inputs, csv_path: str) -> float:
    """Validate one run's CSV; return its phase_err_rad.

    Raises CheckFailed naming the first problem found.
    """
    wl = WORKLOADS[inputs.workload]
    header, columns, rows = read_csv(csv_path)
    if tuple(columns) != wl.columns:
        raise CheckFailed(f"columns {columns} != {list(wl.columns)}")
    values = [
        {c: _number(row[c], f"row {i} {c}") for c in wl.numeric_columns}
        for i, row in enumerate(rows)
    ]
    gamma_echo = _number(header.get("gamma_solid_angle", ""), "gamma_solid_angle")
    if abs(gamma_echo - inputs.gamma) > 1e-9:
        raise CheckFailed(f"solid angle {gamma_echo} != generated gamma {inputs.gamma}")

    if wl.subcommand == "fringe":
        if len(rows) != XI_POINTS:
            raise CheckFailed(f"{len(rows)} rows, expected {XI_POINTS}")
        if header.get("flags") != "none":
            raise CheckFailed(f"flags = {header.get('flags')}")
        shift = _number(header.get("fitted_shift_rad", ""), "fitted_shift_rad")
        if inputs.workload == "vacuum-fringe":
            err = abs(wrap(shift - inputs.gamma / 4))
            if err > 0.02:
                raise CheckFailed(f"|shift - gamma/4| = {err:.3e} > 0.02")
            return err
        residual = _number(header.get("fit_residual", ""), "fit_residual")
        if residual > 0.02:
            raise CheckFailed(f"fit residual {residual:.3e} > 0.02")
        return abs(wrap(shift - mixture_shift(1.0, inputs.gamma)))

    if wl.subcommand == "dressed-phases":
        if len(rows) != 4:
            raise CheckFailed(f"{len(rows)} rows, expected 4")
        resonant: dict[tuple[int, int], dict[str, float]] = {}
        err = 0.0
        for row, v in zip(rows, values):
            if row["status"] != "ok":
                raise CheckFailed(f"doublet ({row['n']},{row['m']}) status {row['status']}")
            if row["resonant"] == "yes":
                n, m = int(v["n"]), int(v["m"])
                analytic = doublet_phase(n, m, inputs.gamma, row["branch"])
                err = max(err, abs(wrap(v["numeric_phase_rad"] - analytic)))
                resonant.setdefault((n, m), {})[row["branch"]] = v["numeric_phase_rad"]
        if not resonant:
            raise CheckFailed("no resonant doublet")
        for (n, m), pair in resonant.items():
            if abs(pair["upper"] + pair["lower"]) > 1e-9:
                raise CheckFailed(f"resonant ({n},{m}): upper != -lower")
        return err

    # alpha-sweep: acceptance criterion 3's budget of 1e-10 + tail per alpha
    if len(rows) != len(inputs.alphas):
        raise CheckFailed(f"{len(rows)} rows, expected {len(inputs.alphas)}")
    err = 0.0
    for v, alpha in zip(values, inputs.alphas):
        if abs(v["alpha"] - alpha) > 1e-9:
            raise CheckFailed(f"alpha {v['alpha']} != generated {alpha}")
        budget = 1e-10 + poisson_tail(alpha, 16)
        shift_err = abs(v["shift_sim_rad"] - mixture_shift(alpha, inputs.gamma))
        p2_err = abs(v["p2_dark_sim"] - mixture_dark_p2(alpha, inputs.gamma))
        if max(shift_err, p2_err) > budget:
            raise CheckFailed(f"alpha {alpha}: error {max(shift_err, p2_err):.3e} > {budget:.3e}")
        err = max(err, shift_err)
    return err
