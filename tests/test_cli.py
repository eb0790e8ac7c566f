"""Unit tests for the command-line front end: parsing, outputs, exit codes."""

import math
import os
import subprocess
import sys

import pytest

import loopqed.cli
import loopqed.dynamics
import loopqed.ramsey
from loopqed.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    parse_config_text,
)
from loopqed.hilbert import make_space
from loopqed.phases import dressed_phase_pair

TWO_PI = 2.0 * math.pi


def write_cfg(tmp_path, name="run.cfg", **overrides):
    lines = [f"{key} = {value}" for key, value in overrides.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


FAST_IDEAL = dict(nmax_plus=2, mode="ideal", loop_time_ms=0.6)
FAST_FULL = dict(nmax_plus=1, mode="full", loop_time_ms=0.6, dt_ms=3e-4)


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_parse_and_convert():
    cfg = load_config(None)
    assert isinstance(cfg, RunConfig)
    assert cfg.g_khz == 50.0
    assert cfg.g == pytest.approx(TWO_PI * 50.0, rel=1e-15)
    assert cfg.omega == pytest.approx(TWO_PI * 50.0, rel=1e-15)
    assert cfg.delta == pytest.approx(3.0 * TWO_PI * 50.0, rel=1e-15)
    params = cfg.model_params()
    assert params.lam == pytest.approx(TWO_PI * 50.0 / 3.0, rel=1e-12)
    assert params.flip_period == pytest.approx(0.06, rel=1e-12)
    assert cfg.mode == "full"
    assert cfg.xi_points == 33
    assert cfg.cavity_kind == "fock"
    assert cfg.doublets == ((0, 0),)


def test_config_text_comments_and_overrides():
    text = """
    # a comment line
    g_khz = 40.0   # trailing comment
    mode = ideal

    nmax_plus = 3
    """
    cfg = parse_config_text(text)
    assert cfg.g_khz == 40.0
    assert cfg.mode == "ideal"
    assert cfg.nmax_plus == 3
    # untouched keys keep defaults
    assert cfg.omega_khz == 50.0


def test_unknown_key_names_source_and_line():
    with pytest.raises(ConfigError, match=r"mycfg:2: unknown field 'bogus'"):
        parse_config_text("g_khz = 50\nbogus = 1\n", source="mycfg")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match=r"<config>:1: expected key = value"):
        parse_config_text("just some words\n")


def test_bad_value_types_name_the_field():
    with pytest.raises(ConfigError, match="g_khz"):
        parse_config_text("g_khz = abc")
    with pytest.raises(ConfigError, match="nmax_plus"):
        parse_config_text("nmax_plus = 2.5")
    with pytest.raises(ConfigError, match="round_flips"):
        parse_config_text("round_flips = maybe")


def test_cavity_parsing_variants():
    assert parse_config_text("cavity = fock").cavity_photons == 0
    cfg = parse_config_text("cavity = fock:2")
    assert cfg.cavity_kind == "fock"
    assert cfg.cavity_photons == 2
    cfg = parse_config_text("cavity = coherent:1.5\nnmax_plus = 8")
    assert cfg.cavity_kind == "coherent"
    assert cfg.cavity_alpha == 1.5
    with pytest.raises(ConfigError, match="cavity"):
        parse_config_text("cavity = squeezed:1")
    with pytest.raises(ConfigError, match="cavity"):
        parse_config_text("cavity = fock:two")


def test_mode_aliases():
    # mode takes exactly "full" or "ideal"; the old spelled-out names are
    # rejected like any other value
    for raw in ("ideal-phase", "full-dynamics", "magic"):
        with pytest.raises(ConfigError, match="mode"):
            parse_config_text(f"mode = {raw}")


def test_validation_rules():
    with pytest.raises(ConfigError, match="couplings must be positive"):
        parse_config_text("g_khz = 0")
    with pytest.raises(ConfigError, match="xi_points"):
        parse_config_text("xi_points = 8")
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text("gamma = 13.0")
    with pytest.raises(ConfigError, match="doublets"):
        parse_config_text("doublets = 2,-1")
    with pytest.raises(ConfigError, match="cavity"):
        parse_config_text("cavity = fock:5")
    with pytest.raises(ConfigError, match="dt_ms"):
        parse_config_text("dt_ms = -1")
    with pytest.raises(ConfigError, match="loop_leg_times"):
        parse_config_text("loop_knots = 0:0;1.2:0;0:0")


def test_explicit_knot_loop():
    text = (
        "loop_knots = 0:0;1.2:0;1.2:6.283185307179586;0:6.283185307179586\n"
        "loop_leg_times = 1;2;1\n"
    )
    cfg = parse_config_text(text)
    loop = cfg.loop()
    assert loop.total_time == pytest.approx(4.0)
    from loopqed.poincare_path import solid_angle

    assert solid_angle(loop) == pytest.approx(TWO_PI * (1 - math.cos(1.2)), abs=1e-9)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config("/nonexistent/path.cfg")


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_and_fringe_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **FAST_IDEAL)
    out = tmp_path / "out"
    rc = main(["fringe", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "fringe: shift =" in capsys.readouterr().out

    csv_path = out / "fringe.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert header[0] == "# loopqed 0.1.0"
    assert "# subcommand = fringe" in header
    # the full resolved configuration is echoed
    for key in ("g_khz", "omega_khz", "delta_ratio", "nmax_plus", "cavity",
                "mode", "xi_points", "g_rad_per_ms",
                "lambda_rad_per_ms", "flip_period_ms"):
        assert any(ln.startswith(f"# {key} = ") for ln in header), key
    assert any("2*pi*f_khz rad/ms" in ln for ln in header)
    for key in ("fitted_shift_rad", "fit_residual", "gamma_solid_angle", "flags"):
        assert any(ln.startswith(f"# {key} = ") for ln in header), key
    # an ideal run keeps the prepared state's space, (nmax_plus, 0)
    assert "# propagation_box = 2,0" in header

    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "xi_rad,p2_loop,p2_caliber"
    assert len(body) == 1 + 33
    first = body[1].split(",")
    assert len(first) == 3
    assert float(first[0]) == 0.0
    # ideal vacuum run: the fitted shift echoed in the header is gamma/4
    shift_line = next(ln for ln in header if ln.startswith("# fitted_shift_rad"))
    assert float(shift_line.split("=")[1]) == pytest.approx(math.pi / 4, abs=1e-9)


def test_exit_one_on_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n", encoding="utf-8")
    rc = main(["fringe", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "validation error" in capsys.readouterr().err


def test_exit_one_on_missing_config(tmp_path, capsys):
    rc = main(["fringe", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "validation error" in capsys.readouterr().err


def test_exit_one_on_usage_errors(tmp_path, capsys):
    assert main(["not-a-subcommand"]) == 1
    assert main([]) == 1
    capsys.readouterr()
    # an unknown option (an abbreviation too), an option with no value, a
    # stray positional and another subcommand's list flag each exit 1 naming
    # the token at fault
    cfg = write_cfg(tmp_path, **FAST_IDEAL)
    for argv, token in [
        (["fringe", "--config", cfg, "--bogus", "1"], "--bogus"),
        (["fringe", "--conf", cfg], "--conf"),
        (["fringe", "--config", cfg, "--out"], "--out"),
        (["alpha-sweep", "--config", cfg, "--alphas"], "--alphas"),
        (["fringe", "--config", cfg, "stray"], "stray"),
        (["fringe", "--config", cfg, "--alphas", "1"], "--alphas"),
    ]:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "validation error" in err and token in err, (argv, err)


def test_exit_one_on_removed_options(tmp_path, capsys):
    # there is no --threads flag and no seed, samples_per_leg or nmax_minus
    # key; each is a usage error
    cfg = write_cfg(tmp_path, **FAST_IDEAL)
    assert main(["fringe", "--config", cfg, "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err
    seeded = write_cfg(tmp_path, name="seeded.cfg", seed=0, **FAST_IDEAL)
    assert main(["fringe", "--config", seeded]) == 1
    assert "unknown field 'seed'" in capsys.readouterr().err
    sampled = write_cfg(tmp_path, name="sampled.cfg", samples_per_leg=256, **FAST_IDEAL)
    assert main(["fringe", "--config", sampled]) == 1
    assert "unknown field 'samples_per_leg'" in capsys.readouterr().err
    # every run takes its box from the sectors it occupies, so no key sets
    # the "-" cutoff
    cut = write_cfg(tmp_path, name="cut.cfg", nmax_minus=2, **FAST_IDEAL)
    assert main(["fringe", "--config", cut]) == 1
    assert "unknown field 'nmax_minus'" in capsys.readouterr().err


def test_exit_one_on_a_loop_open_at_the_south_pole(tmp_path, capsys):
    # the south pole is a different drive at each azimuth, so a loop that
    # leaves it at phi = 0 and returns at phi = 1 is open
    cfg = write_cfg(
        tmp_path,
        loop_knots=f"{math.pi!r}:0;{math.pi / 2!r}:0;{math.pi / 2!r}:1;{math.pi!r}:1",
        loop_leg_times="1;1;1",
        **FAST_IDEAL,
    )
    assert main(["fringe", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "not closed" in capsys.readouterr().err


def test_exit_one_on_inadequate_truncation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **FAST_IDEAL)
    out = tmp_path / "out"
    rc = main(["alpha-sweep", "--config", cfg, "--out", str(out),
               "--alphas", "3.0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "alpha = 3.0" in err


def test_inadequate_truncation_names_the_failing_alpha(tmp_path, capsys):
    # a later amplitude that does not fit fails the whole sweep, naming it,
    # before any CSV is written
    cfg = write_cfg(tmp_path, **FAST_IDEAL)
    out = tmp_path / "out"
    rc = main(["alpha-sweep", "--config", cfg, "--out", str(out),
               "--alphas", "0,0.1,3.0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "alpha-sweep: truncation inadequate for alpha = 3.0: coherent state" in err
    assert not out.exists()


def test_alpha_sweep_checks_its_loop_once(tmp_path, capsys, monkeypatch):
    # one solid angle for the header and the lasso check, and one for the
    # whole batch of amplitudes inside ramsey._run_arrays
    calls = []
    real = loopqed.ramsey.solid_angle

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(loopqed.cli, "solid_angle", counting)
    monkeypatch.setattr(loopqed.ramsey, "solid_angle", counting)
    cfg = write_cfg(tmp_path, alphas="0,0.1,0.2", **FAST_IDEAL)
    assert main(["alpha-sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 2 + 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["loop_time_ms", "g_khz", "dt_ms", "alphas"])
def test_exit_one_on_non_finite_numbers(tmp_path, capsys, field, value):
    # a NaN or infinite entry is refused at parsing, naming its field,
    # before any subcommand runs or writes a row
    cfg = write_cfg(tmp_path, **{**FAST_IDEAL, field: value})
    out = tmp_path / "out"
    assert main(["alpha-sweep", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"field '{field}': expected a finite number, got '{value}'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        # g**2 overflows in the light shift
        (dict(g_khz="1e300"), "g_khz"),
        # a tilted leg would take about 1e300 steps
        (dict(loop_knots="0:0;1:0;2:1;0:1;0:0", loop_leg_times="1;1;1;1",
              dt_ms="1e-300"), "dt_ms"),
    ],
)
def test_exit_one_names_the_field_of_an_overflowing_number(tmp_path, overrides, field):
    cfg = write_cfg(tmp_path, nmax_plus=1, **overrides)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "loopqed.cli", "fringe", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert f"loopqed: validation error: field '{field}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_adiabaticity_refuses_a_step_overflow_on_its_last_rung_before_stepping(
    tmp_path, capsys, monkeypatch
):
    # only the 1e20 ms rung's tilted legs make more steps than an int64
    # counts; every rung's steps are counted before the first is stepped
    cfg = write_cfg(
        tmp_path, dt_ms=0.001, loop_knots="0:0;1.0:0.5;1.0:2.5;0:3.0",
        loop_leg_times="0.15;0.3;0.15",
    )
    steps = []
    step_leg = loopqed.dynamics._step_leg

    def counting(*args, **kwargs):
        steps.append(args[4])
        return step_leg(*args, **kwargs)

    monkeypatch.setattr(loopqed.dynamics, "_step_leg", counting)
    out = tmp_path / "out"
    argv = ["adiabaticity", "--config", cfg, "--out", str(out), "--times", "0.6,1e20"]
    assert main(argv) == 1
    assert "validation error: field 'dt_ms'" in capsys.readouterr().err
    assert not out.exists()
    assert steps == []

def test_exit_two_on_degenerate_transport(tmp_path, capsys):
    # a loop crossing in a fraction of a flip period trips the gap
    # precheck; the CSV is still written with a degenerate status row
    cfg = write_cfg(
        tmp_path, nmax_plus=2, loop_time_ms=0.004, branch="upper"
    )
    out = tmp_path / "out"
    rc = main(["dressed-phases", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "numerical error" in capsys.readouterr().err
    content = (out / "dressed_phases.csv").read_text(encoding="utf-8")
    assert "degenerate" in content


# ---------------------------------------------------------------------------
# subcommand outputs


def test_alpha_sweep_output(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        nmax_plus=8,
        mode="ideal",
        loop_time_ms=0.6,
        alphas="0,0.5,1.0",
    )
    out = tmp_path / "out"
    assert main(["alpha-sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()

    lines = (out / "alpha_sweep.csv").read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == (
        "alpha,shift_sim_rad,shift_formula_rad,p2_dark_sim,"
        "p2_dark_formula,fit_residual"
    )
    assert len(body) == 1 + 3
    rows = [ln.split(",") for ln in body[1:]]
    # vacuum row reproduces the quarter-angle shift
    assert float(rows[0][1]) == pytest.approx(math.pi / 4, abs=1e-9)
    shifts = [float(r[1]) for r in rows]
    assert shifts[0] < shifts[1] < shifts[2]


def test_adiabaticity_output(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        nmax_plus=1,
        dt_ms=2e-4,
        time_ladder_ms="0.12,0.24",
    )
    out = tmp_path / "out"
    assert main(["adiabaticity", "--config", cfg, "--out", str(out)]) == 0
    assert "adiabaticity:" in capsys.readouterr().out
    lines = (out / "adiabaticity.csv").read_text(encoding="utf-8").splitlines()
    assert any(ln.startswith("# monotone_decreasing = ") for ln in lines)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "loop_time_ms,max_abs_p2_error,adiabaticity_ratio"
    assert len(body) == 1 + 2
    t1, e1, r1 = (float(x) for x in body[1].split(","))
    t2, e2, r2 = (float(x) for x in body[2].split(","))
    assert (t1, t2) == (0.12, 0.24)
    assert e1 > 0 and e2 > 0
    assert r1 == pytest.approx(2 * r2, rel=1e-9)


def test_dressed_phases_output(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        nmax_plus=2,
        loop_time_ms=3.0,
        dt_ms=6e-4,
        branch="both",
    )
    out = tmp_path / "out"
    assert main(["dressed-phases", "--config", cfg, "--out", str(out)]) == 0
    assert "dressed-phases:" in capsys.readouterr().out
    lines = (out / "dressed_phases.csv").read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == (
        "n,m,branch,numeric_phase_rad,analytic_phase_rad,"
        "resonant,cyclicity,min_gap_rad_per_ms,status"
    )
    assert len(body) == 1 + 2
    upper = body[1].split(",")
    lower = body[2].split(",")
    assert (upper[2], lower[2]) == ("upper", "lower")
    # at equal couplings the vacuum doublet is resonant and the numeric
    # phases carry the analytic signs
    assert upper[5] == "yes"
    assert float(upper[3]) > 0 > float(lower[3])
    assert float(upper[4]) == pytest.approx(math.pi / 4, abs=1e-9)
    assert upper[8] == "ok" and lower[8] == "ok"


def test_dressed_phases_runs_only_the_requested_branch(tmp_path, capsys):
    # off resonance at this speed the lower branch of the vacuum doublet
    # fails its gap precheck while the upper branch passes; asking for the
    # upper branch alone must not run (and fail on) the lower one
    cfg = write_cfg(
        tmp_path,
        omega_khz=60.0,
        loop_time_ms=1.2,
        dt_ms=6e-4,
        branch="upper",
        doublets="0,0",
    )
    out = tmp_path / "out"
    assert main(["dressed-phases", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "dressed_phases.csv").read_text(encoding="utf-8").splitlines()
    body = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(body) == 1
    n, m, branch, phase, _, resonant, cyclicity, min_gap, status = body[0]
    assert (n, m, branch, resonant, status) == ("0", "0", "upper", "no", "ok")
    assert float(phase) == pytest.approx(0.595, abs=1e-3)
    assert float(cyclicity) > 0.99
    assert float(min_gap) == pytest.approx(125.7, abs=0.1)


def test_dressed_phases_run_each_doublet_in_its_complete_box(tmp_path, capsys):
    # doublet (1,1) lives in sector 3, which the box (3, 3) holds whole;
    # the CLI reads the same phases there whatever nmax_plus says
    cfg = write_cfg(tmp_path, nmax_plus=4, doublets="1,1", dt_ms=6e-3)
    assert main(["dressed-phases", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "dressed_phases.csv").read_text(encoding="utf-8").splitlines()
    body = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    config = load_config(cfg)
    pair = dressed_phase_pair(
        make_space(3, 3), config.model_params(), config.loop(), (1, 1), dt=6e-3
    )
    assert [(row[2], row[3], row[8]) for row in body] == [
        (branch, f"{pair[branch].geometric_phase:.11e}", "ok")
        for branch in ("upper", "lower")
    ]


def test_full_mode_runs_are_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **FAST_FULL)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["fringe", "--config", cfg, "--out", str(first)]) == 0
    assert main(["fringe", "--config", cfg, "--out", str(second)]) == 0
    capsys.readouterr()
    assert (first / "fringe.csv").read_bytes() == (second / "fringe.csv").read_bytes()
    # a full vacuum run propagates in the complete box of sector 1
    assert "# propagation_box = 1,1" in (first / "fringe.csv").read_text().splitlines()


def test_run_path_never_imports_scipy(tmp_path):
    # scipy serves only brute_force_evolve and excitation_operator; importing
    # the CLI and running fringe (vacuum, coherent through the re-embedding
    # into its complete box, and a tilted loop whose legs are stepped), ideal
    # alpha-sweep and dressed-phases must not load it
    coherent = {**FAST_FULL, "nmax_plus": 3, "cavity": "coherent:0.5"}
    tilted = {
        **FAST_FULL,
        "loop_knots": "0:0;1.0:0.5;1.0:2.5;0:3.0",
        "loop_leg_times": "0.15;0.3;0.15",
    }
    runs = [
        ("fringe", write_cfg(tmp_path, name="full.cfg", xi_points=16, **FAST_FULL)),
        ("fringe", write_cfg(tmp_path, name="coherent.cfg", xi_points=16, **coherent)),
        ("fringe", write_cfg(tmp_path, name="tilted.cfg", xi_points=16, **tilted)),
        ("alpha-sweep", write_cfg(tmp_path, name="ideal.cfg", alphas="0", **FAST_IDEAL)),
        ("dressed-phases", write_cfg(
            tmp_path, name="dressed.cfg", nmax_plus=1,
            loop_time_ms=3.0, dt_ms=3e-3, branch="upper",
        )),
    ]
    script = "\n".join([
        "import sys",
        "from loopqed.cli import main",
        *(f"assert main([{cmd!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0"
          for cmd, cfg in runs),
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        # the argv reader needs none of argparse and its translation lookups
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="reads thread CPU times from /proc"
)
def test_blas_worker_threads_stay_idle(tmp_path):
    # a BLAS call large enough to be split wakes the BLAS worker threads,
    # which then spin and burn CPU time the run does not use.  After
    # numpy's start-up spin has ended, a coherent fringe and the 251-point
    # ideal sweep must not give any thread but the main one a CPU tick,
    # neither during the run nor in the spin it would leave behind
    alphas = ",".join(f"{k * 0.01:.2f}" for k in range(251))
    runs = [
        ("fringe", write_cfg(
            tmp_path, name="coherent.cfg", nmax_plus=8, cavity="coherent:1.0"
        )),
        ("alpha-sweep", write_cfg(
            tmp_path, name="sweep.cfg", mode="ideal", nmax_plus=16, alphas=alphas
        )),
    ]
    script = "\n".join([
        "import os, threading, time",
        "from loopqed.cli import main",
        "def ticks():",
        "    busy = 0",
        "    for tid in os.listdir('/proc/self/task'):",
        "        if int(tid) != threading.get_native_id():",
        "            with open(f'/proc/self/task/{tid}/stat') as fh:",
        "                fields = fh.read().rsplit(')', 1)[1].split()",
        "            busy += int(fields[11]) + int(fields[12])  # utime, stime",
        "    return busy",
        "time.sleep(0.5)",
        *(f"before = ticks()\n"
          f"assert main([{cmd!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
          f"time.sleep(0.5)\n"
          f"print('ticks', ticks() - before)"
          for cmd, cfg in runs),
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    gained = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("ticks")]
    assert gained == ["0", "0"]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads from /proc"
)
def test_import_loads_numpy_without_blas_threads():
    # importing loopqed before numpy starts no BLAS thread pool, and leaves
    # the environment as it found it; a thread count already set is kept
    script = "\n".join([
        "import os",
        "import loopqed",
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))",
    ])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    runs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env={**env, **extra}, timeout=60)
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"})
    ]
    assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout.split() == ["1", "None"]
    assert runs[1].stdout.split()[1] == "2"


def test_console_script_version(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "loopqed.cli", "--version"],
        capture_output=True,
        text=True,
    )
    # --version exits 0 and prints the version string
    assert proc.returncode == 0
    assert "loopqed 0.1.0" in proc.stdout
    # --help, at the top or after a subcommand, exits 0 naming every
    # subcommand and flag of the command table
    for argv in (["--help"], ["alpha-sweep", "-h"]):
        assert main(argv) == 0
        usage = capsys.readouterr().out
        assert "--config" in usage and "--out" in usage, argv
        for name, (_, _, flag) in loopqed.cli._COMMANDS.items():
            assert name in usage and (flag is None or flag[0] in usage), (argv, name)


def test_help_is_read_only_where_an_option_is_expected(tmp_path, capsys, monkeypatch):
    # an option's VALUE is taken whatever it starts with, so -h there is a
    # value: an output directory, or list text that is not a number
    monkeypatch.chdir(tmp_path)
    assert main(["fringe", "--out", "-h"]) == 0
    assert (tmp_path / "-h" / "fringe.csv").is_file()
    assert "usage" not in capsys.readouterr().out
    assert main(["alpha-sweep", "--alphas", "-h"]) == 1
    assert "field 'alphas'" in capsys.readouterr().err
    # in place of an option, after a value, it still asks for the usage
    assert main(["fringe", "--out", "-h", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: loopqed")
