"""The config key table: list flags as overrides, field-named refusals, docs, fuzz."""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopqed.cli
import loopqed.ramsey
from loopqed.cli import KEYS, main

README = Path(__file__).resolve().parents[1] / "README.md"
FAST_IDEAL = dict(nmax_plus=2, mode="ideal", loop_time_ms=0.6)


def write_cfg(tmp_path, **overrides):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()), encoding="utf-8")
    return str(path)


def run(argv):
    """main(argv) in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def header(path):
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.startswith("#")]


# ---------------------------------------------------------------------------
# list flags are overrides of their rows


@pytest.mark.parametrize(
    "subcommand, flag, config, echo, csv_name",
    [
        ("alpha-sweep", "--alphas=0.1,0.2", FAST_IDEAL,
         "# alphas = 1.00000000000e-01,2.00000000000e-01", "alpha_sweep.csv"),
        ("adiabaticity", "--times=0.12", dict(nmax_plus=1, dt_ms=2e-4),
         "# time_ladder_ms = 1.20000000000e-01", "adiabaticity.csv"),
        ("dressed-phases", "--doublets=1,1", dict(dt_ms=6e-3),
         "# doublets = 1,1", "dressed_phases.csv"),
        # the space form gives the flag its value as the next argument
        ("alpha-sweep", "--alphas 0.1,0.2", FAST_IDEAL,
         "# alphas = 1.00000000000e-01,2.00000000000e-01", "alpha_sweep.csv"),
    ],
)
def test_list_flag_is_echoed_as_the_list_the_run_used(
    tmp_path, subcommand, flag, config, echo, csv_name
):
    cfg = write_cfg(tmp_path, **config)
    code, _, err = run([subcommand, "--config", cfg, "--out", str(tmp_path), *flag.split()])
    assert code == 0, err
    assert echo in header(tmp_path / csv_name)


@pytest.mark.parametrize(
    "subcommand, flag, key, value, message",
    [
        ("alpha-sweep", "--alphas", "alphas", "-0.1", "field 'alphas': amplitudes must be >= 0"),
        ("adiabaticity", "--times", "time_ladder_ms", "-1",
         "field 'time_ladder_ms': need positive loop times"),
        ("dressed-phases", "--doublets", "doublets", "2,-1",
         "field 'doublets': labels must be >= 0, got (2,-1)"),
    ],
)
def test_list_flag_is_checked_like_its_key(tmp_path, subcommand, flag, key, value, message):
    out = tmp_path / "out"
    by_flag = run([subcommand, "--config", write_cfg(tmp_path, **FAST_IDEAL),
                   "--out", str(out), f"{flag}={value}"])
    by_key = run([subcommand, "--config", write_cfg(tmp_path, **FAST_IDEAL, **{key: value}),
                  "--out", str(out)])
    assert by_flag[0] == by_key[0] == 1
    assert message in by_flag[2]
    assert by_flag[2] == by_key[2]
    assert not out.exists()


# ---------------------------------------------------------------------------
# every refusal names its field, before anything runs


@pytest.mark.parametrize(
    "subcommand, overrides, field, words",
    [
        # input that used to be silently ignored
        ("fringe", dict(loop_leg_times="1;2"), "loop_leg_times", "set without loop_knots"),
        ("fringe", dict(cavity="fock:1:2"), "cavity", "expected fock:N or coherent:ALPHA"),
        ("fringe", dict(cavity="coherent:1:2"), "cavity", "expected fock:N or coherent:ALPHA"),
        # loop errors of piecewise_path
        ("fringe", dict(loop_knots=f"{math.pi!r}:0;1.5:0;1.5:1;{math.pi!r}:1",
                        loop_leg_times="1;1;1"), "loop_knots", "not closed"),
        ("fringe", dict(loop_knots="0:0", loop_leg_times="1"), "loop_knots",
         "a path needs at least two knots"),
        ("fringe", dict(loop_knots="0:0;1:0;0:0", loop_leg_times="1"), "loop_leg_times",
         "3 knots need 2 leg durations, got 1"),
        ("fringe", dict(loop_knots="0:0;1:0;0:0", loop_leg_times="1;-1"), "loop_leg_times",
         "all leg durations must be positive"),
        ("fringe", dict(loop_knots="0:0;9:0;0:0", loop_leg_times="1;1"), "loop_knots",
         "theta = 9.0 outside [0, pi]"),
        ("dressed-phases", dict(loop_knots="0:0;9:0;0:0", loop_leg_times="1;1"), "loop_knots",
         "theta = 9.0 outside [0, pi]"),
        # a coherent field's tail beyond nmax_plus
        ("fringe", dict(cavity="coherent:3"), "cavity", "coherent state alpha=3.0"),
        ("adiabaticity", dict(cavity="coherent:3"), "cavity", "coherent state alpha=3.0"),
        # amplitudes whose square overflows
        ("fringe", dict(cavity="coherent:1e300"), "cavity", "tail mass 1.000e+00"),
        ("alpha-sweep", dict(alphas="0,1e300"), "alphas",
         "truncation inadequate for alpha = 1e+300"),
        # sizes that would not fit in memory
        ("fringe", dict(xi_points=10**12), "xi_points", "got 1000000000000"),
        ("fringe", dict(cavity="fock:-1"), "cavity", "must be >= 0"),
        ("fringe", dict(nmax_plus=10**9, mode="ideal"), "nmax_plus", "got 1000000000"),
        ("dressed-phases", dict(doublets="100000,0"), "doublets", "got (100000,0)"),
    ],
)
def test_exit_one_names_the_field(tmp_path, monkeypatch, subcommand, overrides, field, words):
    def refuse(*args, **kwargs):
        raise AssertionError("propagation started")

    # tail checks and config refusals all come before any propagation
    monkeypatch.setattr(loopqed.ramsey, "_evolve_loops", refuse)
    monkeypatch.setattr(loopqed.cli, "_branch_reading", refuse)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, **{**FAST_IDEAL, "mode": "full", **overrides})
    code, _, err = run([subcommand, "--config", cfg, "--out", str(out)])
    assert code == 1
    assert err.startswith(f"loopqed: validation error: field '{field}'")
    assert words in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the docs list the table's keys and defaults


def test_docstring_lists_every_key_with_its_default():
    lines = loopqed.cli.__doc__.splitlines()
    listed = [re.match(r"    (\w+) = (\S*)", ln) for ln in lines]
    assert [(m[1], m[2]) for m in listed if m] == [(key.name, key.default) for key in KEYS]


def test_readme_key_table_matches_the_table():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Config file"):text.index("## Library layout")]
    rows = re.findall(r"^\| `(\w+)` \| (`[^`]*`|empty) \|", section, flags=re.M)
    assert rows == [(key.name, f"`{key.default}`" if key.default else "empty") for key in KEYS]


# ---------------------------------------------------------------------------
# fuzz: every input ends in exit 0, 1 or 2, and a refusal names its field

# per key: valid texts (boundaries among them), then invalid ones.  nmax_plus
# stays <= 2, loops short and dt_ms coarse, and every extreme value is one
# refused before anything propagates
VALUES = {
    "g_khz": (["50.0", "60"], ["0", "-5", "1e300", "nan", "abc"]),
    "omega_khz": (["50.0", "40"], ["0", "inf", ""]),
    "delta_ratio": (["3.0", "0.5"], ["0", "-1", "x"]),
    "nmax_plus": (["1", "2"], ["0", "-1", "2.5", "1000000000"]),
    "tail_tol": (["1e-3", "0.5"], ["0", "-1e-3", "nan"]),
    "gamma": (["0", repr(math.pi), "12.56"], ["12.57", "-0.1"]),
    "loop_knots": (["", "0:0;1.0:0.5;1.0:2.5;0:3.0"],
                   ["0:0;9:0;0:0", f"{math.pi!r}:0;1:0;1:1;{math.pi!r}:1", "0:0", "0:0:0", "a:b"]),
    "loop_leg_times": (["", "0.1;0.2;0.1"], ["0.2;0.2", "1", "0.1;-0.2;0.1", "x"]),
    "loop_time_ms": (["0.3", "0.6"], ["0", "-1", "nan"]),
    "cavity": (["fock:0", "fock:1", "fock", "coherent:0.3"],
               ["coherent:1e300", "fock:-1", "fock:5", "fock:1:2", "coherent:", "squeezed:1"]),
    "xi_points": (["16", "33", "10000"], ["15", "10001", "1000000000000", "x"]),
    "mode": (["ideal", "full", "IDEAL"], ["magic"]),
    "dt_ms": (["0.05", "0.2"], ["1e-300", "0", "-1", "nan"]),
    "round_flips": (["true", "false"], ["maybe"]),
    "out_dir": (["runs", ""], []),
    "alphas": (["0", "0,0.1"], ["-0.1", "1e300", "", "0,nan"]),
    "time_ladder_ms": (["0.3", "0.3,0.6"], ["0", "-1", ""]),
    "doublets": (["0,0", "1,0;0,1"], ["0,-1", "100000,0", "", "1", "a,b"]),
    "branch": (["upper", "lower", "both"], ["sideways"]),
}
FLAGS = {"alpha-sweep": ("--alphas", "alphas"), "adiabaticity": ("--times", "time_ladder_ms"),
         "dressed-phases": ("--doublets", "doublets")}
NAMES = {key.name for key in KEYS}


@st.composite
def invocations(draw):
    """A subcommand and its config text: valid values (leg times matching the
    knots), up to two keys drawn from all their values, maybe the list flag."""
    subcommand = draw(st.sampled_from(["fringe", "alpha-sweep", "adiabaticity", "dressed-phases"]))
    values = {name: draw(st.sampled_from(valid)) for name, (valid, _) in VALUES.items()}
    values["loop_leg_times"] = "0.1;0.2;0.1" if values["loop_knots"] else ""
    for name in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=2, unique=True)):
        values[name] = draw(st.sampled_from(sum(VALUES[name], [])))
    flags = []
    if subcommand in FLAGS and draw(st.booleans()):
        flag, key = FLAGS[subcommand]
        flags.append(f"{flag}={draw(st.sampled_from(sum(VALUES[key], [])))}")
    return subcommand, "".join(f"{k} = {v}\n" for k, v in values.items()), flags


def test_fuzz_values_cover_every_key():
    assert list(VALUES) == [key.name for key in KEYS]


# fast random loops make transports that do not close; the warning is expected
@pytest.mark.filterwarnings("ignore::loopqed.phases.NonCyclicWarning")
@settings(max_examples=300)
@given(invocations())
def test_every_input_ends_in_a_known_exit_code(invocation):
    subcommand, text, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, _, err = run([subcommand, "--config", str(cfg), "--out", tmp, *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        named = re.search(r"field '(\w+)'", err)
        assert named and named[1] in NAMES, err
