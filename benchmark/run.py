"""loopqed benchmark: run one workload for a fixed time and report its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each sample is one subcommand
invocation, `loopqed SUBCOMMAND --config CFG --out DIR`, in a fresh worker
process; the next starts only after the previous one ends.  BLAS threads
stay at the library default, which is what users get, and are recorded.

With --trace 0 the last stdout line carries the end-to-end metrics:
wall_s and cpu_s (median over the run's invocations that passed their
check), peak_rss_mb (median over all of them) and setup_s (median of the
fresh interpreters importing loopqed.cli and loading the config: three
that do only that, and every invocation's worker before it runs the
subcommand, so the samples spread over the run).  wall_s, cpu_s and
setup_s are paced: each raw time is scaled by the host's pace, timed
alongside on the same CPU (see REF_PACE_US); the raw figures are printed
next to them and kept in the results file.  With --trace 1
invocations alternate between traced and untraced, and the line carries
the per-layer metrics of the traced ones, the host probe and the tracing
overhead.  Every invocation's CSV is checked; a run that fails its check
counts in error_rate and stays in the statistics.

Outputs and a results file go to .bench_out/ under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from importlib.metadata import version
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, Inputs, check_output, make_inputs

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # dedicated ones; each invocation adds one more, spread over the run
# The host's pace: a fixed pure-Python loop timed every PACE_EVERY_S on the
# CPU the measured process last ran on, while it runs.  On the 2-vCPU VM the
# benchmark was defined on, each vCPU ran up to 1.6x slower in spells of
# seconds to minutes, and the two vCPUs' spells differ.  A timed interval is
# scaled to the pace REF_PACE_US, between the loop's fast (about 175 us) and
# slow (about 245 us) spells there:
#     paced = raw * mean(REF_PACE_US / pace) ** PACE_EXPONENT
# over the pace samples taken while it ran.  Over 156 invocations of the four
# workloads, log(raw wall) against log(mean pace) had slope 1.45-1.71 and
# correlation 0.87-0.98 on every workload: the program slows more than the
# loop, whose fastest of PACE_REPS timings misses part of a slow spell.
PACE_LOOP = 3000
PACE_REPS = 3
PACE_EVERY_S = 0.05
REF_PACE_US = 200.0
PACE_EXPONENT = 1.5
PACED = ("wall_s", "cpu_s", "setup_s")
DEADLINE_S = 170.0  # the whole run, set-up included, ends well inside 180 s
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# metric -> (unit, statistic over the run's samples).  "passed_median" is
# the median over invocations that passed their check.  Over 5 seeds of each
# workload, the per-run passed median of paced wall_s spread 2-4% (IQR /
# median), its fastest sample 3-7%, the fastest raw one 8-29%.
END_TO_END = {
    "wall_s": ("s", "passed_median"),
    "cpu_s": ("s", "passed_median"),
    "peak_rss_mb": ("MiB", "median"),
    "setup_s": ("s", "median"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": blas_name,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


@lru_cache(maxsize=1)
def _probe_matrix():
    import numpy

    rng = numpy.random.default_rng(20020416)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    return a + a.conj().T


def host_probe_us(reps: int = 31) -> float:
    """Median time of one fixed 30x30 Hermitian eigh, in microseconds."""
    import numpy

    a = _probe_matrix()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        numpy.linalg.eigh(a)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1000.0


def _pace_loop(n: int = PACE_LOOP) -> int:
    x = 0
    for i in range(n):
        x += i * i
    return x


def pace_us() -> float:
    """Least of a few timings of a fixed pure-Python loop, in microseconds."""
    best = None
    for _ in range(PACE_REPS):
        t0 = time.perf_counter_ns()
        _pace_loop()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None or dt < best else best
    return best / 1000.0


def wait_pacing(proc: subprocess.Popen, spawned: float, timeout: float) -> list[list[float]]:
    """Wait for proc, killing it at timeout; return [seconds since spawned, pace_us] samples."""
    deadline = time.perf_counter() + max(timeout, 1.0)
    paces = []
    home = os.sched_getaffinity(0)
    try:
        while proc.poll() is None:
            if time.perf_counter() > deadline:
                proc.kill()
                proc.wait()
                break
            cpu = _cpu_of(proc.pid)
            if cpu is not None and cpu in home:
                os.sched_setaffinity(0, {cpu})
            paces.append([time.perf_counter() - spawned, pace_us()])
            time.sleep(PACE_EVERY_S)
    finally:
        os.sched_setaffinity(0, home)
    return paces


def pace_factor(paces: list[list[float]], start: float, end: float) -> float:
    """mean(REF_PACE_US / pace) ** PACE_EXPONENT over the samples taken
    start..end s after spawn (all samples if none fell inside)."""
    inside = [us for t, us in paces if start <= t <= end] or [us for _, us in paces]
    return statistics.fmean(REF_PACE_US / us for us in inside) ** PACE_EXPONENT


def _cpu_of(pid: int) -> int | None:
    """The CPU a process last ran on, from /proc/PID/stat; None where unknown."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return int(fh.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def time_setup(config: Path, timeout: float) -> dict:
    """Seconds from spawning a fresh interpreter to loopqed.cli imported and
    config loaded: raw, and paced over the same interval."""
    cmd = [sys.executable, str(WORKER), "setup", repr(time.time()), str(config)]
    spawned = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, env=_worker_env()) as proc:
        paces = wait_pacing(proc, spawned, timeout)
        out, err = proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"set-up exit {proc.returncode}: cannot import loopqed.cli and "
                         f"load the config in time: {err.strip()}")
    raw = float(out)
    return {"raw": raw, "paced": raw * pace_factor(paces, 0.0, raw)}


def invoke(inputs: Inputs, config: Path, run_dir: Path, index: int, traced: bool,
           timeout: float) -> dict:
    """Run one subcommand invocation in a fresh worker and check its output."""
    wl = WORKLOADS[inputs.workload]
    inv_dir = run_dir / f"inv{index}"
    out_dir = inv_dir / "out"
    result_path = inv_dir / "worker.json"
    inv_dir.mkdir()
    record = {"index": index, "traced": traced, "probe_before_us": host_probe_us()}
    cmd = [sys.executable, str(WORKER), "run", repr(time.time()), str(config),
           wl.subcommand, str(out_dir), str(result_path)]
    if traced:
        cmd += [str(inv_dir / "spans.tsv"), str(index)]
    t0 = time.perf_counter()
    with open(inv_dir / "stdout.log", "w", encoding="utf-8") as log, subprocess.Popen(
        cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=_worker_env()
    ) as proc:
        paces = wait_pacing(proc, t0, timeout)
    record["duration_s"] = time.perf_counter() - t0
    record["probe_after_us"] = host_probe_us()
    record["worker_exit"] = proc.returncode
    record["pace_us"] = paces
    if result_path.exists():
        record.update(json.loads(result_path.read_text(encoding="utf-8")))
    if "wall_s" in record:
        setup, wall = record["setup_s"], record["wall_s"]
        run_factor = pace_factor(paces, setup, setup + wall)
        record["paced"] = {
            "setup_s": setup * pace_factor(paces, 0.0, setup),
            "wall_s": wall * run_factor,
            "cpu_s": record["cpu_s"] * run_factor,
        }
    try:
        if proc.returncode != 0 or record.get("exit_code") != 0:
            raise CheckFailed(
                f"worker exit {proc.returncode}, loopqed exit {record.get('exit_code')}"
            )
        record["phase_err_rad"] = check_output(inputs, str(out_dir / wl.csv_name))
        record["ok"], record["reason"] = True, None
    except (CheckFailed, OSError) as exc:
        record["ok"], record["reason"] = False, str(exc)
    return record


def _quartiles(values: list[float], passed: list[float] | None = None) -> dict:
    """Quartiles and count of every sample; best and passed_median are the
    least and the median of passed (default: all)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    passed = values if passed is None else passed
    return {"best": min(passed) if passed else None,
            "passed_median": statistics.median(passed) if passed else None,
            "min": min(values), "q1": q1, "median": med, "q3": q3, "n": len(values)}


def summarize(records: list[dict], setup: list[dict]) -> dict:
    """Statistics of one run, of paced times (stats) and raw ones (raw).
    Failed invocations stay in n, the quartiles and error_rate, but never
    in a run's best or passed median.

    setup holds the dedicated set-up samples ({"raw", "paced"}); every
    invocation adds its own.
    """
    plain = [r for r in records if not r["traced"]]
    stats, raw = {}, {}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        timed = [r for r in plain if r.get(key) is not None]
        if not timed:
            continue
        raw[key] = _quartiles([r[key] for r in timed], [r[key] for r in timed if r["ok"]])
        if key in PACED:
            stats[key] = _quartiles([r["paced"][key] for r in timed],
                                    [r["paced"][key] for r in timed if r["ok"]])
        else:
            stats[key] = raw[key]
    setups = setup + [
        {"raw": r["setup_s"], "paced": r["paced"]["setup_s"]} for r in records if "paced" in r
    ]
    stats["setup_s"] = _quartiles([s["paced"] for s in setups])
    raw["setup_s"] = _quartiles([s["raw"] for s in setups])
    errs = [r["phase_err_rad"] for r in records if r.get("phase_err_rad") is not None]
    failed = sum(not r["ok"] for r in records)
    return {
        "stats": stats,
        "raw": raw,
        "phase_err_rad": statistics.median(errs) if errs else None,
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "host_probe_us": _quartiles(
            [r[k] for r in records for k in ("probe_before_us", "probe_after_us")]
        ),
        "host_pace_us": _quartiles([us for r in records for _, us in r["pace_us"]]),
    }


def traced_metrics(records: list[dict], summary: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced invocations, plus overhead."""
    from tracing import LAYER_METRICS

    traced = [r for r in records if r["traced"] and "layers" in r]
    if not traced:
        raise BenchError("no traced invocation produced layer metrics")
    absent = sorted({name for r in traced for name in r["absent"]})
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = [r["layers"][name] for r in traced if r["layers"][name] is not None]
        value = statistics.median_low(values) if values else 0  # counts stay whole
        metrics[name] = {"value": value, "unit": unit}
    metrics["host.probe_us"] = {"value": summary["host_probe_us"]["median"], "unit": "us"}
    walls = {
        flag: [r["paced"]["wall_s"] for r in records if r["traced"] == flag and "paced" in r]
        for flag in (True, False)
    }
    overhead = pct = 0.0  # stays 0 only when a worker died before reporting
    if walls[True] and walls[False]:
        base = statistics.median(walls[False])
        overhead = statistics.median(walls[True]) - base
        pct = 100.0 * overhead / base
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": pct, "unit": "%"}
    return metrics, [m for m, (_, span) in LAYER_METRICS.items() if span in absent]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return (the result line's object, human-readable lines)."""
    started = time.perf_counter()
    if not (ROOT / "src" / "loopqed" / "cli.py").is_file():
        raise BenchError(f"no loopqed source under {ROOT / 'src'}")
    inputs = make_inputs(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "workload.cfg"
    config.write_text(inputs.config_text, encoding="utf-8")

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    time_setup(config, remaining())  # warm-up: byte-compiles a fresh checkout
    setup = [time_setup(config, remaining()) for _ in range(SETUP_SAMPLES)]

    records: list[dict] = []
    t_begin = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 0
        records.append(invoke(inputs, config, run_dir, len(records), traced, remaining()))
        durations = [r["duration_s"] for r in records]
        both_kinds = len(records) >= 2 or not trace
        if remaining() < max(durations) or (
            both_kinds and time.perf_counter() - t_begin + min(durations) > seconds
        ):
            break

    summary = summarize(records, setup)
    if trace:
        metrics, absent = traced_metrics(records, summary)
    else:
        metrics = {
            k: {"value": summary["stats"].get(k, {}).get(stat), "unit": unit}
            for k, (unit, stat) in END_TO_END.items()
        }
        absent = []
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    env = environment()
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "config": inputs.config_text, "setup_samples_s": setup,
        "summary": summary, "absent": absent, "records": records, "result": result,
    }
    results_path = run_dir / "results.json"
    results_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    if any(m["value"] is None for m in metrics.values()):
        raise BenchError(f"no invocation passed its check; see {results_path}")
    return result, _report_lines(report, results_path)


def _report_lines(report: dict, results_path: Path) -> list[str]:
    env, summary = report["environment"], report["summary"]
    lines = [
        f"loopqed benchmark: {report['workload']}, seed {report['seed']}, "
        f"{report['seconds']} s, trace {int(report['trace'])}",
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"blas {env['blas']}, blas thread env {env['blas_thread_env'] or 'unset'}, "
        f"nproc {env['nproc']}",
    ]
    for key, (unit, stat) in END_TO_END.items():
        s = summary["stats"].get(key)
        if s and s[stat] is not None:
            raw = summary["raw"][key]
            lines.append(
                f"  {key:<14} {s[stat]:.6g} {unit}  ({stat} of n = {s['n']}; min {s['min']:.6g}, "
                f"q1 {s['q1']:.6g}, median {s['median']:.6g}, q3 {s['q3']:.6g})"
                + (f"  raw {raw[stat]:.6g} {unit}" if key in PACED else "")
            )
    err = summary["phase_err_rad"]
    lines.append(f"  {'phase_err_rad':<14} {'none' if err is None else f'{err:.6g}'} rad")
    lines.append(
        f"  {'error_rate':<14} {summary['error_rate']:.6g} ratio  "
        f"({summary['failed']} of {summary['attempted']} runs failed)"
    )
    probe = summary["host_probe_us"]
    pace = summary["host_pace_us"]
    lines.append(
        f"  host.probe_us  {probe['median']:.6g} us  (q1 {probe['q1']:.6g}, q3 {probe['q3']:.6g})"
        f";  pace {pace['median']:.6g} us  (q1 {pace['q1']:.6g}, q3 {pace['q3']:.6g}, "
        f"reference {REF_PACE_US:g} us)"
    )
    for r in report["records"]:
        if not r["ok"]:
            lines.append(f"  run {r['index']} failed: {r['reason']}")
    if report["trace"]:
        for name, m in report["result"]["metrics"].items():
            shown = "absent" if name in report["absent"] else f"{m['value']:.6g} {m['unit']}"
            lines.append(f"  {name:<38} {shown}")
    lines.append(f"results: {results_path.relative_to(ROOT)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
