"""Self-tests of the benchmark harness, on shortened configs (a few seconds).

    PYTHONPATH=src python3 -m pytest -q benchmark/tests
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import GAMMA_RANGE, CheckFailed, Inputs, check_output, make_inputs  # noqa: E402

# 2 000 steps per arm instead of 20 000: same code paths, a tenth of the work
SHORT = {
    "vacuum-fringe": "dt_ms = 0.003\n",
    "dressed-doublets": "doublets = 0,0;1,0\ndt_ms = 0.003\n",
}
COUNT_UNITS = {"count", "dim", "n3.computed"}


def _short(tmp_path: Path, workload: str) -> tuple[Inputs, Path]:
    inputs = Inputs(workload, 0, math.pi, (), SHORT[workload])
    config = tmp_path / f"{workload}.cfg"
    config.write_text(inputs.config_text, encoding="utf-8")
    return inputs, config


def _invoke(tmp_path, workload, index, traced):
    inputs, config = _short(tmp_path, workload)
    record = bench.invoke(inputs, config, tmp_path, index, traced, timeout=120)
    assert record["ok"], record["reason"]
    return record


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_traced_and_untraced_csvs_are_byte_identical(tmp_path, workload):
    _invoke(tmp_path, workload, 0, traced=False)
    _invoke(tmp_path, workload, 1, traced=True)
    csvs = [sorted((tmp_path / f"inv{i}" / "out").glob("*.csv")) for i in (0, 1)]
    assert len(csvs[0]) == 1
    assert csvs[0][0].read_bytes() == csvs[1][0].read_bytes()


def test_two_traced_runs_give_identical_counts(tmp_path):
    runs = [_invoke(tmp_path, "dressed-doublets", i, traced=True) for i in (0, 1)]
    counts = [
        {k: r["layers"][k] for k, (unit, _) in tracing.LAYER_METRICS.items() if unit in COUNT_UNITS}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.eigh.calls"] == 4 * 2000 + 4
    assert (tmp_path / "inv0" / "spans.tsv").stat().st_size > 0


def test_corrupted_output_counts_in_error_rate(tmp_path, monkeypatch):
    good = _invoke(tmp_path, "vacuum-fringe", 0, traced=False)
    real_check = bench.check_output

    def corrupt_then_check(inputs, csv_path):
        text = Path(csv_path).read_text(encoding="utf-8")
        Path(csv_path).write_text(text.rsplit(",", 1)[0] + ",nan\n", encoding="utf-8")
        return real_check(inputs, csv_path)

    monkeypatch.setattr(bench, "check_output", corrupt_then_check)
    inputs, config = _short(tmp_path, "vacuum-fringe")
    bad = bench.invoke(inputs, config, tmp_path, 1, False, timeout=120)
    assert not bad["ok"] and "not finite" in bad["reason"]
    summary = bench.summarize([good, bad], setup=[{"raw": 0.5, "paced": 0.5}])
    assert (summary["attempted"], summary["failed"], summary["error_rate"]) == (2, 1, 0.5)
    assert summary["stats"]["wall_s"]["n"] == 2  # the failed run stays in the statistics


def test_failed_run_is_never_the_best_time():
    times = {"wall_s": 3.0, "cpu_s": 5.0, "setup_s": 0.5}
    passed = {"traced": False, "ok": True, "peak_rss_mb": 64.0, "paced": times,
              "probe_before_us": 120.0, "probe_after_us": 130.0, "pace_us": [[0.1, 200.0]],
              **times}
    tiny = {"wall_s": 0.01, "cpu_s": 0.01, "setup_s": 0.5}
    died = dict(passed, ok=False, peak_rss_mb=20.0, paced=tiny, **tiny)
    setup = [{"raw": 0.6, "paced": 0.6}]
    summary = bench.summarize([passed, died], setup)
    for stats in (summary["stats"], summary["raw"]):
        wall = stats["wall_s"]
        assert (wall["n"], wall["min"], wall["best"], wall["passed_median"]) == (2, 0.01, 3.0, 3.0)
        assert stats["cpu_s"]["best"] == 5.0
        assert stats["setup_s"]["best"] == 0.5
    assert summary["error_rate"] == 0.5
    assert bench.summarize([died], setup)["stats"]["wall_s"]["best"] is None


def test_pace_factor_uses_the_samples_inside_the_interval():
    paces = [[0.1, 100.0], [0.6, 400.0], [1.1, 400.0]]
    k = bench.PACE_EXPONENT
    assert bench.pace_factor(paces, 0.0, 0.5) == pytest.approx((bench.REF_PACE_US / 100.0) ** k)
    assert bench.pace_factor(paces, 0.5, 1.2) == pytest.approx((bench.REF_PACE_US / 400.0) ** k)
    every = (bench.REF_PACE_US / 100.0 + 2 * bench.REF_PACE_US / 400.0) / 3
    assert bench.pace_factor(paces, 2.0, 3.0) == pytest.approx(every**k)


@pytest.mark.parametrize(
    "old, new",
    [
        ("# flags = none", "# flags = non-cyclic"),
        ("xi_rad,p2_loop,p2_caliber", "xi_rad,p2_loop"),
        ("# fitted_shift_rad = ", "# fitted_shift_rad = 1"),
    ],
)
def test_check_rejects_malformed_fringe(tmp_path, old, new):
    _invoke(tmp_path, "vacuum-fringe", 0, traced=False)
    path = tmp_path / "inv0" / "out" / "fringe.csv"
    inputs = Inputs("vacuum-fringe", 0, math.pi, (), "")
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(CheckFailed):
        check_output(inputs, str(path))


def test_seeded_inputs():
    assert make_inputs("vacuum-fringe", 0).gamma == math.pi
    assert "gamma" not in make_inputs("vacuum-fringe", 0).config_text
    ideal = make_inputs("ideal-crossover", 0)
    assert ideal.alphas[0] == 0.0 and ideal.alphas[-1] == 2.5 and len(ideal.alphas) == 251
    for seed in range(1, 20):
        inputs = make_inputs("dressed-doublets", seed)
        assert inputs == make_inputs("dressed-doublets", seed)
        assert GAMMA_RANGE[0] <= inputs.gamma <= GAMMA_RANGE[1]
        assert make_inputs("ideal-crossover", seed).alphas[0] > 0.0
    for name in bench.WORKLOADS:
        text = make_inputs(name, 7).config_text
        keys = {line.split("=")[0].strip() for line in text.splitlines() if "=" in line}
        assert "seed" not in keys


def test_missing_hook_target_is_reported_absent(monkeypatch):
    import loopqed.phases
    import numpy

    original_eigh = numpy.linalg.eigh
    monkeypatch.delattr(loopqed.phases, "adiabatic_eigenstate_transport")
    tracer = tracing.Tracer(run_id=0)
    absent = tracer.install()
    try:
        assert absent == ["phases.transport"]
        numpy.linalg.eigh(numpy.eye(3))
    finally:
        tracer.uninstall()
    assert numpy.linalg.eigh is original_eigh
    metrics = tracer.layer_metrics(absent)
    assert metrics["phases.transport.calls"] is None
    assert metrics["linalg.eigh.calls"] == 1 and metrics["linalg.eigh.work_n3"] == 27


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "vacuum-fringe",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
