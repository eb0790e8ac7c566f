"""One workload process: import loopqed, load the config, run one subcommand.

    worker.py setup SPAWNED CONFIG
        Import loopqed.cli from the checkout's src/, load CONFIG and print
        the set-up time: seconds since SPAWNED, the caller's time.time()
        just before it started this interpreter.
    worker.py run SPAWNED CONFIG SUBCOMMAND OUT RESULT [SPANS RUN_ID]
        The same set-up, then `loopqed SUBCOMMAND --config CONFIG --out OUT`
        through loopqed.cli.main.  Writes set-up time, wall time, CPU time
        and peak RSS of this process as JSON to RESULT.  With SPANS, traces
        the run, adds per-layer metrics to RESULT and writes every span to
        SPANS.
"""

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _load(config_path: str):
    from loopqed import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"worker: loopqed imported from {cli.__file__}, not from {SRC}")
    cli.load_config(config_path)
    return cli


def run(cli, config: str, subcommand: str, out: str, record: dict,
        spans_path: str | None, run_id: int) -> dict:
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer(run_id)
        absent = tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        record["exit_code"] = cli.main([subcommand, "--config", config, "--out", out])
    except Exception as exc:  # an uncaught crash is a failed run, still measured
        record["exit_code"], record["error"] = 70, repr(exc)
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - cpu0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics(absent)
        record["absent"] = absent
        tracer.write_spans(spans_path)
    return record


def main(argv: list[str]) -> None:
    mode, spawned, config = argv[0], float(argv[1]), argv[2]
    cli = _load(config)
    setup_s = time.time() - spawned
    if mode == "setup":
        print(repr(setup_s), flush=True)
        return
    subcommand, out, result_path = argv[3:6]
    spans_path = argv[6] if len(argv) > 6 else None
    run_id = int(argv[7]) if len(argv) > 7 else 0
    record = run(cli, config, subcommand, out, {"setup_s": setup_s}, spans_path, run_id)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
