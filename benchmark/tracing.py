"""Outside-in tracing of loopqed for the benchmark's traced run.

The tracer wraps public functions the program calls, at every module that
binds them, and records one span per call: name, start, end, parent span
and run id.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time its direct child spans
cover.  Nothing inside loopqed is edited: a wrapper whose target no longer
exists reports its layer as absent.
"""

from __future__ import annotations

import importlib
import math
import sys
from array import array
from time import perf_counter_ns

# (span name, owning module, attribute path).  numpy.linalg and scipy.linalg
# are the modules the program calls its solvers through.
TARGETS = (
    ("dynamics.evolve", "loopqed.dynamics", "evolve"),
    ("model.dense", "loopqed.model", "HamiltonianFactory.dense"),
    ("model.factory", "loopqed.model", "HamiltonianFactory.__init__"),
    ("phases.transport", "loopqed.phases", "adiabatic_eigenstate_transport"),
    ("phases.ideal_phase_map", "loopqed.phases", "ideal_phase_map"),
    ("poincare_path.make_schedule", "loopqed.poincare_path", "make_schedule"),
    ("poincare_path.solid_angle", "loopqed.poincare_path", "solid_angle"),
    ("ramsey.run_experiment", "loopqed.ramsey", "run_experiment"),
    ("ramsey.prepare", "loopqed.ramsey", "prepare"),
    ("ramsey.fit_fringe", "loopqed.ramsey", "fit_fringe"),
    ("ramsey.close_and_detect", "loopqed.ramsey", "close_and_detect"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.expm", "scipy.linalg", "expm"),
)

# per-layer metric -> (unit, span it is derived from)
LAYER_METRICS = {
    "dynamics.evolve.calls": ("count", "dynamics.evolve"),
    "dynamics.evolve.s": ("s", "dynamics.evolve"),
    "dynamics.evolve.self_s": ("s", "dynamics.evolve"),
    "dynamics.steps": ("count", "dynamics.evolve"),
    "dynamics.step_us": ("us", "dynamics.evolve"),
    "dynamics.max_norm_drift": ("1", "dynamics.evolve"),
    "linalg.eigh.calls": ("count", "linalg.eigh"),
    "linalg.eigh.s": ("s", "linalg.eigh"),
    "linalg.eigh.work_n3": ("n3.computed", "linalg.eigh"),
    "linalg.eigh.dim_max": ("dim", "linalg.eigh"),
    "linalg.expm.calls": ("count", "linalg.expm"),
    "linalg.expm.s": ("s", "linalg.expm"),
    "model.dense.calls": ("count", "model.dense"),
    "model.dense.s": ("s", "model.dense"),
    "model.factory.calls": ("count", "model.factory"),
    "model.factory.s": ("s", "model.factory"),
    "phases.transport.calls": ("count", "phases.transport"),
    "phases.transport.self_s": ("s", "phases.transport"),
    "phases.gap.eigvalsh_calls": ("count", "linalg.eigvalsh"),
    "phases.gap.s": ("s", "linalg.eigvalsh"),
    "phases.ideal_phase_map.calls": ("count", "phases.ideal_phase_map"),
    "phases.ideal_phase_map.s": ("s", "phases.ideal_phase_map"),
    "poincare_path.make_schedule.calls": ("count", "poincare_path.make_schedule"),
    "poincare_path.make_schedule.s": ("s", "poincare_path.make_schedule"),
    "poincare_path.make_schedule.samples": ("count", "poincare_path.make_schedule"),
    "poincare_path.solid_angle.calls": ("count", "poincare_path.solid_angle"),
    "poincare_path.solid_angle.s": ("s", "poincare_path.solid_angle"),
    "ramsey.run_experiment.calls": ("count", "ramsey.run_experiment"),
    "ramsey.run_experiment.self_s": ("s", "ramsey.run_experiment"),
    "ramsey.prepare.s": ("s", "ramsey.prepare"),
    "ramsey.fit_fringe.calls": ("count", "ramsey.fit_fringe"),
    "ramsey.fit_fringe.s": ("s", "ramsey.fit_fringe"),
    "ramsey.close_and_detect.calls": ("count", "ramsey.close_and_detect"),
    "ramsey.close_and_detect.s": ("s", "ramsey.close_and_detect"),
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value), or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """In-memory span recorder that wraps the TARGETS of one run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.steps = 0
        self.max_norm_drift = 0.0
        self.samples = 0
        self.work_n3 = 0
        self.dim_max = 0
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        stack, child_ns = self._stack, self._child_ns
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            stack.append(idx)
            child_ns.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                covered = child_ns.pop()
                span_start[idx] = t0
                span_end[idx] = t1
                calls[nid] += 1
                total_ns[nid] += t1 - t0
                self_ns[nid] += t1 - t0 - covered
                if child_ns:
                    child_ns[-1] += t1 - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # post-call hooks that read work counts off arguments and results
    def _after_evolve(self, args, kwargs, traj):
        stats = traj.step_stats
        self.steps += int(stats.get("steps", 0))
        self.max_norm_drift = max(self.max_norm_drift, float(stats.get("max_norm_drift", 0.0)))

    def _after_schedule(self, args, kwargs, schedule):
        self.samples += int(schedule.times.size)

    def _after_eigh(self, args, kwargs, result):
        shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
        if len(shape) >= 2:
            n = int(shape[-1])
            self.work_n3 += math.prod(shape[:-2]) * n**3
            self.dim_max = max(self.dim_max, n)

    def install(self) -> list[str]:
        """Wrap every target; return the span names that were absent."""
        hooks = {
            "dynamics.evolve": self._after_evolve,
            "poincare_path.make_schedule": self._after_schedule,
            "linalg.eigh": self._after_eigh,
        }
        found = set()
        for name, module_name, path in TARGETS:
            self._name_id(name)
            target = _resolve(module_name, path)
            if target is None:
                continue
            owner, attr, original = target
            wrapper = self._wrap(name, original, hooks.get(name))
            owners = [(owner, attr)]
            # every loopqed module that bound the same object by import
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "loopqed" or mod_name.startswith("loopqed.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        owners.append((mod, key))
            for obj, key in owners:
                self._patches.append((obj, key, getattr(obj, key)))
                setattr(obj, key, wrapper)
            found.add(name)
        return sorted({name for name, _, _ in TARGETS} - found)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def layer_metrics(self, absent: list[str]) -> dict[str, float | None]:
        """Per-layer metrics of the traced run; None marks an absent layer."""

        def stat(span: str, kind: str):
            nid = self._ids[span]
            if kind == "calls":
                return self.calls[nid]
            ns = self.total_ns[nid] if kind == "s" else self.self_ns[nid]
            return ns * 1e-9

        evolve_s = stat("dynamics.evolve", "s")
        derived = {
            "dynamics.steps": self.steps,
            "dynamics.step_us": evolve_s / self.steps * 1e6 if self.steps else 0.0,
            "dynamics.max_norm_drift": self.max_norm_drift,
            "linalg.eigh.work_n3": self.work_n3,
            "linalg.eigh.dim_max": self.dim_max,
            "phases.gap.eigvalsh_calls": stat("linalg.eigvalsh", "calls"),
            "phases.gap.s": stat("linalg.eigvalsh", "s"),
            "poincare_path.make_schedule.samples": self.samples,
        }
        out: dict[str, float | None] = {}
        for metric, (_, span) in LAYER_METRICS.items():
            if span in absent:
                out[metric] = None
            elif metric in derived:
                out[metric] = derived[metric]
            else:
                out[metric] = stat(span, metric.rsplit(".", 1)[1])
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated row; times in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for idx, nid in enumerate(self.span_name):
                fh.write(
                    f"{self.run_id}\t{idx}\t{self.span_parent[idx]}\t{self.names[nid]}\t"
                    f"{self.span_start[idx]}\t{self.span_end[idx]}\n"
                )
