"""The traced run: spans around calls into each layer's public functions.

The benchmark measures the program from outside.  :func:`install`
replaces each function in :data:`LAYERS` with a wrapper that records a
span (name, start, end, parent span, job id); nothing under ``src/``
changes.  A function that another module imported by name is replaced
there too, because the caller looks it up in its own namespace.

Spans are kept in memory in flat arrays and written out when the run
ends.  A span's *self time* is its duration minus the time its child
spans cover; self times plus the time no span covers add up to the
traced wall time (:meth:`Summary.accounting_error_s`).
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "LAYERS",
    "PER_LAYER",
    "Summary",
    "Tracer",
    "install",
    "layer_metrics",
    "summarize",
]

#: Raw span name of every task-program interpretation; the summary
#: renames it after the nearest enclosing context (:data:`INTERP_CONTEXT`).
INTERP = "programs.interp"

#: (span name, module, attribute path) of every wrapped function.
#: ``governors.decide`` and ``governors.on_timer`` are expanded to every
#: governor class that defines the method (:func:`_governor_targets`).
LAYERS: tuple[tuple[str, str, str], ...] = (
    (INTERP, "repro.programs.interpreter", "Interpreter.execute"),
    (INTERP, "repro.programs.interpreter", "Interpreter.execute_isolated"),
    ("programs.slicer", "repro.programs.slicer", "Slicer.slice"),
    ("programs.certify", "repro.programs.analysis.certify", "certify_slice"),
    ("features.profile", "repro.features.profiler", "Profiler.profile"),
    ("features.encode", "repro.features.encoding", "FeatureEncoder.encode"),
    (
        "features.encode",
        "repro.features.encoding",
        "FeatureEncoder.encode_matrix",
    ),
    ("models.solver", "repro.models.solver", "solve_asymmetric_lasso"),
    ("models.predict", "repro.models.timing", "ExecutionTimePredictor.predict"),
    (
        "models.predict",
        "repro.models.timing",
        "ExecutionTimePredictor.predict_raw",
    ),
    ("models.predict", "repro.online.predictor", "OnlineTimePredictor.predict"),
    (
        "models.predict",
        "repro.online.predictor",
        "OnlineTimePredictor.predict_raw",
    ),
    ("governors.analyze", "repro.governors.predictive", "PredictiveGovernor.analyze"),
    ("governors.choose", "repro.governors.predictive", "PredictiveGovernor.choose"),
    ("online.on_job_end", "repro.governors.adaptive", "AdaptiveGovernor.on_job_end"),
    ("platform.board", "repro.platform.board", "Board.busy_run"),
    ("platform.board", "repro.platform.board", "Board.idle_until"),
    ("platform.board", "repro.platform.board", "Board.set_frequency"),
    (
        "platform.switch_bench",
        "repro.platform.switching",
        "SwitchLatencyModel.microbenchmark",
    ),
    ("runtime.step", "repro.runtime.executor", "TaskLoopRunner.step"),
    ("telemetry.provenance", "repro.telemetry.provenance", "build_provenance"),
    ("telemetry.job_energy", "repro.telemetry.energy", "EnergyLedger.job_energy_j"),
    ("telemetry.energy_observe", "repro.telemetry.energy", "EnergyLedger.observe"),
    ("telemetry.slo_observe", "repro.telemetry.slo", "SloTracker.observe"),
    ("fleet.session_init", "repro.fleet.session", "Session.__init__"),
    ("fleet.session_step", "repro.fleet.session", "Session.step"),
    ("fleet.shard", "repro.fleet.shard", "run_shard"),
    ("fleet.aggregate", "repro.fleet.aggregate", "aggregate_fleet"),
    ("ablation.cell", "repro.ablation.runner", "run_cell"),
    ("ablation.score", "repro.ablation.score", "score_ablation"),
    ("ablation.emit", "repro.ablation.emit", "write_artifacts"),
    ("pipeline.build", "repro.pipeline.offline", "build_controller"),
)

#: Modules whose ``Governor`` subclasses get ``decide``/``on_timer`` spans.
GOVERNOR_MODULES = (
    "repro.governors.adaptive",
    "repro.governors.batch",
    "repro.governors.conservative",
    "repro.governors.interactive",
    "repro.governors.ondemand",
    "repro.governors.oracle",
    "repro.governors.performance",
    "repro.governors.pid",
    "repro.governors.powersave",
    "repro.governors.predictive",
)

#: Nearest enclosing span -> name of an interpretation under it.  A slice
#: runs under the governor's decision; a profile run under the offline
#: profiler; the job's own program directly under the executor's step.
INTERP_CONTEXT = {
    "governors.analyze": "programs.slice_interp",
    "governors.decide": "programs.slice_interp",
    "online.on_job_end": "programs.feedback_interp",
    "features.profile": "programs.profile_interp",
    "runtime.step": "programs.task_interp",
}
OTHER_INTERP = "programs.other_interp"

#: Largest gap allowed between the traced wall time and the sum of all
#: self times plus the unattributed time (float rounding only).
ACCOUNTING_TOL_S = 1e-6

#: Per-layer metrics: (name, unit, better).  ``<span>.self_s`` and
#: ``<span>.calls`` are read off the span summary; the rest are derived
#: in :func:`layer_metrics`.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("programs.task_runs_per_job", "runs/job", "lower"),
    ("programs.task_interp.self_s", "s", "lower"),
    ("programs.slice_interp.calls", "count", "lower"),
    ("programs.slice_interp.self_s", "s", "lower"),
    ("programs.profile_interp.self_s", "s", "lower"),
    ("programs.slicer.self_s", "s", "lower"),
    ("programs.certify.self_s", "s", "lower"),
    ("features.encode.calls", "count", "lower"),
    ("features.encode.self_s", "s", "lower"),
    ("models.solver.calls", "count", "lower"),
    ("models.solver.iters", "count", "lower"),
    ("models.solver.converged_frac", "ratio", "higher"),
    ("models.solver.self_s", "s", "lower"),
    ("models.predict.calls", "count", "lower"),
    ("models.predict.self_s", "s", "lower"),
    ("governors.decide.self_s", "s", "lower"),
    ("governors.choose.self_s", "s", "lower"),
    ("governors.on_timer.calls", "count", "lower"),
    ("online.on_job_end.calls", "count", "lower"),
    ("online.on_job_end.self_s", "s", "lower"),
    ("platform.board.calls", "count", "lower"),
    ("platform.board.self_s", "s", "lower"),
    ("platform.switch_bench.self_s", "s", "lower"),
    ("runtime.jobs", "count", "higher"),
    ("runtime.step.self_s", "s", "lower"),
    ("telemetry.provenance.calls", "count", "lower"),
    ("telemetry.provenance.self_s", "s", "lower"),
    ("telemetry.job_energy.calls", "count", "lower"),
    ("telemetry.job_energy.self_s", "s", "lower"),
    ("telemetry.energy_observe.calls", "count", "lower"),
    ("telemetry.energy_observe.self_s", "s", "lower"),
    ("telemetry.slo_observe.self_s", "s", "lower"),
    ("fleet.session_init.calls", "count", "lower"),
    ("fleet.session_init.self_s", "s", "lower"),
    ("fleet.shard.self_s", "s", "lower"),
    ("fleet.aggregate.self_s", "s", "lower"),
    ("ablation.cell.self_s", "s", "lower"),
    ("ablation.score.self_s", "s", "lower"),
    ("pipeline.build.calls", "count", "lower"),
    ("pipeline.build.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

#: Per-layer metrics that are counts of work: identical on every run of
#: one commit and seed, so any difference between runs is flagged.
COUNT_METRICS = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "runs/job") or name == "models.solver.converged_frac"
)


class Tracer:
    """Spans in flat arrays: name id, start, end, parent index, job id.

    ``open``/``close`` are the whole per-call cost; everything else runs
    after the traced window.  Spans nest strictly (a wrapper closes its
    span in ``finally``), so the open-span stack gives each new span its
    parent.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        #: Index of the job the executor is stepping, -1 outside a step.
        self.job_id = -1
        self.steps = 0
        #: Work counters read off return values (solver iterations, jobs).
        self.counts: Counter = Counter()
        self.began = math.nan
        self.ended = math.nan

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self) -> None:
        self.began = self.clock()

    def finish(self) -> None:
        self.ended = self.clock()

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self.stack.pop()

    def write_tsv(self, path: Path) -> None:
        """All spans, one line each, times relative to :meth:`begin`."""
        with open(path, "w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - self.began:.9f}\t"
                    f"{self.end[i] - self.began:.9f}\t"
                    f"{self.parent[i]}\t{self.job[i]}\n"
                )


def _wrap(fn, tracer: Tracer, name: str):
    name_id = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    if name == "runtime.step":

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.job_id = tracer.steps
            tracer.steps += 1
            index = open_(name_id)
            try:
                record = fn(*args, **kwargs)
            finally:
                close(index)
                tracer.job_id = -1
            if record is not None:
                tracer.counts["runtime.jobs"] += 1
            return record

    elif name == "models.solver":

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            tracer.counts["models.solver.iters"] += result.n_iter
            tracer.counts["models.solver.converged"] += int(result.converged)
            return result

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

    return traced


def _governor_targets() -> list[tuple[str, object, str]]:
    from repro.governors.base import Governor

    for module in GOVERNOR_MODULES:
        importlib.import_module(module)
    targets = []
    pending = list(Governor.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method in ("decide", "on_timer"):
            if method in vars(cls):
                targets.append((f"governors.{method}", cls, method))
    return targets


def import_layers() -> None:
    """Import every module :func:`install` wraps (outside any timing)."""
    for _, module, _ in LAYERS:
        importlib.import_module(module)
    _governor_targets()


def install(tracer: Tracer) -> None:
    """Wrap every layer function.

    Classes are patched in place, so instances made later (and
    subclasses that inherit the method) go through the wrapper.  A
    module-level function is replaced in its own module and in every
    loaded ``repro`` module that holds it under any name.
    """
    targets: list[tuple[str, object, str]] = []
    for name, module, path in LAYERS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        targets.append((name, owner, attr))
    targets.extend(_governor_targets())

    for name, owner, attr in targets:
        original = vars(owner)[attr]
        traced = _wrap(original, tracer, name)
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


@dataclass
class Summary:
    """Per-span-name totals of one traced run.

    Attributes:
        wall_s: Traced wall time, from :meth:`Tracer.begin` to
            :meth:`Tracer.finish`.
        self_s: Span name -> summed self time.
        calls: Span name -> entries into the layer (spans whose parent
            is not a span of the same name).
        covered_s: Time covered by top-level spans.
        min_self_s: Smallest self time of any span (negative only if a
            child outlived its parent, which the nesting rules out).
        counts: The tracer's work counters.
    """

    wall_s: float
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    covered_s: float = 0.0
    min_self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def unattributed_s(self) -> float:
        """Wall time that no span covers."""
        return self.wall_s - self.covered_s

    def accounting_error_s(self) -> float:
        """``|sum(self times) + unattributed - wall|``; ~0 by construction."""
        total = math.fsum(self.self_s.values()) + self.unattributed_s
        return abs(total - self.wall_s)


def summarize(tracer: Tracer) -> Summary:
    """Self times and call counts per span name."""
    n = len(tracer.name)
    names = tracer.names
    parent, start, end = tracer.parent, tracer.start, tracer.end
    resolved: list[str] = [""] * n
    context: list[str | None] = [None] * n
    child_s = [0.0] * n
    covered = []
    for i in range(n):
        # A parent opens before its children, so it is already resolved.
        p = parent[i]
        name = names[tracer.name[i]]
        outer = context[p] if p >= 0 else None
        if name == INTERP:
            name = INTERP_CONTEXT.get(outer, OTHER_INTERP)
        resolved[i] = name
        context[i] = name if name in INTERP_CONTEXT else outer
        duration = end[i] - start[i]
        if p >= 0:
            child_s[p] += duration
        else:
            covered.append(duration)

    self_s: dict[str, list[float]] = {}
    calls: Counter = Counter()
    min_self = 0.0
    for i in range(n):
        own = end[i] - start[i] - child_s[i]
        min_self = min(min_self, own)
        self_s.setdefault(resolved[i], []).append(own)
        p = parent[i]
        if p < 0 or resolved[p] != resolved[i]:
            calls[resolved[i]] += 1
    return Summary(
        wall_s=tracer.ended - tracer.began,
        self_s={name: math.fsum(v) for name, v in self_s.items()},
        calls=dict(calls),
        covered_s=math.fsum(covered),
        min_self_s=min_self,
        counts=dict(tracer.counts),
    )


def layer_metrics(summary: Summary) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_frac``,
    which needs an untraced run to compare against.  A layer the
    workload never entered reads 0."""
    jobs = summary.counts.get("runtime.jobs", 0)
    solver_calls = summary.calls.get("models.solver", 0)
    derived = {
        "programs.task_runs_per_job": (
            summary.calls.get("programs.task_interp", 0) / jobs if jobs else 0.0
        ),
        "models.solver.iters": summary.counts.get("models.solver.iters", 0),
        "models.solver.converged_frac": (
            summary.counts.get("models.solver.converged", 0) / solver_calls
            if solver_calls
            else 0.0
        ),
        "runtime.jobs": jobs,
        "trace.unattributed_s": summary.unattributed_s,
    }
    metrics: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".self_s"):
            metrics[name] = summary.self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            metrics[name] = summary.calls.get(name[: -len(".calls")], 0)
    return metrics
