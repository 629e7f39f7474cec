"""One repetition of one workload in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
pays the full set-up a user pays: interpreter start, imports, the
switch-time microbenchmark and every controller the workload trains.
(The module-level caches in ``repro.fleet.session`` and
``repro.ablation.runner`` would hide that cost on a second run in the
same process.)

Timeline of one repetition::

    spawned_at (parent clock) .. imports .. ready .. first job .. report rendered
    |<------------------- setup_s ----------------->|<----- eval_s ----->|
                                     |<------------ wall_s ------------->|

``wall_s`` starts after the imports, so a traced and an untraced
repetition time the same work and their ratio is the tracing overhead.

Prints one JSON line with the measurements, the output checks and the
digest.  Usage (normally only via ``run.py``)::

    python3 perfbench/child.py --workload paper-fig15 --seed 42 \
        --trace 0 --spawned-at <time.time() of the parent>
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

#: Simulated steps per timed segment (a few hundred milliseconds of work).
SEGMENT_STEPS = 200


class StepClock:
    """Times the simulated jobs from outside the program.

    Wraps ``TaskLoopRunner.step``.  Its first call marks the end of
    set-up; after that it notes the time at every ``every``-th call.  The
    program is deterministic, so segment ``k`` (the steps between two
    marks) does the same work in every repetition of one seed, and
    ``run.py`` can take a median per segment across repetitions.
    """

    def __init__(self, every: int) -> None:
        self.every = every
        self.first_at: float | None = None
        self.marks: list[float] = []

    def install(self) -> None:
        from repro.runtime.executor import TaskLoopRunner

        previous = TaskLoopRunner.step
        marks = self.marks
        every = self.every
        calls = 0

        def step(runner):
            nonlocal calls
            if calls % every == 0:
                if calls == 0:
                    self.first_at = time.time()
                marks.append(time.perf_counter())
            calls += 1
            return previous(runner)

        TaskLoopRunner.step = step


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    for module in workload.modules:
        importlib.import_module(module)
    if traced:
        spans.import_layers()
    importlib.import_module("repro.runtime.executor")

    ready = time.perf_counter()
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.begin()
        spans.install(tracer)
    capture = checks.RunCapture()
    capture.install()
    clock = StepClock(every=SEGMENT_STEPS)
    clock.install()

    row: dict = {"workload": workload.name, "seed": args.seed, "traced": traced}
    try:
        outcome = workload.run(args.seed, args.tiny)
        done = time.perf_counter()
        done_wall = time.time()
        if tracer is not None:
            tracer.finish()
    except Exception:  # noqa: BLE001 - the benchmark reports any failure
        row.update(ok=False, errors=[traceback.format_exc()])
        print(json.dumps(row))
        return 0

    errors = checks.check_runs(
        capture.runs, outcome.planned_jobs, workload.needs_ledger
    )
    if clock.first_at is None:
        errors.append("no simulated job ran")
        clock.first_at, clock.marks[:] = done_wall, [done]
    row.update(
        ok=not errors,
        errors=errors,
        planned_jobs=outcome.planned_jobs,
        jobs=capture.jobs,
        runs=len(capture.runs),
        digest=checks.digest_runs(capture.runs),
        energy_saving_pct=outcome.energy_saving_pct,
        miss_pct=outcome.miss_pct,
        report_chars=len(outcome.report),
        setup_s=clock.first_at - args.spawned_at,
        eval_s=done - clock.marks[0],
        # The last segment runs from the last mark to the rendered report.
        segments_s=[b - a for a, b in zip(clock.marks, clock.marks[1:] + [done])],
        segments=len(clock.marks),
        wall_s=done - ready,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        summary = spans.summarize(tracer)
        accounting_error = summary.accounting_error_s()
        if accounting_error > spans.ACCOUNTING_TOL_S:
            row["ok"] = False
            errors.append(
                f"self times + unattributed miss the traced wall time by "
                f"{accounting_error:.3e} s"
            )
        if summary.min_self_s < -spans.ACCOUNTING_TOL_S:
            row["ok"] = False
            errors.append(f"negative self time {summary.min_self_s!r} s")
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}.tsv"
        tracer.write_tsv(spans_file)
        row.update(
            layers=spans.layer_metrics(summary),
            trace_wall_s=summary.wall_s,
            self_s_by_span=summary.self_s,
            spans=len(tracer.name),
            spans_file=str(spans_file.relative_to(HERE.parent)),
        )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
