"""Multiple non-overlapping tasks on one core (paper §4.1).

"Multiple non-overlapping tasks can be supported, though we only
considered one task in the applications we tested."  This runner
schedules several annotated tasks on the same simulated core: each task
releases jobs periodically (with an optional phase offset), jobs run to
completion in release order (non-preemptive FIFO — the tasks never
overlap), and each task brings its own governor, so two prediction-based
controllers trained on different programs coexist on one frequency
ladder.

Each stream runs on its own :class:`~repro.runtime.executor.TaskLoopRunner`
over the shared board, so a stream's jobs go through exactly the job
loop a single-task run uses (decision, switch, execution, feedback);
this module only decides which stream steps next.

Utilization-timer governors (interactive/ondemand) are per-CPU, not
per-task; this runner supports per-job policies only (performance,
powersave, pid, prediction, oracle) and rejects timer-driven ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.governors.base import Governor
from repro.platform.board import Board
from repro.programs.expr import Value
from repro.programs.interpreter import Interpreter
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.records import RunResult
from repro.runtime.task import Task
from repro.telemetry.energy import NO_ENERGY_LEDGER, EnergyLedger

__all__ = ["TaskStream", "MultiTaskRunner"]


@dataclass
class TaskStream:
    """One periodic task plus everything needed to run it.

    Attributes:
        task: The annotated task (budget doubles as the period).
        governor: Per-job DVFS policy for this task's jobs.
        inputs: Per-job inputs, in release order.
        offset_s: Release phase: job i arrives at ``offset + i * budget``.
            Offsetting streams by a fraction of the period keeps them
            naturally non-overlapping under light load.
    """

    task: Task
    governor: Governor
    inputs: Sequence[Mapping[str, Value]]
    offset_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError(f"stream {self.task.name!r} has no job inputs")
        if self.offset_s < 0:
            raise ValueError("offset must be non-negative")
        if self.governor.timer_period_s is not None:
            raise ValueError(
                "multi-task scheduling supports per-job governors only; "
                f"{self.governor.name!r} is utilization-timer driven"
            )

    def arrival_s(self, index: int) -> float:
        """Release time of this stream's ``index``-th job."""
        return self.offset_s + index * self.task.budget_s


class _InterleavedLedger:
    """One energy ledger shared by every stream's runner.

    Each runner opens its jobs with its own per-stream index; the ledger
    numbers jobs in the interleaved execution order across all streams
    instead, so no two streams' jobs share a ledger row.
    """

    def __init__(self, ledger: EnergyLedger):
        self._ledger = ledger
        self._jobs_run = 0

    def __getattr__(self, name: str):
        return getattr(self._ledger, name)

    def begin_job(self, index: int) -> None:
        self._ledger.begin_job(self._jobs_run)
        self._jobs_run += 1


class MultiTaskRunner:
    """Runs several task streams on one board, FIFO by release time."""

    def __init__(
        self,
        board: Board,
        streams: Sequence[TaskStream],
        interpreter: Interpreter | None = None,
        provide_oracle_work: bool = False,
        energy: EnergyLedger | None = None,
    ):
        if not streams:
            raise ValueError("need at least one task stream")
        names = [s.task.name for s in streams]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names: {names}")
        self.board = board
        self.streams = list(streams)
        self.interpreter = interpreter if interpreter is not None else Interpreter()
        self.provide_oracle_work = provide_oracle_work
        self.energy = energy if energy is not None else NO_ENERGY_LEDGER

    def run(self) -> dict[str, RunResult]:
        """Execute every stream's jobs; returns results keyed by task name.

        Every stream reports the whole board's energy (splitting idle
        energy between tasks is arbitrary) and its own switch count.
        """
        energy = (
            _InterleavedLedger(self.energy) if self.energy.enabled else None
        )
        runners = [
            TaskLoopRunner(
                board=self.board,
                task=s.task,
                governor=s.governor,
                inputs=s.inputs,
                interpreter=self.interpreter,
                provide_oracle_work=self.provide_oracle_work,
                arrivals=[s.arrival_s(i) for i in range(len(s.inputs))],
                energy=energy,
            )
            for s in self.streams
        ]
        # Every governor starts before the first release, on the board
        # state all the streams share.
        for runner in runners:
            runner.start()
        pending = runners
        while pending:
            # Earliest release first; FIFO among released jobs, ties in
            # stream order.
            min(pending, key=lambda r: r.next_arrival_s()).step()
            pending = [r for r in pending if r.jobs_remaining]
        return {r.task.name: r.result() for r in runners}
