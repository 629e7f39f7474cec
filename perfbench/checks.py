"""Output checks and the per-run digest.

Every simulated run ends in ``TaskLoopRunner.result()``: the Lab's runs,
each fleet session, each ablation cell.  :class:`RunCapture` wraps that
one method and keeps what it returns, so the checks see every job a
workload simulated without the workload code having to hand them over.
The checks run after the timed window closes.
"""

from __future__ import annotations

import hashlib
import json
import math

__all__ = ["RunCapture", "JOB_FIELDS", "check_runs", "digest_runs"]

#: JobRecord fields the digest covers, pinned here so that a field added
#: to the record later does not change the digest of the same outcome.
JOB_FIELDS = (
    "index",
    "arrival_s",
    "start_s",
    "end_s",
    "deadline_s",
    "opp_mhz",
    "exec_time_s",
    "predictor_time_s",
    "switch_time_s",
    "predicted_time_s",
    "adaptation_time_s",
)

#: Response time must equal queue wait + predict + switch + execute to
#: this many seconds; the parts are sums of the same board-time steps.
RESPONSE_TOL_S = 1e-9

#: ``energy_by_tag`` must sum to ``energy_j``, and an energy ledger must
#: match its board, to this many joules (the ledger's own tolerance).
ENERGY_TOL_J = 1e-9


class RunCapture:
    """Collects ``(RunResult, ledger conservation error or None)`` pairs."""

    def __init__(self) -> None:
        self.runs: list[tuple[object, float | None]] = []

    def install(self) -> None:
        """Wrap ``TaskLoopRunner.result`` for the rest of the process."""
        from repro.runtime.executor import TaskLoopRunner

        original = TaskLoopRunner.result

        def result(runner):
            run = original(runner)
            error = None
            if runner.energy.enabled:
                error = runner.energy.conservation_error_j(
                    runner.board.energy_j()
                )
            self.runs.append((run, error))
            return run

        TaskLoopRunner.result = result

    @property
    def jobs(self) -> int:
        return sum(run.n_jobs for run, _ in self.runs)


def check_runs(
    runs: list[tuple[object, float | None]],
    planned_jobs: int,
    needs_ledger: bool,
) -> list[str]:
    """Every failed output check, as one message each (empty when clean)."""
    errors: list[str] = []
    jobs = sum(run.n_jobs for run, _ in runs)
    if jobs != planned_jobs:
        errors.append(f"ran {jobs} jobs, planned {planned_jobs}")
    for run, ledger_error in runs:
        where = f"{run.app}/{run.governor}"
        for job in run.jobs:
            parts = (
                (job.start_s - job.arrival_s)
                + job.predictor_time_s
                + job.switch_time_s
                + job.exec_time_s
            )
            if abs(job.response_time_s - parts) > RESPONSE_TOL_S:
                errors.append(
                    f"{where} job {job.index}: response "
                    f"{job.response_time_s!r} s != parts {parts!r} s"
                )
                break
        tagged = math.fsum(run.energy_by_tag.values())
        if abs(tagged - run.energy_j) > ENERGY_TOL_J:
            errors.append(
                f"{where}: energy_by_tag sums to {tagged!r} J, "
                f"energy_j is {run.energy_j!r} J"
            )
        if needs_ledger and ledger_error is None:
            errors.append(f"{where}: no energy ledger")
        elif ledger_error is not None and ledger_error > ENERGY_TOL_J:
            errors.append(f"{where}: ledger leaked {ledger_error:.3e} J")
    return errors


def _run_digest(run) -> str:
    payload = {
        "app": run.app,
        "governor": run.governor,
        "budget_s": run.budget_s,
        "energy_j": run.energy_j,
        "energy_by_tag": run.energy_by_tag,
        "switch_count": run.switch_count,
        "jobs": [[getattr(job, f) for f in JOB_FIELDS] for job in run.jobs],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_runs(runs: list[tuple[object, float | None]]) -> str:
    """SHA-256 over the canonical per-job records of every run.

    Runs are combined in sorted order of their own digests, so a change
    that only reorders independent runs (fleet sessions, ablation cells)
    keeps the digest; any change to one record's value does not.
    """
    combined = hashlib.sha256()
    for digest in sorted(_run_digest(run) for run, _ in runs):
        combined.update(digest.encode())
    return combined.hexdigest()
