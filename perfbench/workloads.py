"""The benchmark's workloads: what each one runs, at which size.

Each workload is one batch of simulator work that a user starts from the
command line.  ``run(seed, tiny)`` does the whole thing in this process,
set-up included, and returns an :class:`Outcome`; the benchmark marks the
end of set-up at the first simulated job (see ``child.py``), so the
workload code itself needs no timers.

Why these three (README.md has the longer form):

- ``paper-fig15`` is the paper's headline matrix and the command users
  run most; its host time is mostly the task-program interpreter and its
  set-up mostly asymmetric-Lasso fits.
- ``fleet-poisson`` spreads host time over many short sessions: session
  set-up, SLO trackers, the energy ledger, governor decisions and fleet
  aggregation.  Poisson releases also reach the executor's late-start
  path, which periodic releases never do.
- ``ablate-matrix`` is the only workload with online recalibration,
  decision provenance and the paired bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = ["Outcome", "Workload", "WORKLOADS"]

#: Where ``ablate-matrix`` writes its artefacts (inside the checkout).
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Outcome:
    """What one workload run produced.

    Attributes:
        planned_jobs: Simulated jobs the workload is meant to run.
        energy_saving_pct: Simulated energy saved by the prediction-family
            governor against the ``performance`` governor, in percent.
        miss_pct: Deadline misses over simulated jobs for that governor,
            in percent.
        report: The rendered report (its length is recorded only so the
            rendering cannot be skipped).
    """

    planned_jobs: int
    energy_saving_pct: float
    miss_pct: float
    report: str


@dataclass(frozen=True)
class Workload:
    """A named workload with its seeds.

    Attributes:
        name: Name on the command line and in ``BENCHMARK.json``.
        default_seed: The seed a run uses when none is given.
        heldout_seed: A seed kept out of tuning; a later claim of a gain
            must also hold on it.
        needs_ledger: Whether every run carries an energy ledger whose
            conservation the output check enforces.
        modules: What ``run`` imports; the benchmark imports them before
            it starts the traced-versus-untraced wall clock.
        run: ``run(seed, tiny) -> Outcome``.
    """

    name: str
    default_seed: int
    heldout_seed: int
    needs_ledger: bool
    modules: tuple[str, ...]
    run: Callable[[int, bool], Outcome]


def _paper_fig15(seed: int, tiny: bool) -> Outcome:
    """``repro fig15``: 8 apps x 4 governors at the paper's budgets."""
    from repro.analysis.experiments import fig15_energy_misses as fig15
    from repro.analysis.harness import Lab, default_n_jobs
    from repro.workloads.registry import app_names

    apps = ("rijndael", "2048") if tiny else tuple(app_names())
    n_jobs = 6 if tiny else None
    lab = Lab(seed=seed)
    # Train every controller up front, so that set-up ends at the first
    # simulated job as it does for the other workloads (``repro fig15``
    # trains each app's controller lazily, between its governor runs).
    for app in apps:
        lab.controller(app)
    result = fig15.run(lab, apps=apps, n_jobs=n_jobs)
    report = fig15.render(result)

    # Cache hits: the Lab hands back the runs the matrix just made.
    predictions = [lab.run(app, "prediction", n_jobs=n_jobs) for app in apps]
    predicted_jobs = sum(run.n_jobs for run in predictions)
    return Outcome(
        planned_jobs=len(fig15.GOVERNORS)
        * sum(n_jobs or default_n_jobs(app) for app in apps),
        energy_saving_pct=100.0 - result.average_energy_pct("prediction"),
        miss_pct=100.0 * sum(run.n_missed for run in predictions)
        / predicted_jobs,
        report=report,
    )


def _fleet_poisson(seed: int, tiny: bool) -> Outcome:
    """``repro fleet run --sessions 1000 --energy``: the CLI's defaults
    (tenants rijndael and 2048, prediction governor, Poisson releases,
    20 jobs a session) on 1 shard and 1 worker."""
    from repro.fleet import FleetSpec, TenantSpec, arrival_from_dict, run_fleet

    apps = ("rijndael", "2048")
    sessions, jobs = (4, 5) if tiny else (1000, 20)
    tenants = tuple(
        TenantSpec(
            name=app,
            app=app,
            governor="prediction",
            sessions=sessions // len(apps),
            jobs_per_session=jobs,
            arrival=arrival_from_dict({"kind": "poisson"}),
            jitter_sigma=0.02,
        )
        for app in apps
    )
    spec = FleetSpec(tenants=tenants, seed=seed, energy=True)
    report = run_fleet(spec, workers=1).report
    text = report.render_text()
    return Outcome(
        planned_jobs=sessions * jobs,
        energy_saving_pct=100.0 * report.energy.savings_frac,
        miss_pct=100.0 * report.miss_rate,
        report=text,
    )


def _ablate_matrix(seed: int, tiny: bool) -> Outcome:
    """``repro ablate run --workloads rijndael,2048`` with one worker:
    baseline plus every one-off variant x nominal/jitter/drift."""
    from repro.ablation import plan_matrix, run_ablation, score_ablation
    from repro.ablation.emit import ranked_table, write_artifacts

    workloads = ("2048",) if tiny else ("rijndael", "2048")
    n_jobs = 8 if tiny else 150
    plan = plan_matrix(workloads=workloads, seed=seed, n_jobs=n_jobs)
    result = run_ablation(plan, workers=1)
    report = score_ablation(result)
    text = ranked_table(report)
    write_artifacts(result, report, OUT_DIR / "ablate")

    # The saving over every baseline job, as the fleet's ledger pools it.
    # The report's own figure is the mean over cells, which a single
    # 150-job cell can swing by several points from one seed to the next.
    baseline = next(v.name for v in plan.variants if v.is_baseline)
    cells = [c for c in result.cells if c.variant == baseline]
    used_j = math.fsum(c.energy_j for c in cells)
    performance_j = math.fsum(c.energy_j / (1.0 - c.savings_frac) for c in cells)
    return Outcome(
        planned_jobs=len(plan.cells) * n_jobs,
        energy_saving_pct=100.0 * (1.0 - used_j / performance_j),
        miss_pct=100.0 * report.baseline.miss_rate,
        report=text,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-fig15",
            default_seed=42,
            heldout_seed=1042,
            needs_ledger=False,
            modules=(
                "repro.analysis.experiments.fig15_energy_misses",
                "repro.analysis.harness",
                "repro.workloads.registry",
            ),
            run=_paper_fig15,
        ),
        Workload(
            "fleet-poisson",
            default_seed=7,
            heldout_seed=1007,
            needs_ledger=True,
            modules=("repro.fleet",),
            run=_fleet_poisson,
        ),
        Workload(
            "ablate-matrix",
            default_seed=7,
            heldout_seed=1007,
            needs_ledger=True,
            modules=("repro.ablation", "repro.ablation.emit"),
            run=_ablate_matrix,
        ),
    )
}
