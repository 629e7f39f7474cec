"""The output checks and the digest, on hand-made runs."""

import dataclasses

from repro.runtime.records import JobRecord, RunResult

from checks import check_runs, digest_runs


def job(index, arrival=0.0, wait=0.001, predict=0.002, switch=0.0005, execute=0.01):
    start = arrival + wait
    return JobRecord(
        index=index,
        arrival_s=arrival,
        start_s=start,
        end_s=start + predict + switch + execute,
        deadline_s=arrival + 0.05,
        opp_mhz=1000.0,
        exec_time_s=execute,
        predictor_time_s=predict,
        switch_time_s=switch,
    )


def run(jobs, energy_by_tag=None):
    tags = energy_by_tag or {"job": 1.0, "idle": 0.25}
    return RunResult(
        governor="prediction",
        app="rijndael",
        budget_s=0.05,
        jobs=jobs,
        energy_j=sum(tags.values()),
        energy_by_tag=tags,
    )


def test_clean_runs_pass():
    runs = [(run([job(0), job(1, arrival=0.05)]), 0.0)]
    assert check_runs(runs, planned_jobs=2, needs_ledger=True) == []


def test_each_check_reports_its_failure():
    broken = dataclasses.replace(job(1), exec_time_s=0.02)
    leaky = run([job(0), broken], energy_by_tag={"job": 1.0})
    leaky.energy_j = 1.5
    errors = check_runs([(leaky, 1e-6)], planned_jobs=3, needs_ledger=True)
    assert len(errors) == 4
    assert "ran 2 jobs, planned 3" in errors[0]
    assert "job 1: response" in errors[1]
    assert "energy_by_tag" in errors[2]
    assert "leaked" in errors[3]


def test_missing_ledger_fails_only_where_one_is_needed():
    runs = [(run([job(0)]), None)]
    assert check_runs(runs, 1, needs_ledger=False) == []
    assert check_runs(runs, 1, needs_ledger=True) == ["rijndael/prediction: no energy ledger"]


def test_digest_ignores_run_order_but_not_values():
    a, b = run([job(0)]), run([job(0, wait=0.002)])
    assert digest_runs([(a, None), (b, None)]) == digest_runs([(b, None), (a, None)])
    nudged = run([dataclasses.replace(job(0), opp_mhz=1000.0000000001)])
    assert digest_runs([(a, None)]) != digest_runs([(nudged, None)])
