"""Golden run digests: every hand-assembled run, pinned bit for bit.

Each case builds a run the way one production entry point does (the
Lab for every app under the prediction governor, under each predictor
placement, with overheads uncharged, with idling and under the charged
oracle, the ``watch`` / ``profile`` / ``energy`` commands, the drift
study, a fleet session, an ablation cell, the multi-task runner) and
hashes its per-job records plus total energy; the adaptive ``watch``
case hashes its decisions log instead.  A refactor of how runs are
seeded, how boards are assembled, or how the job loop executes must
leave every digest unchanged; a deliberate behaviour change must update
the digest it moves and say why.

To regenerate after an intended change, run this file with
``REPRO_PRINT_DIGESTS=1`` and ``-s`` and paste the printed values.

The adaptive cases (``lab.2048.adaptive``, the adaptive ``watch``
decisions log, the drift study and the ablation drift cell) were
recorded with the adaptive governor's former AIMD margin loop frozen at
the paper's fixed 10% (``AdaptiveConfig(margin_floor=0.10,
margin_ceiling=0.10)``), before that loop was deleted.  The adaptive
governor now decides under the offline predictor's fixed margin and
reproduces those runs bit for bit.

The adaptive governor pre-flights the slice certificate in every
predict step, as the frozen prediction governor does.  Its three
default-configured cases (``lab.2048.adaptive``, the adaptive ``watch``
decisions log and the drift study) were recorded with that bound-skip
armed as a switch (``AdaptiveConfig(bound_skip=True)``), before the
switch and its off path were deleted; the ablation drift cell always
ran with it armed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.ablation.planner import CellPlan, Scenario, Variant
from repro.ablation.runner import run_cell
from repro.analysis.experiments import drift_adaptation
from repro.analysis.harness import Lab
from repro.cli import main
from repro.fleet.session import FleetBuild, run_session
from repro.fleet.tenant import TenantSpec
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.pipeline.config import PipelineConfig
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter
from repro.platform.opp import default_xu3_a7_table
from repro.runtime.executor import TaskLoopRunner
from repro.runtime.placement import PredictorPlacement
from repro.runtime.multitask import MultiTaskRunner, TaskStream
from repro.workloads.registry import get_app

PROFILE_JOBS = 30

GOLDEN = {
    "lab.rijndael.performance": "bd201e0129b65b4c9e97edee212e8cfb43bcb431bae1d139a871c3b386768b39",
    "lab.rijndael.interactive": "bcb957cc1d2c9cf640ecc67365d02289d4e21d5ed30c6f387b8895abedf81eac",
    "lab.rijndael.prediction": "93df455b0b8ec7a892e5c4a8238e11dda46b354567010ecba4f66ec9fa65492c",
    "lab.2048.performance": "03bf54e169487950115ea8babab9f77875c1c2939a2643f56418889b8f774ac1",
    "lab.2048.interactive": "642e78e6e1f409aff6a2a57e12645667ad4195191155f2619a774003a343323d",
    "lab.2048.prediction": "4190baf2a495548291a40c68b6e3381c9c68299bad948870d5b76c7e226b1906",
    "lab.curseofwar.prediction": "560499479b5274371569f42d11a124e20538c125d37d03a5272cdcf35aebc076",
    "lab.ldecode.prediction": "364f6e3528603e26d274bd5c5f9e0be7243f005c1656d4dbedbec952fec044e0",
    "lab.pocketsphinx.prediction": "a53856bea5cedadfcf8465ff1536fb91f1be6e0b9cba4aae8d8825733327cee9",
    "lab.sha.prediction": "e15c1f4ec3ff3b58c11dfd6a5344d3f06bbede8401b912a0c585b13867f55c8c",
    "lab.uzbl.prediction": "9ee2669aa829494d85122c9d9dc997edb2138aeacdef064d67a09f7c360f1863",
    "lab.xpilot.prediction": "98e40015b5f8f04ca3cc103f77d1d4099cb2fad1df236d9060dad90b70b33028",
    "lab.sha.oracle": "41ff962498cce736e34a85a0ffb38b57bfdbef33c6f9791dfc971235e4b92466",
    "lab.rijndael.prediction.pipelined": "5f4af1674d4eeb76c1a5c84564ec38e64f5015d709bd2e20522fa5d831db17b6",
    "lab.rijndael.prediction.parallel": "d632c07d17ba817b31052fee54a7209cdbad7923c4261dba6c14ca6319da3b38",
    "lab.rijndael.prediction-batch4": "70515f0401fe8a43d97960a1a2b7f9b9e3dd4cca816e1f604f6721072ff96436",
    "lab.rijndael.prediction.uncharged": "7e7ea0fad16d939f7ae9466fc42fde5f4c853c318308bc0f1085fb968f33a3bd",
    "lab.rijndael.oracle.uncharged": "28f41b64ce6d74e57ceb8323699e82681ea593e015058b149f49e8dbf3e2c0ca",
    "lab.rijndael.prediction.idle": "97c4efb282b8fcb4368c5de0f55ab6b53d36557bdbf27520f520af339cbb9e7b",
    "lab.2048.adaptive": "949a8c81c2d5c899cb7c52efc50435495918e000ea2e764b03eff9a1c81fe477",
    "cli.watch.adaptive.decisions": "bc1fb2b81c10a86227c260d6dfa94e0841b1f56f3875284614f7c02b06a7131f",
    "cli.watch.drift": "c27cb491d56176261bb0cd2a93ea13ff5e164e1268f72059da8bf9851539b0e7",
    "cli.profile": "b8d4edcccf781715ec405414fe4d4768e6a085e0620aa3ad5e41fe2548703f38",
    "cli.energy": "454d507d4c74afe69a675c825debe563abb4e0e7257f5159af74016f58136f52",
    "drift_study": "f391669355258940d31fe7415c0efb874558189d7e28252c6ee132b6fff539e3",
    "fleet.session.drift": "04aa6ebb525975af6e98aa2f1e376570548513f23276e1bf01866ff2d52476e0",
    "ablation.cell.drift": "53e7f15e806f742356c6456ef146bb957239bce816b22558288d8d9d0abc6a10",
    "multitask.performance_powersave": "1d18143589fe1ae464650bbad50692c3fa28636fc7ad68a149360f38d2c3013e",
}

def _digest(results) -> str:
    """SHA-256 over canonical JSON of per-job records and energy."""
    payload = [
        {
            "jobs": [dataclasses.asdict(job) for job in result.jobs],
            "energy_j": result.energy_j,
        }
        for result in results
    ]
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _check(name: str, results) -> None:
    assert results, f"{name} ran nothing"
    _check_digest(name, _digest(results))


def _check_digest(name: str, digest: str) -> None:
    if os.environ.get("REPRO_PRINT_DIGESTS"):
        print(f'    "{name}": "{digest}",')
    assert digest == GOLDEN[name], f"{name} run digest changed"


@pytest.fixture
def captured(monkeypatch):
    """Every RunResult a TaskLoopRunner hands out, in order."""
    results = []
    original = TaskLoopRunner.result

    def capture(self):
        result = original(self)
        results.append(result)
        return result

    monkeypatch.setattr(TaskLoopRunner, "result", capture)
    return results


@pytest.fixture(scope="module")
def lab():
    return Lab(
        pipeline_config=PipelineConfig(n_profile_jobs=PROFILE_JOBS),
        switch_samples=20,
    )


@pytest.mark.parametrize("app", ["rijndael", "2048"])
@pytest.mark.parametrize(
    "governor", ["performance", "interactive", "prediction"]
)
def test_lab_run(lab, app, governor):
    result = lab.run(app, governor, n_jobs=40, use_cache=False)
    _check(f"lab.{app}.{governor}", [result])


@pytest.mark.parametrize(
    "placement", [PredictorPlacement.PIPELINED, PredictorPlacement.PARALLEL]
)
def test_lab_run_placement(lab, placement):
    result = lab.run(
        "rijndael", "prediction", n_jobs=40, placement=placement,
        use_cache=False,
    )
    _check(f"lab.rijndael.prediction.{placement.value}", [result])


def test_lab_run_batch(lab):
    result = lab.run("rijndael", "prediction-batch4", n_jobs=40, use_cache=False)
    _check("lab.rijndael.prediction-batch4", [result])


@pytest.mark.parametrize("governor", ["prediction", "oracle"])
def test_lab_run_uncharged(lab, governor):
    """The Fig. 18 limit-study runs: predictor and switch both free."""
    result = lab.run(
        "rijndael", governor, n_jobs=40, charge_predictor=False,
        charge_switch=False, use_cache=False,
    )
    _check(f"lab.rijndael.{governor}.uncharged", [result])


@pytest.mark.parametrize(
    "app", ["curseofwar", "ldecode", "pocketsphinx", "sha", "uzbl", "xpilot"]
)
def test_lab_run_prediction_other_apps(lab, app):
    result = lab.run(app, "prediction", n_jobs=40, use_cache=False)
    _check(f"lab.{app}.prediction", [result])


def test_lab_run_oracle_charged(lab):
    """The oracle reads each job's true work before it runs."""
    result = lab.run("sha", "oracle", n_jobs=40, use_cache=False)
    _check("lab.sha.oracle", [result])


def test_lab_run_idle(lab):
    """The Fig. 21 runs: drop to fmin between jobs."""
    result = lab.run(
        "rijndael", "prediction", n_jobs=40, idle=True, use_cache=False
    )
    _check("lab.rijndael.prediction.idle", [result])


def test_lab_run_adaptive(lab):
    result = lab.run("2048", "adaptive", n_jobs=40, use_cache=False)
    _check("lab.2048.adaptive", [result])


def test_watch_adaptive_decisions(capsys, tmp_path):
    assert main([
        "watch", "2048", "--governor", "adaptive", "--jobs", "40",
        "--quiet", "--trace", str(tmp_path),
    ]) in (0, 1)
    log = pathlib.Path(tmp_path) / "watch.2048.adaptive.decisions.jsonl"
    _check_digest(
        "cli.watch.adaptive.decisions",
        hashlib.sha256(log.read_bytes()).hexdigest(),
    )


def test_watch_drift(captured, capsys):
    # Exit 1 is a fired SLO page, expected under an injected drift.
    assert main([
        "watch", "2048", "--governor", "prediction", "--jobs", "40",
        "--drift", "1.5", "--quiet",
    ]) in (0, 1)
    _check("cli.watch.drift", captured)


def test_profile(captured, capsys, tmp_path):
    assert main([
        "profile", "rijndael", "--governor", "prediction", "--jobs", "30",
        "--profile-jobs", str(PROFILE_JOBS), "--sample-interval", "0",
        "--out", str(tmp_path),
    ]) == 0
    _check("cli.profile", captured)


def test_energy(captured, capsys):
    assert main([
        "energy", "rijndael", "--governor", "prediction", "--jobs", "30",
        "--profile-jobs", str(PROFILE_JOBS),
    ]) == 0
    _check("cli.energy", captured)


def test_drift_study(lab, captured):
    drift_adaptation.run(lab, app_name="rijndael", n_jobs=60)
    _check("drift_study", captured)


def test_fleet_session_with_drift(captured):
    tenant = TenantSpec(
        name="drifty",
        app="sha",
        governor="prediction",
        jobs_per_session=30,
        drift_factor=1.4,
    )
    build = FleetBuild(root_seed=7, profile_jobs=PROFILE_JOBS, switch_samples=10)
    run_session(tenant, 1, build)
    _check("fleet.session.drift", captured)


def test_ablation_drift_cell(captured):
    cell = CellPlan(
        workload="rijndael",
        scenario=Scenario("drift", drift_factor=1.4),
        variant=Variant("baseline", ()),
        seed=7,
        n_jobs=30,
        profile_jobs=PROFILE_JOBS,
        switch_samples=5,
    )
    run_cell(cell)
    _check("ablation.cell.drift", captured)


def test_multitask_performance_powersave():
    opps = default_xu3_a7_table()
    board = Board(opps=opps, jitter=LogNormalJitter(0.05, seed=5))
    sha = get_app("sha")
    rijndael = get_app("rijndael")
    results = MultiTaskRunner(
        board,
        [
            TaskStream(sha.task, PerformanceGovernor(opps), sha.inputs(20, 3)),
            TaskStream(
                rijndael.task,
                PowersaveGovernor(opps),
                rijndael.inputs(20, 3),
                offset_s=0.01,
            ),
        ],
    ).run()
    _check("multitask.performance_powersave", results.values())
