"""Tiny-size runs of every workload through ``run.py`` with the
arguments BENCHMARK.json's command takes, plus the agreement between the
code and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END
from spans import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_names_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        PER_LAYER
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail_line
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    detail = json.loads(detail_line)
    assert detail["seed"] == 5
    assert [row["traced"] for row in detail["repetitions"]] == (
        [False, True] if trace else [False]
    )


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "paper-fig15", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
