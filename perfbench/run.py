"""The repository benchmark: host speed, set-up and simulated outcomes.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-fig15 --seed 42 --seconds 30 --trace 0

Each repetition runs the whole workload in a fresh process
(``child.py``).  Repetitions are started until ``--seconds`` is used up
(at least one; in a traced run at least one untraced and one traced).
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, as medians over the repetitions; with ``--trace 1``
it carries the per-layer metrics of the traced repetitions.  The line
before it holds the detail: seed, digest and every repetition.

The run is correct when every repetition passed its output checks and
all of them agree exactly on the simulated outcome, the digest of the
per-job records and (traced) every work count.  A divergence is
reported, never averaged away.

``--tiny`` shrinks every workload to a few jobs; the smoke test uses it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNT_METRICS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics: (name, unit, better).  ``met_pct`` and ``ok_pct``
#: are the complements of the deadline-miss and failed-job shares, so
#: that no metric can read 0.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("jobs_per_s", "jobs/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("energy_saving_pct", "%", "higher"),
    ("met_pct", "%", "higher"),
    ("ok_pct", "%", "higher"),
)

#: Fields every repetition of one commit and seed must agree on exactly.
DETERMINISTIC = (
    "digest", "energy_saving_pct", "miss_pct", "jobs", "runs", "segments",
)

#: Per-repetition fields too long for the detail line.
OMITTED = ("layers", "self_s_by_span", "segments_s")

#: A repetition that runs longer than this is stopped and counted failed.
CHILD_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: the workload's default seed)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def run_child(workload: str, seed: int, traced: bool, tiny: bool) -> dict:
    """One repetition; a crash or timeout comes back as a failed row."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--spawned-at", repr(time.time()),
    ]
    if tiny:
        command.append("--tiny")
    failed = {"ok": False, "traced": traced}
    try:
        proc = subprocess.run(
            command,
            cwd=REPO,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {**failed, "errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        row = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {**failed, "errors": [f"exit {proc.returncode}, no result line"]}
    if proc.returncode != 0:
        row.update(ok=False)
        row.setdefault("errors", []).append(f"exit {proc.returncode}")
    return row


def repetitions(args: argparse.Namespace, seed: int) -> list[dict]:
    """Run repetitions until the time is used up.

    Another repetition starts only if the last one's duration still fits,
    so a run ends close to ``--seconds``.  A traced run alternates
    untraced and traced repetitions and always ends on a traced one.
    """
    deadline = time.perf_counter() + args.seconds
    rows: list[dict] = []
    while True:
        traced = bool(args.trace) and len(rows) % 2 == 1
        started = time.perf_counter()
        rows.append(run_child(args.workload, seed, traced, args.tiny))
        took = time.perf_counter() - started
        if args.trace and not traced:
            continue
        if time.perf_counter() + took * (2 if args.trace else 1) > deadline:
            return rows


def divergences(rows: list[dict], fields, key=lambda row: row) -> list[str]:
    """Fields on which passing repetitions disagree."""
    found = []
    for field in fields:
        values = {json.dumps(key(row).get(field)) for row in rows}
        if len(values) > 1:
            found.append(f"{field} differs between repetitions: {sorted(values)}")
    return found


def typical_eval_s(rows: list[dict]) -> float:
    """Time after set-up, as the sum over segments of each segment's
    median across repetitions.

    Every repetition of one seed runs the same steps in the same segments
    (``child.StepClock``), so the median of one segment is over identical
    work.  Taking it per segment rather than per repetition filters a
    slow spell of the host that hits one segment of one repetition.
    """
    if not rows:
        return math.inf
    return math.fsum(
        statistics.median(segment)
        for segment in zip(*(row["segments_s"] for row in rows))
    )


def summarize(rows: list[dict], trace: bool) -> tuple[dict, dict]:
    """The result line and the detail line."""
    passed = [row for row in rows if row.get("ok")]
    planned = max((row.get("planned_jobs", 1) for row in rows), default=1)
    attempted = planned * len(rows)
    failed = planned * (len(rows) - len(passed))
    problems = [e for row in rows if not row.get("ok") for e in row["errors"]]
    problems += divergences(passed, DETERMINISTIC)
    traced = [row for row in passed if row["traced"]]
    untraced = [row for row in passed if not row["traced"]]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    if trace:
        problems += divergences(traced, COUNT_METRICS, key=lambda r: r["layers"])
        values = {
            name: median(row["layers"][name] for row in traced)
            for name, _, _ in PER_LAYER
            if name != "trace.overhead_frac"
        }
        untraced_wall = median(row["wall_s"] for row in untraced)
        values["trace.overhead_frac"] = (
            median(row["wall_s"] for row in traced) / untraced_wall - 1.0
            if untraced_wall
            else 0.0
        )
        spec = PER_LAYER
    else:
        first = passed[0] if passed else {}
        values = {
            "jobs_per_s": first.get("jobs", 0) / typical_eval_s(passed),
            "setup_s": median(r["setup_s"] for r in passed),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in passed),
            "energy_saving_pct": first.get("energy_saving_pct", 0.0),
            "met_pct": 100.0 - first.get("miss_pct", 100.0),
            "ok_pct": 100.0 * (attempted - failed) / attempted,
        }
        spec = END_TO_END

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in spec
        },
    }
    detail = {
        "problems": problems,
        "repetitions": [
            {k: v for k, v in row.items() if k not in OMITTED}
            for row in rows
        ],
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {REPO / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    rows = repetitions(args, seed)
    result, detail = summarize(rows, bool(args.trace))
    detail = {
        "workload": args.workload,
        "seed": seed,
        "heldout_seed": workload.heldout_seed,
        "trace": args.trace,
        **detail,
    }
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
