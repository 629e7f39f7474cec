"""Span and self-time arithmetic on synthetic spans."""

import math

import pytest

from spans import (
    INTERP,
    PER_LAYER,
    Tracer,
    layer_metrics,
    summarize,
)


class FakeClock:
    """Returns the times it is given, in order."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def traced_run(events):
    """Replay ``events`` of ("open", name, t) / ("close", t) / ("end", t)."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin()
    open_spans = []
    for event in events:
        if event[0] == "open":
            _, name, t = event
            clock.now = t
            open_spans.append(tracer.open(tracer.name_id(name)))
        elif event[0] == "close":
            clock.now = event[1]
            tracer.close(open_spans.pop())
        else:
            clock.now = event[1]
    tracer.finish()
    return tracer


def test_self_time_subtracts_children_and_gaps_are_unattributed():
    tracer = traced_run(
        [
            ("open", "runtime.step", 1.0),
            ("open", INTERP, 1.5),
            ("close", 2.5),
            ("open", "governors.decide", 3.0),
            ("open", "governors.analyze", 3.25),
            ("open", INTERP, 3.5),
            ("close", 3.75),
            ("close", 4.0),
            ("close", 4.5),
            ("close", 5.0),
            ("end", 10.0),
        ]
    )
    summary = summarize(tracer)
    assert summary.wall_s == 10.0
    assert summary.self_s == {
        "runtime.step": 4.0 - 1.0 - 1.5,
        "programs.task_interp": 1.0,
        "governors.decide": 1.5 - 0.75,
        "governors.analyze": 0.75 - 0.25,
        "programs.slice_interp": 0.25,
    }
    assert summary.unattributed_s == 10.0 - 4.0
    assert summary.accounting_error_s() == 0.0
    assert summary.min_self_s >= 0.0


def test_interpretations_are_named_by_their_nearest_context():
    tracer = traced_run(
        [
            ("open", "features.profile", 0.0),
            ("open", INTERP, 0.0),
            ("close", 1.0),
            ("close", 1.0),
            ("open", "pipeline.build", 1.0),
            ("open", INTERP, 1.0),
            ("close", 2.0),
            ("close", 2.0),
            ("open", "runtime.step", 2.0),
            ("open", "online.on_job_end", 2.0),
            ("open", INTERP, 2.0),
            ("close", 3.0),
            ("close", 3.0),
            ("close", 3.0),
            ("end", 3.0),
        ]
    )
    summary = summarize(tracer)
    assert summary.self_s["programs.profile_interp"] == 1.0
    assert summary.self_s["programs.other_interp"] == 1.0
    assert summary.self_s["programs.feedback_interp"] == 1.0
    assert "programs.task_interp" not in summary.self_s


def test_calls_count_entries_into_a_layer_not_recursion():
    tracer = traced_run(
        [
            ("open", "models.predict", 0.0),
            ("open", "models.predict", 0.1),
            ("open", "features.encode", 0.2),
            ("close", 0.3),
            ("close", 0.4),
            ("close", 0.5),
            ("open", "models.predict", 0.6),
            ("close", 0.7),
            ("end", 1.0),
        ]
    )
    summary = summarize(tracer)
    assert summary.calls == {"models.predict": 2, "features.encode": 1}
    assert summary.self_s["models.predict"] == pytest.approx(0.5)


def test_spans_record_parent_and_job():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.open(tracer.name_id("fleet.shard"))
    tracer.job_id = 7
    inner = tracer.open(tracer.name_id("runtime.step"))
    tracer.close(inner)
    tracer.close(outer)
    assert list(tracer.parent) == [-1, outer]
    assert list(tracer.job) == [-1, 7]
    assert tracer.stack == []


def test_layer_metrics_derive_ratios_and_read_zero_for_absent_layers():
    tracer = traced_run(
        [
            ("open", "runtime.step", 0.0),
            ("open", INTERP, 0.0),
            ("close", 1.0),
            ("open", INTERP, 1.0),
            ("close", 2.0),
            ("close", 2.0),
            ("open", "models.solver", 2.0),
            ("close", 2.5),
            ("open", "models.solver", 2.5),
            ("close", 3.0),
            ("end", 3.0),
        ]
    )
    tracer.counts.update(
        {
            "runtime.jobs": 1,
            "models.solver.iters": 30,
            "models.solver.converged": 1,
        }
    )
    metrics = layer_metrics(summarize(tracer))
    assert metrics["programs.task_runs_per_job"] == 2.0
    assert metrics["models.solver.calls"] == 2
    assert metrics["models.solver.iters"] == 30
    assert metrics["models.solver.converged_frac"] == 0.5
    assert metrics["fleet.aggregate.self_s"] == 0.0
    expected = {name for name, _, _ in PER_LAYER} - {"trace.overhead_frac"}
    assert set(metrics) == expected
    assert all(math.isfinite(v) for v in metrics.values())
