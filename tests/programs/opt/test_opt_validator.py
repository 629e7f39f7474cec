"""Translation-validator tests.

Two obligations: the validator must *accept* every real pass on every
shipped workload program, and it must *reject* (and the driver must
revert) deliberately broken passes that violate each protected
property — feature records, cost bounds, effects, globals.
"""

import dataclasses

import pytest

from repro.programs.expr import Const, Var
from repro.programs.instrument import Instrumenter
from repro.programs.ir import Assign, Block, Hint, Program, Seq
from repro.programs.opt import OPT_TEMP_PREFIX, RewriteStep
from repro.programs.opt import driver as opt_driver
from repro.programs.opt.driver import optimize_program
from repro.workloads.registry import app_names, get_app

from tests.programs.opt.helpers import run_trace


@pytest.mark.parametrize("name", app_names())
class TestValidatorAcceptsRealPasses:
    def test_task_program(self, name):
        result = optimize_program(get_app(name).task.program)
        assert result.validated
        assert not result.diagnostics

    def test_instrumented_program(self, name):
        inst = Instrumenter().instrument(get_app(name).task.program)
        result = optimize_program(inst.program)
        assert result.validated
        assert not result.diagnostics


def base_program():
    return Program(
        "victim",
        Seq([
            Hint("h0", Var("in_a"), cost=2.0, counted=True),
            Block(5.0),
            Assign("g_x", Var("in_a")),
        ]),
        globals_init={"g_x": 0},
    )


def install_broken(monkeypatch, transform):
    """Replace the whole pass registry with one broken pass."""

    def broken(program, ctx):
        return transform(program), [RewriteStep("broken")]

    monkeypatch.setattr(opt_driver, "PASS_FUNCTIONS", [("dce", broken)])


def failing_checks(result):
    names = set()
    for cert in result.certificates:
        for check in cert.checks:
            if not check.ok:
                names.add(check.name)
    return names


class TestValidatorRejectsBrokenPasses:
    def test_dropping_a_counted_site_is_rejected(self, monkeypatch):
        program = base_program()
        install_broken(
            monkeypatch,
            lambda p: dataclasses.replace(
                p, body=Seq([Block(5.0), Assign("g_x", Var("in_a"))])
            ),
        )
        result = optimize_program(program)
        assert not result.validated
        assert not result.changed
        assert result.program is program
        assert "counted-sites" in failing_checks(result)
        assert result.diagnostics
        assert all(d.severity == "error" for d in result.diagnostics)

    def test_added_cost_is_rejected(self, monkeypatch):
        program = base_program()
        install_broken(
            monkeypatch,
            lambda p: dataclasses.replace(
                p, body=Seq(tuple(p.body.stmts) + (Block(1000.0),))
            ),
        )
        result = optimize_program(program)
        assert not result.changed
        assert failing_checks(result) == {"cost-bound"}

    def test_writing_a_new_local_is_rejected(self, monkeypatch):
        program = base_program()
        install_broken(
            monkeypatch,
            lambda p: dataclasses.replace(
                p,
                body=Seq(
                    tuple(p.body.stmts) + (Assign("sneaky", Const(1), cost=0.0),)
                ),
            ),
        )
        result = optimize_program(program)
        assert not result.changed
        assert "effects-locals" in failing_checks(result)

    def test_optimizer_temps_are_exempt_from_effects_check(self, monkeypatch):
        # The CSE/LICM temps are invisible to the simulation (nothing
        # downstream reads them), so the effects check tolerates them.
        program = base_program()
        install_broken(
            monkeypatch,
            lambda p: dataclasses.replace(
                p,
                body=Seq(
                    tuple(p.body.stmts)
                    + (Assign(OPT_TEMP_PREFIX + "t0", Const(1), cost=0.0),)
                ),
            ),
        )
        result = optimize_program(program)
        assert result.validated
        assert result.changed

    def test_changed_globals_init_is_rejected(self, monkeypatch):
        program = base_program()
        install_broken(
            monkeypatch,
            lambda p: dataclasses.replace(p, globals_init={"g_x": 99}),
        )
        result = optimize_program(program)
        assert not result.changed
        assert "globals-init" in failing_checks(result)

    def test_disabling_validation_lets_the_broken_pass_through(
        self, monkeypatch
    ):
        # Negative control: the validator, not luck, is what blocks the
        # broken rewrite.  A validator that passes everything lets it in.
        program = base_program()
        install_broken(
            monkeypatch,
            lambda p: dataclasses.replace(
                p, body=Seq(tuple(p.body.stmts) + (Block(1000.0),))
            ),
        )
        monkeypatch.setattr(
            opt_driver, "validate_rewrite", lambda *args, **kwargs: []
        )
        result = optimize_program(program)
        assert result.changed
        jobs = [{"in_a": 3}]
        trace_orig, _ = run_trace(program, jobs)
        trace_broken, _ = run_trace(result.program, jobs)
        assert trace_orig != trace_broken

    def test_rejected_rewrite_records_an_audit_certificate(self, monkeypatch):
        program = base_program()
        install_broken(
            monkeypatch,
            lambda p: dataclasses.replace(
                p, body=Seq(tuple(p.body.stmts) + (Block(1000.0),))
            ),
        )
        result = optimize_program(program)
        cert = result.certificates[0]
        assert not cert.accepted
        assert not cert.ok
        assert cert.before_digest != cert.after_digest
        assert cert.cost_after[0] > cert.cost_before[0]
        # Round-trips for the lint/CI artifact.
        clone = type(cert).from_dict(cert.as_dict())
        assert clone == cert
