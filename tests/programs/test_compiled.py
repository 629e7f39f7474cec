"""Compiled execution against the tree-walking reference, bit for bit.

:class:`Interpreter` runs every program as closures compiled once per
program (:mod:`repro.programs.compiled`); :class:`ReferenceInterpreter`
walks the statement tree.  Everything the simulation observes must be
identical: work, feature counters in insertion order, call-address
lists, and the final globals and locals, across jobs that share
persistent globals.  The comparison is plain ``==`` on floats, as in
``tests/programs/opt/helpers.assert_equivalent``.
"""

import pickle

import pytest
from hypothesis import given

from repro.programs.compiled import compile_program
from repro.programs.expr import BinOp, BoolOp, Compare, Const, Expr, Var
from repro.programs.instrument import Instrumenter
from repro.programs.interpreter import Interpreter, ReferenceInterpreter
from repro.programs.ir import (
    COUNTER_COST,
    LOOP_ITER_COST,
    Assign,
    Block,
    IndirectCall,
    Loop,
    Program,
    Seq,
    Stmt,
)
from repro.programs.slicer import Slicer
from repro.workloads.registry import app_names, get_app

from tests.programs.test_random_programs import deep, program_and_inputs

COMPILED = Interpreter()
REFERENCE = ReferenceInterpreter()


def trace(interp, program, jobs, isolated):
    """Everything observable about ``jobs`` run back to back."""
    globals_ = program.fresh_globals()
    out = []
    for job in jobs:
        if isolated:
            result = interp.execute_isolated(program, job, globals_)
            # Commit like the task loop does, so state still evolves.
            globals_.update(result.env.globals)
        else:
            result = interp.execute(program, job, globals_)
        _, final_globals, final_locals = result.env.layers()
        out.append(
            (
                result.work.cycles,
                result.work.mem_time_s,
                list(result.features.counters.items()),
                {
                    site: list(addresses)
                    for site, addresses in (
                        result.features.call_addresses.items()
                    )
                },
                list(final_globals.items()),
                list(final_locals.items()),
            )
        )
    return out, list(globals_.items())


def assert_matches_reference(program, jobs):
    for isolated in (False, True):
        assert trace(COMPILED, program, jobs, isolated) == trace(
            REFERENCE, program, jobs, isolated
        )


class TestRandomPrograms:
    @deep
    @given(pi=program_and_inputs())
    def test_raw_programs(self, pi):
        program, jobs = pi
        assert_matches_reference(program, jobs)

    @deep
    @given(pi=program_and_inputs())
    def test_instrumented_programs_and_slices(self, pi):
        program, jobs = pi
        instrumented = Instrumenter().instrument(program)
        assert_matches_reference(instrumented.program, jobs)
        assert_matches_reference(Slicer().slice(instrumented).program, jobs)


@pytest.mark.parametrize("app_name", app_names())
def test_workload_task_and_slice(app_name):
    app = get_app(app_name)
    jobs = app.inputs(8 if app_name == "pocketsphinx" else 30, seed=3)
    instrumented = Instrumenter().instrument(app.task.program)
    assert_matches_reference(app.task.program, jobs)
    assert_matches_reference(instrumented.program, jobs)
    assert_matches_reference(Slicer().slice(instrumented).program, jobs)


class TestSemantics:
    @pytest.mark.parametrize("interp", [COMPILED, REFERENCE])
    @pytest.mark.parametrize(
        "expr",
        [
            Var("nope"),
            BinOp("+", Var("nope"), Const(1)),
            Compare("==", Var("nope"), Const(0)),
            BinOp("*", Const(2), Var("nope")),
        ],
    )
    def test_undefined_variable_message(self, interp, expr):
        program = Program("t", Assign("x", expr))
        with pytest.raises(KeyError, match="undefined variable 'nope'"):
            interp.execute(program, {})

    def test_loop_trips_clamp_to_max_trips(self):
        body = Block(10, 1.0)
        for count, trips in ((10**9, 5), (-4, 0), (3, 3)):
            program = Program(
                "t",
                Loop("l", Const(count), body, max_trips=5, counted=True),
            )
            result = COMPILED.execute(program, {})
            assert result.features.counters == {"l": float(trips)}
            assert result.work.cycles == COUNTER_COST + trips * (
                LOOP_ITER_COST + 10
            )
            assert_matches_reference(program, [{}])

    def test_elided_loop_charges_only_the_counter(self):
        program = Program(
            "t",
            Loop("l", Var("n"), Block(10), counted=True, elide_body=True),
        )
        result = COMPILED.execute(program, {"n": 7})
        assert result.features.counters == {"l": 7.0}
        assert result.work.cycles == COUNTER_COST

    def test_boolop_short_circuits(self):
        # The second operand would raise: it must never be evaluated.
        program = Program(
            "t",
            Seq(
                [
                    Assign("a", BoolOp("and", [Const(0), Var("nope")])),
                    Assign("o", BoolOp("or", [Const(2), Var("nope")])),
                ]
            ),
        )
        env = COMPILED.execute(program, {}).env
        assert (env["a"], env["o"]) == (False, True)
        assert_matches_reference(program, [{}])

    def test_indirect_call_falls_back_to_default(self):
        program = Program(
            "t",
            IndirectCall(
                "c",
                Var("addr"),
                {1: Block(100)},
                default=Block(7),
                counted=True,
            ),
        )
        jobs = [{"addr": 1}, {"addr": 9}]
        assert_matches_reference(program, jobs)
        result = COMPILED.execute(program, {"addr": 9})
        assert result.features.call_addresses == {"c": [9]}

    def test_writes_follow_the_environment_rule(self):
        program = Program(
            "t",
            Seq(
                [
                    Assign("g", Var("g") + Const(1)),
                    Assign("n", Var("n") * Const(2)),  # shadows an input
                    Assign("t", Var("n") + Var("g")),
                    Loop("l", Const(3), Block(1), loop_var="g"),
                ]
            ),
            globals_init={"g": 10},
        )
        globals_ = program.fresh_globals()
        result = COMPILED.execute(program, {"n": 4}, globals_)
        _, _, final_locals = result.env.layers()
        assert globals_ == {"g": 2}  # the loop variable is the global
        assert final_locals == {"n": 8, "t": 19}
        assert_matches_reference(program, [{"n": 4}, {"n": 5}])

    def test_statement_subclasses_dispatch_by_mro(self):
        class Kernel(Block):
            pass

        class Phase(Seq):
            pass

        program = Program("t", Phase([Kernel(5, 1.0), Phase([Kernel(6)])]))
        assert COMPILED.execute(program, {}).work.cycles == 11
        assert_matches_reference(program, [{}])

    def test_unknown_statement_fails_only_when_run(self):
        class Mystery(Stmt):
            def children(self):
                return ()

        untaken = Program("t", Loop("l", Const(0), Mystery()))
        assert COMPILED.execute(untaken, {}).work.cycles == 0
        with pytest.raises(TypeError, match="unknown statement type Mystery"):
            COMPILED.execute(Program("t", Mystery()), {})

    def test_expression_subclasses_run_their_own_evaluate(self):
        class Doubled(Var):
            def evaluate(self, env):
                return 2 * super().evaluate(env)

        program = Program("t", Assign("x", BinOp("+", Doubled("n"), Const(1))))
        assert COMPILED.execute(program, {"n": 5}).env["x"] == 11
        assert_matches_reference(program, [{"n": 5}])


class TestCompiledCache:
    def test_compiled_once_and_shared_by_interpreters(self):
        app = get_app("sha")
        program = app.task.program
        (job,) = app.inputs(1, seed=0)
        Interpreter().execute(program, job)
        first = compile_program(program)
        Interpreter(cycles_per_instruction=2.0).execute(program, job)
        assert compile_program(program) is first

    def test_cost_parameters_apply_at_the_end(self):
        program = Program("t", Block(100, 10.0))
        slow = Interpreter(cycles_per_instruction=2.0, mem_seconds_per_ref=1e-6)
        assert COMPILED.execute(program, {}).work.cycles == 100
        assert slow.execute(program, {}).work.cycles == 200
        assert slow.execute(program, {}).work.mem_time_s == 10.0 * 1e-6

    def test_program_pickles_after_running(self):
        app = get_app("rijndael")
        program = app.task.program
        jobs = app.inputs(5, seed=1)
        before = trace(COMPILED, program, jobs, isolated=False)
        restored = pickle.loads(pickle.dumps(program))
        assert restored == program
        assert "_compiled_body" not in restored.__dict__
        assert trace(COMPILED, restored, jobs, isolated=False) == before


class Ticket(Expr):
    """An impure expression, for tests: each evaluation counts up."""

    def __init__(self):
        self.issued = 0

    def evaluate(self, env):
        self.issued += 1
        return self.issued

    def variables(self):
        return frozenset()

    def _key(self):
        return (id(self),)


def test_impure_expressions_run_once_per_execution():
    ticket = Ticket()
    program = Program("t", Assign("x", BinOp("+", ticket, Const(0))))
    COMPILED.execute(program, {})
    COMPILED.execute_isolated(program, {}, {})
    assert ticket.issued == 2
