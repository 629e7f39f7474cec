"""Unit tests for the individual optimizer passes.

Each pass is exercised directly (``pass_fn(program, ctx)``) on small
hand-built programs so the test can assert both the *shape* of the
rewrite and, via the shared differential helper, its bit-exactness.
"""

import pytest

from repro.programs.expr import BinOp, Compare, Const, UnaryOp, Var
from repro.programs.ir import (
    BRANCH_COST,
    Assign,
    Block,
    Hint,
    If,
    Loop,
    Program,
    Seq,
    While,
    walk,
)
from repro.programs.opt import (
    OPT_TEMP_PREFIX,
    FreshNames,
    OptContext,
    cse,
    dce,
    fold,
    licm,
    node_count,
    normalize,
    optimize_program,
)
from repro.programs.opt.rewrite import eval_cannot_raise, program_names

from tests.programs.opt.helpers import assert_equivalent

JOBS = [{"in_a": a, "in_b": b} for a, b in [(0, 0), (1, 7), (5, -3), (12, 2)]]


def ctx_for(program, input_ranges=None):
    return OptContext(
        input_names=frozenset(("in_a", "in_b")),
        input_ranges=dict(input_ranges) if input_ranges else None,
        fresh=FreshNames(program_names(program)),
    )


def prog(*stmts, globals_init=None):
    return Program("unit", Seq(stmts), globals_init=dict(globals_init or {}))


def has_temp(program):
    return any(
        name.startswith(OPT_TEMP_PREFIX) for name in program_names(program)
    )


class TestEvalCannotRaise:
    def test_pure_arithmetic_is_safe(self):
        assert eval_cannot_raise(Const(1))
        assert eval_cannot_raise(Var("x"))
        # Division by zero yields 0 by IR convention, so it cannot raise.
        assert eval_cannot_raise(BinOp("/", Var("a"), Const(0)))
        assert eval_cannot_raise(Compare("<", Var("a"), Const(3)))

    def test_int_coercion_is_rejected_even_nested(self):
        # ``int`` of a non-finite float raises; the guard is structural
        # and conservative, so any occurrence disqualifies the tree.
        assert not eval_cannot_raise(UnaryOp("int", Var("a")))
        assert not eval_cannot_raise(
            BinOp("+", Const(1), UnaryOp("int", Var("a")))
        )

    def test_other_unaries_are_safe(self):
        assert eval_cannot_raise(UnaryOp("-", Var("a")))
        assert eval_cannot_raise(UnaryOp("abs", Var("a")))


class TestNormalize:
    def test_flattens_and_merges_blocks(self):
        program = prog(
            Seq([Block(3.0, 1.0), Seq(())]),
            Block(4.0, 2.0),
        )
        out, steps = normalize(program, ctx_for(program))
        assert steps
        # One merged block survives (integral costs sum exactly).
        blocks = [n for n in walk(out.body) if isinstance(n, Block)]
        assert len(blocks) == 1
        assert blocks[0].instructions == 7.0
        assert blocks[0].mem_refs == 3.0
        assert_equivalent(program, out, JOBS)

    def test_fractional_costs_block_the_merge(self):
        # 0.3 + 0.7 is not exact in binary; the regrouping would change
        # the accumulator bit pattern, so exactness gating must refuse.
        program = prog(Block(0.3), Block(0.7))
        out, steps = normalize(program, ctx_for(program))
        blocks = [n for n in walk(out.body) if isinstance(n, Block)]
        assert len(blocks) == 2
        assert_equivalent(program, out, JOBS)

    def test_drops_empty_else(self):
        program = prog(
            If("b0", Compare("<", Var("in_a"), Const(3)), Block(2.0), Seq(()))
        )
        out, steps = normalize(program, ctx_for(program))
        assert steps
        branch = next(n for n in walk(out.body) if isinstance(n, If))
        assert branch.orelse is None
        assert_equivalent(program, out, JOBS)


class TestFold:
    def test_constant_chain_folds_uncounted_branch(self):
        program = prog(
            Assign("x", Const(4)),
            Assign("y", BinOp("+", Var("x"), Const(1))),
            If(
                "b0",
                Compare(">", Var("y"), Const(3)),
                Block(10.0),
                Block(20.0),
            ),
        )
        out, steps = fold(program, ctx_for(program))
        assert steps
        assert not any(isinstance(n, If) for n in walk(out.body))
        # The branch's own cost survives as an opaque block.
        assert_equivalent(program, out, JOBS)

    def test_counted_branch_never_folds(self):
        # Folding a counted If would lose its feature record.
        program = prog(
            If("b0", Compare(">", Const(5), Const(3)), Block(10.0),
               counted=True)
        )
        out, _ = fold(program, ctx_for(program))
        assert any(
            isinstance(n, If) and n.counted for n in walk(out.body)
        )
        assert_equivalent(program, out, JOBS)

    def test_while_with_zero_max_trips_is_untouched(self):
        # max_trips == 0 means the interpreter never even evaluates the
        # condition — zero cost — so replacing it with a BRANCH_COST
        # block would *add* cost.
        program = prog(
            While("w0", Compare("<", Const(1), Const(0)), Block(5.0),
                  max_trips=0)
        )
        out, _ = fold(program, ctx_for(program))
        # Folding inside the (never-evaluated) condition is fine; the
        # statement itself must survive — it costs nothing, so the
        # Block(BRANCH_COST) replacement used for max_trips >= 1 would
        # *add* a cycle.
        assert any(
            isinstance(n, While) and n.max_trips == 0 for n in walk(out.body)
        )
        assert_equivalent(program, out, JOBS)

    def test_while_condition_never_takes_entry_state_constants(self):
        # Regression: the engine's state at a While node is the LOOP
        # ENTRY state, but the condition re-evaluates every iteration.
        # Propagating ``wc = 1`` into ``wc > 0`` froze the countdown
        # into a max_trips-bounded infinite loop.
        program = prog(
            Assign("wc", Const(1)),
            While(
                "w0",
                Compare(">", Var("wc"), Const(0)),
                Seq([
                    Block(0.0),
                    Assign("wc", BinOp("-", Var("wc"), Const(1))),
                ]),
                max_trips=50,
            ),
        )
        out, _ = fold(program, ctx_for(program))
        loop = next(n for n in walk(out.body) if isinstance(n, While))
        assert loop.cond.variables() == frozenset({"wc"})
        assert_equivalent(program, out, JOBS)

    def test_constant_false_while_folds_to_one_branch_check(self):
        program = prog(
            While("w0", Compare("<", Const(1), Const(0)), Block(5.0),
                  max_trips=10)
        )
        out, steps = fold(program, ctx_for(program))
        assert steps
        assert not any(isinstance(n, While) for n in walk(out.body))
        blocks = [n for n in walk(out.body) if isinstance(n, Block)]
        assert sum(b.instructions for b in blocks) == BRANCH_COST
        assert_equivalent(program, out, JOBS)

    def test_zero_trip_loop_vanishes(self):
        program = prog(
            Loop("l0", Const(0), Block(9.0)),
            Block(1.0),
        )
        out, steps = fold(program, ctx_for(program))
        assert steps
        assert not any(isinstance(n, Loop) for n in walk(out.body))
        assert_equivalent(program, out, JOBS)

    def test_counted_zero_trip_loop_survives(self):
        # bump(site, 0) still *creates* the counter entry: key presence
        # is observable, so a counted loop can never be elided.
        program = prog(Loop("l0", Const(0), Block(9.0), counted=True))
        out, _ = fold(program, ctx_for(program))
        assert any(isinstance(n, Loop) for n in walk(out.body))
        assert_equivalent(program, out, JOBS)

    def test_single_trip_loop_unrolls(self):
        program = prog(
            Loop("l0", Const(1), Assign("g_x", BinOp("+", Var("g_x"),
                                                     Const(2))),
                 loop_var="i"),
            globals_init={"g_x": 0},
        )
        out, steps = fold(program, ctx_for(program))
        assert steps
        assert not any(isinstance(n, Loop) for n in walk(out.body))
        assert_equivalent(program, out, JOBS)


class TestDce:
    def test_dead_store_keeps_its_cost(self):
        program = prog(
            Assign("t", BinOp("*", Var("in_a"), Const(3)), cost=7.0),
            Assign("g_x", Const(1)),
            globals_init={"g_x": 0},
        )
        out, steps = dce(program, ctx_for(program))
        assert steps
        assert not any(
            isinstance(n, Assign) and n.target == "t" for n in walk(out.body)
        )
        # The 7-instruction evaluation cost must survive as a block.
        assert any(
            isinstance(n, Block) and n.instructions == 7.0
            for n in walk(out.body)
        )
        assert_equivalent(program, out, JOBS)

    def test_zero_cost_dead_store_vanishes(self):
        program = prog(
            Assign("t", Var("in_a"), cost=0.0),
            Block(2.0),
        )
        out, steps = dce(program, ctx_for(program))
        assert steps
        assert not any(isinstance(n, Assign) for n in walk(out.body))
        assert_equivalent(program, out, JOBS)

    def test_uncounted_hint_is_removed_counted_kept(self):
        program = prog(
            Hint("h0", Var("in_a"), cost=3.0, counted=False),
            Hint("h1", Var("in_b"), cost=3.0, counted=True),
        )
        out, steps = dce(program, ctx_for(program))
        assert steps
        hints = [n for n in walk(out.body) if isinstance(n, Hint)]
        assert [h.site for h in hints] == ["h1"]
        assert_equivalent(program, out, JOBS)

    def test_possibly_faulting_dead_store_survives(self):
        # int() of an unbounded input could fault at run time (inf/nan
        # after float arithmetic); DCE must not delete the evaluation.
        program = prog(
            Assign("t", UnaryOp("int", BinOp("/", Const(1.0), Var("in_a"))),
                   cost=1.0),
            Block(2.0),
        )
        out, _ = dce(program, ctx_for(program))
        assert any(
            isinstance(n, Assign) and n.target == "t" for n in walk(out.body)
        )


class TestCse:
    def test_repeated_expression_computed_once(self):
        shared = BinOp("*", Var("in_a"), Var("in_a"))
        program = prog(
            Assign("x", shared),
            Assign("y", shared),
            Assign("g_x", BinOp("+", Var("x"), Var("y"))),
            globals_init={"g_x": 0},
        )
        out, steps = cse(program, ctx_for(program))
        assert steps
        assert has_temp(out)
        assert_equivalent(program, out, JOBS)

    def test_intervening_write_blocks_reuse(self):
        expr = BinOp("+", Var("g_x"), Const(1))
        program = prog(
            Assign("x", expr),
            Assign("g_x", Const(5)),
            Assign("y", expr),
            globals_init={"g_x": 0},
        )
        out, _ = cse(program, ctx_for(program))
        assert not has_temp(out)


class TestLicm:
    def test_invariant_assignment_rhs_hoisted(self):
        program = prog(
            Assign("x", Const(0)),
            Loop(
                "l0",
                Var("in_a"),
                Seq([
                    Assign("x", BinOp("*", Var("in_b"), Const(3))),
                    Assign("g_x", BinOp("+", Var("g_x"), Var("x"))),
                ]),
                max_trips=50,
            ),
            globals_init={"g_x": 0},
        )
        out, steps = licm(program, ctx_for(program))
        assert steps
        assert has_temp(out)
        # in_a == 0 exercises the zero-trip case: the hoisted expression
        # is evaluated even though the body never ran — safe because the
        # cannot-fault guard admitted it.
        assert_equivalent(program, out, JOBS)

    def test_loop_var_dependent_expression_stays(self):
        program = prog(
            Loop(
                "l0",
                Var("in_a"),
                Assign("g_x", BinOp("+", Var("g_x"), Var("i"))),
                loop_var="i",
                max_trips=50,
            ),
            globals_init={"g_x": 0},
        )
        out, _ = licm(program, ctx_for(program))
        assert not has_temp(out)

    def test_invariant_subexpression_inside_varying_slot(self):
        # The whole RHS varies (it reads g_x), but in_b*3 inside it is
        # invariant and must still be hoisted.
        program = prog(
            Loop(
                "l0",
                Var("in_a"),
                Assign(
                    "g_x",
                    BinOp("+", Var("g_x"), BinOp("*", Var("in_b"), Const(3))),
                ),
                max_trips=50,
            ),
            globals_init={"g_x": 0},
        )
        out, steps = licm(program, ctx_for(program))
        assert steps
        assert has_temp(out)
        assert_equivalent(program, out, JOBS)


class TestDriver:
    def demo(self):
        shared = BinOp("*", Var("in_a"), Var("in_a"))
        return prog(
            Seq([Block(2.0), Block(3.0)]),
            Assign("dead", Var("in_b"), cost=0.0),
            Assign("x", Const(4)),
            If(
                "b0",
                Compare(">", Var("x"), Const(3)),
                Seq([
                    Assign("u", shared),
                    Assign("v", shared),
                    Assign("g_x", BinOp("+", Var("u"), Var("v"))),
                ]),
                Block(50.0),
            ),
            Loop(
                "l0",
                Var("in_a"),
                Assign(
                    "g_y",
                    BinOp("+", Var("g_y"), BinOp("*", Var("in_b"), Const(2))),
                ),
                max_trips=40,
            ),
            globals_init={"g_x": 0, "g_y": 0},
        )

    def test_all_passes_compose(self):
        program = self.demo()
        result = optimize_program(program)
        assert result.changed
        assert result.validated
        assert not result.diagnostics
        assert result.nodes_after < result.nodes_before
        fired = {c.pass_name for c in result.certificates if c.accepted}
        assert {"normalize", "fold", "dce", "cse", "licm"} <= fired
        assert_equivalent(program, result.program, JOBS)

    def test_identity_on_minimal_program(self):
        program = prog(Block(5.0), Assign("g_x", Var("in_a")),
                       globals_init={"g_x": 0})
        result = optimize_program(program)
        assert not result.changed
        assert result.program is program
        assert result.validated

    def test_node_count_counts_statements(self):
        assert node_count(prog(Block(1.0), Block(2.0))) == 3  # Seq + 2
